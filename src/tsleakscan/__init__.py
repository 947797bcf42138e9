"""tsleakscan: sliding-correlation leak scanner for forecasting datasets.

Scans a collection of training series for segments that reproduce the
terminal segment of any series (up to an affine transform), explains each
hit and judges whether it exposes test-period values.

A process compiles only what its command runs, as no bytecode cache may be
there to spare the compile: importing the package loads only ``collection``
and ``errors``, and the other modules load on first use of one of their
names. ``tsleakscan.scan`` stays the function, not the module, even once
the module is imported (``_Package``): ``import tsleakscan.scan as m`` binds
the function, and ``importlib.import_module("tsleakscan.scan")`` reaches
the module.
"""

import importlib
import sys
import types

from .collection import (
    MissingPolicy,
    Series,
    SeriesCollection,
    from_dict,
    load_collection,
    write_collection,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    ContractViolation,
    FormatError,
    LeakScanError,
    ValidationError,
)

__version__ = "0.1.0"

_DEFERRED = {  # name -> the module that defines it, or is it
    **dict.fromkeys(["corr", "SlidingProfile", "pearson", "sliding_correlations"], "corr"),
    **dict.fromkeys(["LeakReport", "MatchRecord", "ScanConfig", "scan"], "scan"),
    **dict.fromkeys(["reasons", "AffineFit", "ReasonConfig", "ReasonedMatch", "ReasonKind", "assess_usefulness",
                     "classify", "collapse_overlaps", "fit_affine", "reason_report", "tally"], "reasons"),
    **dict.fromkeys(["report", "MatchMatrix", "build_matrix", "read_report", "render_heatmap",
                     "report_from_payload", "report_payload", "write_matrix_csv", "write_report"], "report"),
}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_DEFERRED[name]}")
    # a module's own name gives the module, but for ``scan`` the import has bound its function
    return module if name == _DEFERRED[name] != "scan" else getattr(module, name)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each submodule it loads as an attribute of its package
        if name == "scan" and isinstance(value, types.ModuleType):
            value = value.scan
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = [
    "AffineFit",
    "ConfigError",
    "ConsistencyError",
    "ContractViolation",
    "FormatError",
    "LeakReport",
    "LeakScanError",
    "MatchMatrix",
    "MatchRecord",
    "MissingPolicy",
    "ReasonConfig",
    "ReasonKind",
    "ReasonedMatch",
    "ScanConfig",
    "Series",
    "SeriesCollection",
    "SlidingProfile",
    "ValidationError",
    "assess_usefulness",
    "build_matrix",
    "classify",
    "collapse_overlaps",
    "fit_affine",
    "from_dict",
    "load_collection",
    "pearson",
    "read_report",
    "reason_report",
    "render_heatmap",
    "report_from_payload",
    "report_payload",
    "scan",
    "sliding_correlations",
    "tally",
    "write_collection",
    "write_matrix_csv",
    "write_report",
]
