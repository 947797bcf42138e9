"""tsleakscan: sliding-correlation leak scanner for forecasting datasets.

Scans a collection of training series for segments that reproduce the
terminal segment of any series (up to an affine transform), explains each
hit and judges whether it exposes test-period values.

Importing the package loads ``collection``, ``errors``, ``corr`` and
``scan``, all that loading and scanning a collection need. The names of
``reasons`` and ``report``, and the two modules, are imported on first use
(a PEP 562 module ``__getattr__``), so a process that only loads pays
nothing for them. ``scan`` stays eager: the first import of a submodule
binds it as an attribute of the package, which would replace the function
``tsleakscan.scan`` by the module ``tsleakscan.scan``. ``python -m
tsleakscan`` imports ``report`` before ``cli``; the other order, with
argparse compiled first, raises a CLI run's peak RSS by about 0.2 MiB.

Every CLI process enters through ``cli.run``: ``python -m tsleakscan``, the
``tsleakscan`` script and ``python -m tsleakscan.cli``. After ``main`` it
calls ``gc.freeze()``, so the interpreter's exit skips its full collections
over numpy's and the package's objects, about 17 ms of each process. A
library caller of ``cli.main`` keeps its collector as it was.
"""

import importlib

from .collection import (
    MissingPolicy,
    Series,
    SeriesCollection,
    from_dict,
    load_collection,
    write_collection,
)
from .corr import SlidingProfile, pearson, sliding_correlations
from .errors import (
    ConfigError,
    ConsistencyError,
    ContractViolation,
    FormatError,
    LeakScanError,
    ValidationError,
)
from .scan import LeakReport, MatchRecord, ScanConfig, scan

__version__ = "0.1.0"

_DEFERRED = {  # name -> the module that defines it, or is it
    **dict.fromkeys(["reasons", "AffineFit", "ReasonConfig", "ReasonedMatch", "ReasonKind", "assess_usefulness",
                     "classify", "collapse_overlaps", "fit_affine", "reason_report", "tally"], "reasons"),
    **dict.fromkeys(["report", "MatchMatrix", "build_matrix", "read_report", "render_heatmap",
                     "report_from_payload", "report_payload", "write_matrix_csv", "write_report"], "report"),
}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_DEFERRED[name]}")
    return module if name == _DEFERRED[name] else getattr(module, name)


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
