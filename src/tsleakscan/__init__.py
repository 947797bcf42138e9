"""tsleakscan: sliding-correlation leak scanner for forecasting datasets.

Scans a collection of training series for segments that reproduce the
terminal segment of any series (up to an affine transform), explains each
hit and judges whether it exposes test-period values.
"""

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
from .reasons import (
    AffineFit,
    ReasonConfig,
    ReasonedMatch,
    ReasonKind,
    assess_usefulness,
    classify,
    collapse_overlaps,
    fit_affine,
    reason_report,
    tally,
)
from .report import (
    MatchMatrix,
    build_matrix,
    read_report,
    render_heatmap,
    report_from_payload,
    report_payload,
    write_matrix_csv,
    write_report,
)
from .scan import LeakReport, MatchRecord, ScanConfig, scan

__version__ = "0.1.0"

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
