"""Tie-aware ranking statistics and tie calibration for metric meta-evaluation."""

from .calibration import (
    CalibrationConfig,
    CalibrationResult,
    F1CurvePoint,
    TieHistogram,
    calibrate,
    f1_curve,
    tie_location_histogram,
)
from .data import (
    ReportDocument,
    ScoreFileError,
    dump_scores,
    format_value,
    load_scores,
    rank_metrics,
    write_report,
)
from .grouping import (
    CorrelationReport,
    GroupingMode,
    ScoreMatrix,
    align,
    bucketize,
    grouped_stats,
    mean_defined,
)
from .stats import (
    OVERALL_STAT_KINDS,
    EpsilonMode,
    EpsilonPolicy,
    PairCounts,
    StatKind,
    as_score_vector,
    break_ties_randomly,
)

__version__ = "0.1.0"

__all__ = [
    "OVERALL_STAT_KINDS",
    "CalibrationConfig",
    "CalibrationResult",
    "CorrelationReport",
    "EpsilonMode",
    "EpsilonPolicy",
    "F1CurvePoint",
    "GroupingMode",
    "PairCounts",
    "ReportDocument",
    "ScoreFileError",
    "ScoreMatrix",
    "StatKind",
    "TieHistogram",
    "align",
    "as_score_vector",
    "break_ties_randomly",
    "bucketize",
    "calibrate",
    "dump_scores",
    "f1_curve",
    "format_value",
    "grouped_stats",
    "load_scores",
    "mean_defined",
    "rank_metrics",
    "tie_location_histogram",
    "write_report",
    "__version__",
]
