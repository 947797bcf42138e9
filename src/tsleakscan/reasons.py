"""Explain matches and judge whether they can be exploited.

Each match gets a least-squares affine fit of the donor window against the
query segment; the (slope, intercept, residual) triple classifies the leak
as an exact copy, an added constant, a scaling, a general affine image, a
negative-slope image, or merely high correlation. A match is exploitable
("useful") exactly when the donor continues far enough past the matched
window to cover the query's forecast horizon; in that case the donor
continuation, mapped back through the inverse transform, is the predicted
test segment of the query series.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .collection import SeriesCollection
from .corr import centre
from .errors import ConfigError, ConsistencyError, ContractViolation
from .scan import LeakReport, MatchRecord


class ReasonKind(str, Enum):
    EXACT_MATCH = "exact-match"
    ADD_CONSTANT = "add-constant"
    MULTIPLY_CONSTANT = "multiply-constant"
    AFFINE_TRANSFORM = "affine-transform"
    NEGATIVE_AFFINE = "negative-affine"
    HIGH_CORRELATION_ONLY = "high-correlation-only"


@dataclass(frozen=True)
class AffineFit:
    """Least-squares fit w ~ m*q + c with its largest absolute residual."""

    m: float
    c: float
    max_residual: float


@dataclass(frozen=True)
class ReasonConfig:
    """Classification tolerances and the forecast horizon.

    slope_tol compares the slope against 1; intercept_tol and affine_tol
    are relative to scale(w) = max|w|, so the kinds do not depend on the
    units of the series. horizon=None means "use the scan's segment length
    h", which is how every worked example sets it.
    """

    slope_tol: float = 1e-8
    intercept_tol: float = 1e-8
    affine_tol: float = 1e-8
    horizon: int | None = None

    def __post_init__(self):
        for name in ("slope_tol", "intercept_tol", "affine_tol"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class ReasonedMatch:
    base: MatchRecord
    fit: AffineFit
    kind: ReasonKind
    useful: bool
    predicted_test: list | None  # present iff useful
    provenance_note: str


def scale_of(w) -> float:
    # a matched window is never constant, so this is never zero
    return float(np.max(np.abs(w)))


def resolve_horizon(horizon: int | None, h: int) -> int:
    """The forecast horizon, which defaults to the scan's segment length h."""
    return h if horizon is None else horizon


def _matched(match: MatchRecord, collection: SeriesCollection):
    """The query segment, the donor series and the donor window of a match.

    Raises ConsistencyError when the match names a series that is not in
    the collection, or ends past the end of its donor.
    """
    for sid in (match.query_id, match.donor_id):
        if sid not in collection:
            raise ConsistencyError(f"match {match.query_id!r} -> {match.donor_id!r} "
                                   f"refers to unknown series {sid!r}")
    donor = collection.get(match.donor_id)
    if match.end > len(donor.values):
        raise ConsistencyError(f"match into {match.donor_id!r} ends at {match.end}, "
                               f"series has {len(donor.values)} observations")
    h = match.end - match.start + 1
    return collection.get(match.query_id).values[-h:], donor, donor.values[match.start - 1:match.end]


def _query_terms(q):
    """The query side of ``fit_affine``, which every match of a query shares."""
    q = np.asarray(q, dtype=np.float64)
    if len(q) < 2 or np.all(q == q[0]):
        raise ContractViolation("query segment has zero variance")
    qc, q_exp = centre(q)
    return q, qc, q_exp, qc @ qc, q.mean()


def _fit(terms, w) -> AffineFit:
    q, qc, q_exp, q_css, q_mean = terms
    w = np.asarray(w, dtype=np.float64)
    if len(q) != len(w):
        raise ContractViolation(f"length mismatch: {len(q)} vs {len(w)}")
    wc, w_exp = centre(w)
    m = float(np.ldexp((qc @ wc) / q_css, w_exp - q_exp))
    c = float(w.mean() - m * q_mean)
    max_residual = float(np.max(np.abs(w - (m * q + c))))
    return AffineFit(m, c, max_residual)


def fit_affine(q, w) -> AffineFit:
    """Fit the matched window against the query: m = cov(q,w)/var(q)."""
    return _fit(_query_terms(q), w)


def classify(fit: AffineFit, r: float, cfg: ReasonConfig, *, window_scale: float = 1.0) -> ReasonKind:
    """Total classification of a fit into exactly one ReasonKind.

    ``r`` is the match correlation the fit came from; whenever |r| is 1 the
    residual is negligible and one of the affine kinds applies, so the
    residual branch below is only reachable for cutoffs below 1.
    """
    if fit.max_residual > cfg.affine_tol * window_scale:
        return ReasonKind.HIGH_CORRELATION_ONLY
    slope_is_one = abs(fit.m - 1.0) <= cfg.slope_tol
    intercept_is_zero = abs(fit.c) <= cfg.intercept_tol * window_scale
    if slope_is_one and intercept_is_zero:
        return ReasonKind.EXACT_MATCH
    if slope_is_one:
        return ReasonKind.ADD_CONSTANT
    if fit.m < 0.0:
        return ReasonKind.NEGATIVE_AFFINE
    if intercept_is_zero:
        return ReasonKind.MULTIPLY_CONSTANT
    return ReasonKind.AFFINE_TRANSFORM


def assess_usefulness(match: MatchRecord, collection: SeriesCollection, cfg: ReasonConfig,
                      fit: AffineFit | None = None):
    """Decide exploitability and build the predicted test segment.

    useful <=> end + horizon <= len(donor): pure index arithmetic. When
    useful, the donor continuation donor[end+1 .. end+horizon] is mapped
    through the inverse transform (v - c)/m onto the query series' scale;
    continuation positions that are missing in the donor come out as None.
    """
    horizon = cfg.horizon
    if horizon is None:
        raise ConfigError("horizon not resolved; pass an explicit horizon")
    q, donor, w = _matched(match, collection)
    if not match.end + horizon <= len(donor.values):
        return False, None
    if fit is None:
        fit = fit_affine(q, w)
    continuation = donor.values[match.end:match.end + horizon]
    predicted = (continuation - fit.c) / fit.m
    missing = set(donor.missing)
    return True, [
        None if (match.end + i) in missing else float(v) for i, v in enumerate(predicted)
    ]


def reason_report(report: LeakReport, collection: SeriesCollection,
                  cfg: ReasonConfig = ReasonConfig()) -> list[ReasonedMatch]:
    """Explain every match in the report, preserving report order."""
    cfg = replace(cfg, horizon=resolve_horizon(cfg.horizon, report.config.h))
    reasoned = []
    terms = {}  # (query id, h) -> the query side of the fit, computed once
    for match in report.matches:
        q, _, w = _matched(match, collection)
        key = (match.query_id, len(q))
        if key not in terms:
            terms[key] = _query_terms(q)
        fit = _fit(terms[key], w)
        kind = classify(fit, match.r, cfg, window_scale=scale_of(w))
        useful, predicted = assess_usefulness(match, collection, cfg, fit)
        if useful:
            note = (f"donor {match.donor_id!r} has observations "
                    f"{match.end + 1}..{match.end + cfg.horizon}")
        else:
            note = (f"donor {match.donor_id!r} observations "
                    f"{match.end + 1}..{match.end + cfg.horizon} are not available")
        reasoned.append(ReasonedMatch(match, fit, kind, useful, predicted, note))
    return reasoned


def tally(reasoned) -> tuple[dict[ReasonKind, int], int]:
    """Counts by kind plus the number of useful matches, for summaries."""
    kinds: dict[ReasonKind, int] = {}
    useful = 0
    for rm in reasoned:
        kinds[rm.kind] = kinds.get(rm.kind, 0) + 1
        useful += rm.useful
    return kinds, useful
