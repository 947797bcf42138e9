"""Explain matches and judge whether they can be exploited.

Each match gets a least-squares affine fit of the donor window against the
query segment; the (slope, intercept, residual) triple classifies the leak
as an exact copy, an added constant, a scaling, a general affine image, a
negative-slope image, or merely high correlation. A match is exploitable
("useful") exactly when the donor continues far enough past the matched
window to cover the query's forecast horizon; in that case the donor
continuation, mapped back through the inverse transform, is the predicted
test segment of the query series.

``reason_report`` fits all matches of one query segment together: their
donor windows are stacked into a (k, h) block, each row is centred once,
and every slope, intercept, residual and window scale is an array
operation over the block. ``fit_affine`` is the one-row case of the same
code. Each row gets the bits a fit of its match alone would get: the
reductions run along the last axis of each row, and the cross term is a
matmul of each row with the query, which gives the bits of the dot
product ``qc @ wc``; a row sum would not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress

import numpy as np

from .collection import SeriesCollection
from .corr import MIN_WINDOW, centre
from .errors import ConfigError, ConsistencyError, ContractViolation
from .scan import LeakReport, MatchRecord, _is_int


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


# classify compares the slope against 1 within SLOPE_TOL; INTERCEPT_TOL and
# AFFINE_TOL are relative to scale(w) = max|w|, so the kinds do not depend
# on the units of the series
SLOPE_TOL = 1e-8
INTERCEPT_TOL = 1e-8
AFFINE_TOL = 1e-8


@dataclass(frozen=True)
class ReasonConfig:
    """The forecast horizon of the usefulness check.

    horizon=None means "use the scan's segment length h", which is how
    every worked example sets it.
    """

    horizon: int | None = None

    def __post_init__(self):
        if self.horizon is not None and (not _is_int(self.horizon) or self.horizon < 1):
            raise ConfigError(f"horizon must be >= 1 and an integer, got {self.horizon!r}")


@dataclass(frozen=True)
class ReasonedMatch:
    base: MatchRecord
    fit: AffineFit
    kind: ReasonKind
    useful: bool
    predicted_test: list | None  # present iff useful
    provenance_note: str


def scale_of(w):
    """max|w| of a window, or of each row of a block of windows.

    A matched window is never constant, so this is never zero.
    """
    return np.abs(w).max(axis=-1)


def resolve_horizon(horizon: int | None, h: int) -> int:
    """The forecast horizon, which defaults to the scan's segment length h."""
    return h if horizon is None else horizon


def _pair(match: MatchRecord) -> str:
    return f"match {match.query_id!r} -> {match.donor_id!r}"


def _matched(match: MatchRecord, collection: SeriesCollection):
    """The query segment, the donor series and the donor window of a match.

    Raises ConsistencyError when the match names a series that is not in
    the collection, does not cover a window of at least MIN_WINDOW
    observations from position 1 on, or is longer than its query series
    or ends past the end of its donor.
    """
    for sid in (match.query_id, match.donor_id):
        if sid not in collection:
            raise ConsistencyError(f"{_pair(match)} refers to unknown series {sid!r}")
    h = match.end - match.start + 1
    if match.start < 1 or h < MIN_WINDOW:
        raise ConsistencyError(f"{_pair(match)} covers {match.start}..{match.end}, not a window of "
                               f"at least {MIN_WINDOW} observations")
    query, donor = collection.get(match.query_id).values, collection.get(match.donor_id)
    if h > len(query):
        raise ConsistencyError(f"{_pair(match)} spans {h} observations, "
                               f"query series has {len(query)}")
    if match.end > len(donor.values):
        raise ConsistencyError(f"match into {match.donor_id!r} ends at {match.end}, "
                               f"series has {len(donor.values)} observations")
    return query[-h:], donor, donor.values[match.start - 1:match.end]


def _query_terms(q):
    """The query side of a fit, which every match of a query shares."""
    q = np.asarray(q, dtype=np.float64)
    if len(q) < 2 or np.all(q == q[0]):
        raise ContractViolation("query segment has zero variance")
    qc, q_exp = centre(q)
    return q, qc, q_exp, qc @ qc, q.mean()


def _fit_rows(terms, windows):
    """Fit each row w of the (k, h) block ``windows`` as w ~ m*q + c.

    Returns the arrays (m, c, max_residual), one value per row.
    """
    q, qc, q_exp, q_css, q_mean = terms
    if windows.shape[1] != len(q):
        raise ContractViolation(f"length mismatch: {len(q)} vs {windows.shape[1]}")
    wc, w_exp = centre(windows)
    cross = np.matmul(wc[:, None, :], qc[:, None])[:, 0, 0]
    m = np.ldexp(cross / q_css, w_exp - q_exp)
    c = windows.mean(axis=1) - m * q_mean
    max_residual = np.abs(windows - (m[:, None] * q + c[:, None])).max(axis=1)
    return m, c, max_residual


def fit_affine(q, w) -> AffineFit:
    """Fit the matched window against the query: m = cov(q,w)/var(q)."""
    w = np.asarray(w, dtype=np.float64).reshape(1, -1)
    return AffineFit(*(float(v[0]) for v in _fit_rows(_query_terms(q), w)))


def classify(fit: AffineFit, *, window_scale: float) -> ReasonKind:
    """Total classification of a fit into exactly one ReasonKind.

    ``window_scale`` is max|w| of the matched window. Whenever the match
    correlation |r| is 1 the residual is negligible and one of the affine
    kinds applies, so the residual branch below is only reachable for
    cutoffs below 1.
    """
    if fit.max_residual > AFFINE_TOL * window_scale:
        return ReasonKind.HIGH_CORRELATION_ONLY
    slope_is_one = abs(fit.m - 1.0) <= SLOPE_TOL
    intercept_is_zero = abs(fit.c) <= INTERCEPT_TOL * window_scale
    if slope_is_one and intercept_is_zero:
        return ReasonKind.EXACT_MATCH
    if slope_is_one:
        return ReasonKind.ADD_CONSTANT
    if fit.m < 0.0:
        return ReasonKind.NEGATIVE_AFFINE
    if intercept_is_zero:
        return ReasonKind.MULTIPLY_CONSTANT
    return ReasonKind.AFFINE_TRANSFORM


def _is_useful(match: MatchRecord, donor, horizon: int) -> bool:
    # pure index arithmetic: the donor continues for the whole horizon
    return match.end + horizon <= len(donor.values)


def _predictions(matches, donors, horizon: int, m, c) -> list[list]:
    """The predicted test segment of each useful match from the m and c of
    its fit, as ``assess_usefulness`` describes it."""
    if not matches:
        return []
    continuations = np.stack([donor.values[match.end:match.end + horizon]
                              for match, donor in zip(matches, donors)])
    rows = ((continuations - c[:, None]) / m[:, None]).tolist()
    for match, donor, row in zip(matches, donors, rows):
        for p in donor.missing:
            if match.end <= p < match.end + horizon:
                row[p - match.end] = None
    return rows


def assess_usefulness(match: MatchRecord, collection: SeriesCollection, cfg: ReasonConfig):
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
    if not _is_useful(match, donor, horizon):
        return False, None
    fit = fit_affine(q, w)
    return True, _predictions([match], [donor], horizon, np.array([fit.m]), np.array([fit.c]))[0]


def _reason_block(matches, located, cfg: ReasonConfig) -> list[ReasonedMatch]:
    """Explain the matches of one query segment, given what ``_matched``
    found for each, with one fit over the block of their windows."""
    windows = np.stack([w for _, _, w in located])
    donors = [donor for _, donor, _ in located]
    m, c, max_residual = _fit_rows(_query_terms(located[0][0]), windows)
    useful = [_is_useful(match, donor, cfg.horizon) for match, donor in zip(matches, donors)]
    mask = np.array(useful, dtype=bool)
    predicted = iter(_predictions(list(compress(matches, useful)), list(compress(donors, useful)),
                                  cfg.horizon, m[mask], c[mask]))
    reasoned = []
    for match, fit_m, fit_c, residual, scale, is_useful in zip(
            matches, m.tolist(), c.tolist(), max_residual.tolist(), scale_of(windows).tolist(), useful):
        fit = AffineFit(fit_m, fit_c, residual)
        if is_useful:
            note = (f"donor {match.donor_id!r} has observations "
                    f"{match.end + 1}..{match.end + cfg.horizon}")
        else:
            note = (f"donor {match.donor_id!r} observations "
                    f"{match.end + 1}..{match.end + cfg.horizon} are not available")
        reasoned.append(ReasonedMatch(match, fit, classify(fit, window_scale=scale),
                                      is_useful, next(predicted) if is_useful else None, note))
    return reasoned


def reason_report(report: LeakReport, collection: SeriesCollection,
                  cfg: ReasonConfig = ReasonConfig()) -> list[ReasonedMatch]:
    """Explain every match in the report, preserving report order.

    The matches of each query segment, keyed by query id and span, are
    fitted as one block.
    """
    cfg = replace(cfg, horizon=resolve_horizon(cfg.horizon, report.config.h))
    located = [_matched(match, collection) for match in report.matches]
    blocks: dict[tuple[str, int], list[int]] = {}  # (query id, span) -> report positions
    for i, match in enumerate(report.matches):
        blocks.setdefault((match.query_id, match.end - match.start + 1), []).append(i)
    reasoned: list = [None] * len(located)
    for positions in blocks.values():
        explained = _reason_block([report.matches[i] for i in positions],
                                  [located[i] for i in positions], cfg)
        for i, rm in zip(positions, explained):
            reasoned[i] = rm
    return reasoned


def tally(reasoned) -> tuple[dict[ReasonKind, int], int]:
    """Counts by kind plus the number of useful matches, for summaries."""
    kinds: dict[ReasonKind, int] = {}
    useful = 0
    for rm in reasoned:
        kinds[rm.kind] = kinds.get(rm.kind, 0) + 1
        useful += rm.useful
    return kinds, useful
