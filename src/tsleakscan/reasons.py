"""Explain matches and judge whether they can be exploited.

Each match gets a least-squares affine fit of the donor window against the
query segment; the (slope, intercept, residual) triple classifies the leak
as an exact copy, an added constant, a scaling, a general affine image, a
negative-slope image, or merely high correlation. A match is exploitable
("useful") exactly when the donor continues far enough past the matched
window to cover the query's forecast horizon; in that case the donor
continuation, mapped back through the inverse transform, is the predicted
test segment of the query series.

``reason_report`` works in two passes over the whole report. First it
checks every match at once, with array comparisons, for what ``_matched``
checks of one: both ids name series of the collection, the window starts
at position 1 or later, spans at least MIN_WINDOW observations, is no
longer than its query series and ends within its donor. Only when a check
fails does it call ``_matched``, in report order, which raises the error
of the first failing match. Then it fits all matches of one query segment
together: their donor windows are gathered into a (k, h) block by one
fancy index into the collection's values laid end to end, each row is
centred once, and every slope, intercept, residual and window scale is an
array operation over the block. The continuations of every useful match
are one more fancy index. ``fit_affine`` is the one-row case of the same
fit. Each row gets the bits a fit of its match alone would get: the
reductions run along the last axis of each row, and the cross term is a
matmul of each row with the query, which gives the bits of the dot
product ``qc @ wc``; a row sum would not.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


def _predictions(continuations, missing, m, c) -> list[list]:
    """The predicted test segment of each row of the (k, horizon) block of
    donor continuations, from the m and c of its fit, as
    ``assess_usefulness`` describes it; None where ``missing`` is set."""
    rows = ((continuations - c[:, None]) / m[:, None]).tolist()
    for i, j in zip(*np.nonzero(missing)):
        rows[i][j] = None
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
    if match.end + horizon > len(donor.values):
        return False, None
    fit = fit_affine(q, w)
    after = np.arange(match.end, match.end + horizon)  # 0-based continuation positions
    return True, _predictions(donor.values[after][None], np.isin(after, donor.missing)[None],
                              np.array([fit.m]), np.array([fit.c]))[0]


def _gather(flat, first, width):
    """The (k, width) block of ``flat[first[i]:first[i] + width]`` rows."""
    return flat[first[:, None] + np.arange(width)]


def _locate(matches, collection: SeriesCollection):
    """The series lengths, and the query index, donor index, start and end
    of each match, as arrays, once every match passes ``_matched``'s checks.

    The checks run on all matches at once; when one fails, ``_matched``
    raises the error of the first failing match in report order.
    """
    index = {s.id: i for i, s in enumerate(collection.entries)}
    # an unknown id gets index -1, which picks the sentinel length 0
    lengths = np.array([len(s.values) for s in collection.entries] + [0])
    qi = np.array([index.get(m.query_id, -1) for m in matches])
    di = np.array([index.get(m.donor_id, -1) for m in matches])
    start = np.array([m.start for m in matches])
    end = np.array([m.end for m in matches])
    span = end - start + 1
    valid = ((qi >= 0) & (di >= 0) & (start >= 1) & (span >= MIN_WINDOW)
             & (span <= lengths[qi]) & (end <= lengths[di]))
    for i in np.flatnonzero(~valid):
        _matched(matches[i], collection)  # raises
    return lengths[:-1], qi, di, start, end


def reason_report(report: LeakReport, collection: SeriesCollection,
                  cfg: ReasonConfig = ReasonConfig()) -> list[ReasonedMatch]:
    """Explain every match in the report, preserving report order.

    Raises ``_matched``'s ConsistencyError for the first malformed match in
    report order. The matches of each query segment, keyed by query id and
    span, are fitted as one block (see the module docstring).
    """
    horizon = resolve_horizon(cfg.horizon, report.config.h)
    matches = report.matches
    if not matches:
        return []
    entries = collection.entries
    lengths, qi, di, start, end = _locate(matches, collection)
    span = end - start + 1
    flat = np.concatenate([s.values for s in entries])
    first = np.cumsum(lengths) - lengths  # of each series in ``flat``
    window_first = first[di] + start - 1
    m, c, max_residual, scale = (np.empty(len(matches)) for _ in range(4))
    order = np.lexsort((span, qi))  # stable: each block in report order
    bounds = np.flatnonzero(np.diff(qi[order]) | np.diff(span[order])) + 1
    for block in np.split(order, bounds):
        q, h = entries[qi[block[0]]], span[block[0]]
        windows = _gather(flat, window_first[block], h)
        m[block], c[block], max_residual[block] = _fit_rows(_query_terms(q.values[-h:]), windows)
        scale[block] = scale_of(windows)

    useful = end + horizon <= lengths[di]
    continuation_first = first[di[useful]] + end[useful]
    missing = np.zeros(len(flat), dtype=bool)
    missing[[first[i] + p for i, s in enumerate(entries) for p in s.missing]] = True
    predicted = iter(_predictions(_gather(flat, continuation_first, horizon),
                                  _gather(missing, continuation_first, horizon),
                                  m[useful], c[useful]))
    reasoned = []
    for match, fit_m, fit_c, residual, window_scale, is_useful in zip(
            matches, m.tolist(), c.tolist(), max_residual.tolist(), scale.tolist(), useful.tolist()):
        fit = AffineFit(fit_m, fit_c, residual)
        if is_useful:
            note = (f"donor {match.donor_id!r} has observations "
                    f"{match.end + 1}..{match.end + horizon}")
        else:
            note = (f"donor {match.donor_id!r} observations "
                    f"{match.end + 1}..{match.end + horizon} are not available")
        reasoned.append(ReasonedMatch(match, fit, classify(fit, window_scale=window_scale),
                                      is_useful, next(predicted) if is_useful else None, note))
    return reasoned


def tally(reasoned) -> tuple[dict[ReasonKind, int], int]:
    """Counts by kind plus the number of useful matches, for summaries."""
    kinds: dict[ReasonKind, int] = {}
    useful = 0
    for rm in reasoned:
        kinds[rm.kind] = kinds.get(rm.kind, 0) + 1
        useful += rm.useful
    return kinds, useful
