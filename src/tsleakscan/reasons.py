"""Explain matches and judge whether they can be exploited.

Each match gets a least-squares affine fit of the donor window against the
query segment, whose slope, intercept and residual classify the leak
(``ReasonKind``). A match is exploitable ("useful") exactly when the donor
continues past the matched window for the query's forecast horizon; the
continuation, mapped back through the inverse transform, is then the
predicted test segment of the query series.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .collection import MAX_LENGTH, SeriesCollection, _gather, _is_int, _is_real
from .corr import centre, scale_of
from .errors import ConfigError, ConsistencyError, ContractViolation
from .scan import _REAL, LeakReport, MatchRecord, MatchTable, Table, _check_fields, _locate


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
        if self.horizon is not None:
            if not _is_int(self.horizon) or self.horizon < 1:
                raise ConfigError(f"horizon must be >= 1 and an integer, got {self.horizon!r}")
            if self.horizon > MAX_LENGTH:
                raise ConfigError(f"horizon must be at most {MAX_LENGTH}, got {self.horizon!r}")
            object.__setattr__(self, "horizon", int(self.horizon))  # a numpy integer is written as an int


@dataclass(frozen=True)
class ReasonedMatch:
    base: MatchRecord
    fit: AffineFit
    kind: ReasonKind
    useful: bool
    predicted_test: list | None  # present iff useful


_KINDS = list(ReasonKind)  # a kind code is the position of its kind here
_KIND_TEXTS = [kind.value for kind in _KINDS]  # the text of each kind code, as reports and stdout write it

# the kind each field of a ReasonedMatch beyond its record must be, and its check
_FIELDS = {
    "m": _REAL, "c": _REAL, "max_residual": _REAL,
    "kind": ("a ReasonKind", lambda value: isinstance(value, ReasonKind)),
    "useful": ("a bool", lambda value: isinstance(value, (bool, np.bool_))),
    "predicted_test": ("a list of real numbers and None",
                       lambda values: all(v is None or _is_real(v) for v in values or ())),
}


class ReasonTable(Table):
    """The explanations of the matches of the MatchTable ``base`` as columns:
    per match m, c, max_residual, a kind code and useful, and for the useful
    ones in order a (useful, horizon) block of predicted values with its
    mask of missing ones. Rows: ReasonedMatches."""

    def __init__(self, base, m, c, max_residual, kind, useful, predicted, missing):
        self.base, self.m, self.c, self.max_residual = base, m, c, max_residual
        self.kind, self.useful, self.predicted, self.missing = kind, useful, predicted, missing
        self.horizon = predicted.shape[1]

    @classmethod
    def from_rows(cls, rows):
        """The table of a sequence of ReasonedMatches. ConsistencyError for the
        first whose m, c or max_residual is not real, kind not a ReasonKind,
        useful not a bool or, when useful, a predicted value neither real nor
        None, or unless the useful ones all predict as many values."""
        if isinstance(rows, ReasonTable):
            return rows
        rows = list(rows)
        for rm in rows:
            _check_fields("reasoned match", _FIELDS, **vars(rm.fit), kind=rm.kind, useful=rm.useful,
                          predicted_test=rm.predicted_test if rm.useful else None)
        predicted = [rm.predicted_test or () for rm in rows if rm.useful]
        shape = (len(predicted), len(predicted[0]) if predicted else 0)
        if any(len(p) != shape[1] for p in predicted):
            raise ConsistencyError("useful matches predict different numbers of values")
        fits = np.array([(rm.fit.m, rm.fit.c, rm.fit.max_residual) for rm in rows], dtype=float)
        return cls(MatchTable.from_rows([rm.base for rm in rows]), *fits.reshape(-1, 3).T,
                   np.array([_KINDS.index(rm.kind) for rm in rows], dtype=np.int8),
                   np.array([bool(rm.useful) for rm in rows], dtype=bool),
                   np.array([[np.nan if v is None else v for v in p] for p in predicted]).reshape(shape),
                   np.array([[v is None for v in p] for p in predicted], dtype=bool).reshape(shape))

    def __len__(self):
        return len(self.useful)

    def columns(self, lo, hi):
        """kinds, m, c, max_residual, useful and predicted (a list of floats,
        with None where missing, or None when not useful) of rows lo..hi-1."""
        return ([_KINDS[k] for k in self.kind[lo:hi].tolist()], self.m[lo:hi].tolist(),
                self.c[lo:hi].tolist(), self.max_residual[lo:hi].tolist(), self.useful[lo:hi].tolist(),
                self.render_predicted(lo, hi, list, None))

    def kind_texts(self, lo, hi) -> list:
        """The text of the kind of rows lo..hi-1, as reports and stdout write it."""
        return [_KIND_TEXTS[k] for k in self.kind[lo:hi].tolist()]

    def render_predicted(self, lo, hi, convert, missing):
        """The one renderer of the predicted block: per row lo..hi-1, None
        when it is not useful, else a list of its predicted values,
        ``convert`` of them all as one list of floats, with ``missing`` in
        place of a missing one."""
        useful = self.useful[lo:hi]
        first = np.count_nonzero(self.useful[:lo])
        rows = slice(first, first + np.count_nonzero(useful))
        values = convert(self.predicted[rows].ravel().tolist())
        for i in np.flatnonzero(self.missing[rows]).tolist():
            values[i] = missing
        width = self.horizon
        lists = iter([values[i * width:(i + 1) * width] for i in range(rows.stop - rows.start)])
        return [next(lists) if u else None for u in useful.tolist()]

    def _rows(self, lo, hi):
        return [ReasonedMatch(MatchRecord(*row[:5]), AffineFit(*row[6:9]), row[5], row[9], row[10])
                for row in zip(*self.base.columns(lo, hi), *self.columns(lo, hi))]

    def take(self, index, base):
        """The explanations of the rows ``index`` selects, of the matches of ``base``."""
        rows = (np.cumsum(self.useful) - 1)[index[self.useful[index]]]
        return ReasonTable(base, self.m[index], self.c[index], self.max_residual[index],
                           self.kind[index], self.useful[index], self.predicted[rows], self.missing[rows])


def _fit_rows(q, windows):
    """Fit each row w of the (k, h) block ``windows`` as w ~ m*q + c.

    Returns the arrays (m, c, max_residual), one value per row, each with
    the bits a fit of its row alone would get: the reductions run along the
    last axis of each row, and the cross term is a matmul of each row with
    the query, which gives the bits of the dot product ``qc @ wc``; a row
    sum would not.
    """
    q = np.asarray(q, dtype=np.float64)
    if len(q) < 2 or np.all(q == q[0]):
        raise ContractViolation("query segment has zero variance")
    if windows.shape[1] != len(q):
        raise ContractViolation(f"length mismatch: {len(q)} vs {windows.shape[1]}")
    qc, q_exp = centre(q)
    wc, w_exp = centre(windows)
    cross = np.matmul(wc[:, None, :], qc[:, None])[:, 0, 0]
    m = np.ldexp(cross / (qc @ qc), w_exp - q_exp)
    c = windows.mean(axis=1) - m * q.mean()
    max_residual = np.abs(windows - (m[:, None] * q + c[:, None])).max(axis=1)
    return m, c, max_residual


def fit_affine(q, w) -> AffineFit:
    """Fit the matched window against the query: m = cov(q,w)/var(q)."""
    w = np.asarray(w, dtype=np.float64).reshape(1, -1)
    return AffineFit(*(float(v[0]) for v in _fit_rows(q, w)))


def classify(fit: AffineFit, *, window_scale: float) -> ReasonKind:
    """Total classification of a fit into exactly one ReasonKind.

    ``window_scale`` is max|w| of the matched window. Whenever the match
    correlation |r| is 1 the residual is negligible and one of the affine
    kinds applies, so the residual branch of ``_kind_codes`` is only
    reachable for cutoffs below 1.
    """
    return _KINDS[_kind_codes(*np.float64([fit.m, fit.c, fit.max_residual, window_scale]))]


def _kind_codes(m, c, max_residual, window_scale):
    """The kind code of each fit of arrays of fits, by float64 comparisons in
    this precedence: high-correlation-only, exact, add-constant, negative,
    multiply-constant, and affine for the rest."""
    slope_is_one = np.abs(m - 1.0) <= SLOPE_TOL
    intercept_is_zero = np.abs(c) <= INTERCEPT_TOL * window_scale
    return np.select([max_residual > AFFINE_TOL * window_scale, slope_is_one & intercept_is_zero,
                      slope_is_one, m < 0.0, intercept_is_zero], [5, 0, 1, 4, 2], 3).astype(np.int8)


def assess_usefulness(match: MatchRecord, collection: SeriesCollection, cfg: ReasonConfig):
    """Decide exploitability and build the predicted test segment.

    useful <=> end + horizon <= len(donor): pure index arithmetic. When
    useful, the donor continuation donor[end+1 .. end+horizon] is mapped
    through the inverse transform (v - c)/m onto the query series' scale;
    continuation positions that are missing in the donor come out as None.
    The match is explained as ``reason_report`` explains it, from the
    collection's layout, so its checks and errors are those of ``reason_report``.
    """
    if cfg.horizon is None:
        raise ConfigError("horizon not resolved; pass an explicit horizon")
    [reasoned] = _explain(MatchTable.from_rows([match]), collection, cfg.horizon)
    return reasoned.useful, reasoned.predicted_test


def reason_report(report: LeakReport, collection: SeriesCollection,
                  cfg: ReasonConfig = ReasonConfig()) -> ReasonTable:
    """Explain every match in the report, preserving report order.

    Raises ``_locate``'s ConsistencyError for the first malformed match in
    report order, and ConsistencyError for the first whose donor window or
    query segment is constant, as no scan's is. The matches of each query
    segment, keyed by query id and span, are fitted as one block.
    """
    # ReasonConfig rejects a horizon of 0, so ``or`` only replaces None
    return _explain(report.matches, collection, cfg.horizon or report.config.h)


def _explain(matches: MatchTable, collection: SeriesCollection, horizon: int) -> ReasonTable:
    """Explain each match, in order, with a continuation of ``horizon`` values."""
    qi, di, start, end, (flat, first, lengths, gaps) = _locate(matches, collection)
    span = end - start + 1
    m, c, max_residual, scale = (np.empty(len(matches)) for _ in range(4))
    constant = np.zeros(len(matches), dtype=bool)  # a donor window or query segment with no r
    order = np.lexsort((span, qi))  # stable: each block in report order
    bounds = np.flatnonzero(np.diff(qi[order]) | np.diff(span[order])) + 1
    for block in np.split(order, bounds) if len(order) else ():
        segment = collection.entries[qi[block[0]]].values[-span[block[0]]:]
        windows = _gather(flat, first[di[block]] + start[block] - 1, len(segment))
        constant[block] = (windows == windows[:, :1]).all(axis=1) | (segment == segment[0]).all()
        if not constant[block].any():
            m[block], c[block], max_residual[block] = _fit_rows(segment, windows)
            scale[block] = scale_of(windows)
    if constant.any():
        match = matches[i := int(np.argmax(constant))]
        segment = collection.entries[qi[i]].values[-span[i]:]
        what = (f"query segment, the last {span[i]} observations of {match.query_id!r},"
                if (segment == segment[0]).all() else f"window {match.start}..{match.end} of {match.donor_id!r}")
        raise ConsistencyError(f"match {match.query_id!r} -> {match.donor_id!r} {what} is constant")

    useful = end + horizon <= lengths[di]
    continuation_first = first[di[useful]] + end[useful]
    predicted = (_gather(flat, continuation_first, horizon) - c[useful, None]) / m[useful, None]
    return ReasonTable(matches, m, c, max_residual, _kind_codes(m, c, max_residual, scale), useful,
                       predicted, _gather(gaps, continuation_first, horizon))


def collapse_overlaps(matches):
    """Merge runs of consecutive offsets per (query, donor) into one range.

    Readability transform only: the merged record spans the first window's
    start to the last window's end (so end-start+1 exceeds h) and carries
    the r of the strongest member, the first of largest |r| as max() picks
    it. Input order is preserved. ``matches`` holds MatchRecords or
    ReasonedMatches, as a table or any sequence, and the result is their
    table; a merged ReasonedMatch is the explanation of the run's strongest
    member, with the merged record as its base (the overlapping hits of one
    run come from the same pattern).
    """
    if not isinstance(matches, Table):
        matches = list(matches)
        reasoned = matches and isinstance(matches[0], ReasonedMatch)
        matches = (ReasonTable if reasoned else MatchTable).from_rows(matches)
    table = matches.base if isinstance(matches, ReasonTable) else matches
    if not len(table):
        return matches
    qi, di, start = table.qi, table.di, table.start
    new_run = np.r_[True, (qi[1:] != qi[:-1]) | (di[1:] != di[:-1]) | (start[1:] != start[:-1] + 1)]
    first = np.flatnonzero(new_run)
    # max() keeps a run's first member when its |r| is NaN and passes over a
    # later NaN, which sorts last; lexsort keeps ties in report order
    strength = np.abs(table.r)
    strength[first] = np.where(np.isnan(strength[first]), np.inf, strength[first])
    best = np.lexsort((-strength, np.cumsum(new_run)))[first]
    merged = MatchTable(table.ids, qi[first], di[first], start[first],
                        table.end[np.r_[first[1:], len(table)] - 1], table.r[best])
    return matches.take(best, merged) if isinstance(matches, ReasonTable) else merged


def tally(reasoned) -> tuple[Counter, int]:
    """Counts by kind plus the number of useful matches, for summaries."""
    table = ReasonTable.from_rows(reasoned)
    counts = np.bincount(table.kind, minlength=len(_KINDS)).tolist()
    return Counter({kind: n for kind, n in zip(_KINDS, counts) if n}), int(table.useful.sum())
