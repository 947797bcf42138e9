"""Full-collection leak scan.

For every series the terminal length-h segment of its training part is
taken as the query and swept across every series in the collection
(including its own, which picks up repeating-pattern leaks). Offsets whose
absolute correlation clears the cutoff become matches; the single trivial
hit of a query against its own terminal position is removed.

The sweep reads all series laid end to end, in chunks of consecutive
windows, and returns the r of each kept window against every query; so a
chunk holds at most min(GROUP_WINDOWS, GROUP_VALUES // queries) windows,
which bounds its memory however long a series. The match set and every r
are those of an exhaustive sweep of each donor on its own. ``_locate``, the
record check of ``reasons`` and ``report.build_matrix``, is here so that
``viz`` never compiles ``reasons``.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .collection import MAX_LENGTH, SeriesCollection, _gather, _is_int, _is_real
from .corr import MIN_WINDOW, query_block, sliding_correlations
from .errors import ConfigError, ConsistencyError, ContractViolation

TOO_SHORT = "too-short"
ZERO_VARIANCE_QUERY = "zero-variance-query"
MISSING_IN_QUERY = "missing-in-query"
_SKIPS = (None, TOO_SHORT, MISSING_IN_QUERY, ZERO_VARIANCE_QUERY)

AUTO = "auto"

# |r| >= cutoff - CUTOFF_TOLERANCE counts as a match: the tolerance keeps
# exact copies detectable at cutoff=1 despite floating-point roundoff
CUTOFF_TOLERANCE = 1e-10

# the columns of no hits, which seed each concatenation of hits
_NO_HITS = (np.zeros(0, dtype=int),) * 3 + (np.zeros(0),)

GROUP_WINDOWS = 1 << 14
GROUP_VALUES = 1 << 20


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters: segment length, correlation cutoff, worker count.

    A window matches when |r| >= cutoff - CUTOFF_TOLERANCE, so the cutoff
    must be a real number in (0,1] that exceeds CUTOFF_TOLERANCE.
    """

    h: int
    cutoff: float = 1.0
    workers: int | str = 1

    def __post_init__(self):
        if not _is_int(self.h) or self.h < MIN_WINDOW:
            raise ConfigError(f"h must be an integer >= {MIN_WINDOW}, got {self.h!r}")
        if self.h > MAX_LENGTH:
            raise ConfigError(f"h must be at most {MAX_LENGTH}, got {self.h!r}")
        object.__setattr__(self, "h", int(self.h))  # a numpy integer is written as an int
        if not _is_real(self.cutoff):
            raise ConfigError(f"cutoff must be a real number, got {self.cutoff!r}")
        if not 0.0 < self.cutoff <= 1.0:
            raise ConfigError("cutoff must be in (0,1]")
        if self.cutoff <= CUTOFF_TOLERANCE:
            raise ConfigError(f"cutoff must exceed CUTOFF_TOLERANCE = {CUTOFF_TOLERANCE:g}")
        # the Python int or float of its value, which json can write (1 stays 1)
        object.__setattr__(self, "cutoff", int(self.cutoff) if _is_int(self.cutoff) else float(self.cutoff))
        if self.workers != AUTO and (not _is_int(self.workers) or self.workers < 1):
            raise ConfigError(f"workers must be a positive integer or {AUTO!r}, got {self.workers!r}")

    @property
    def threshold(self) -> float:
        return self.cutoff - CUTOFF_TOLERANCE

    def resolved_workers(self) -> int:
        if self.workers != AUTO:
            return self.workers
        # the CPUs this process may run on, which taskset or a cpuset can make fewer than the host's
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# the kind a field of a record or skip must be, as errors name it, and its
# check; a field not named here must be a str
_REAL = ("a real number", _is_real)
_FIELDS = {"start": ("an integer", _is_int), "end": ("an integer", _is_int), "r": _REAL}
_STR = ("a string", lambda value: isinstance(value, str))


def _check_fields(owner, kinds=_FIELDS, /, **fields):
    """ConsistencyError for the first field whose value is not of the kind
    that ``kinds`` names for it."""
    for key, value in fields.items():
        kind, is_kind = kinds.get(key, _STR)
        if not is_kind(value):
            raise ConsistencyError(f"{owner} {key} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class MatchRecord:
    """One detected leak: where a query segment reappears inside a donor."""

    query_id: str
    donor_id: str
    start: int  # 1-based, inclusive
    end: int    # start + h - 1
    r: float


ROWS_PER_CHUNK = 256  # rows a table builds, and a writer formats, at a time


class Table(Sequence):
    """A read-only sequence of rows kept as equal-length columns, which
    ``columns(lo, hi)`` gives as Python lists for rows lo..hi-1. Rows are
    built only when asked for, a chunk at a time. A table compares, adds
    and slices as the list of its rows."""

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(len(self))[i]
        return self._rows(i, i + 1)[0]

    def __iter__(self):
        for lo, hi in self.chunks():
            yield from self._rows(lo, hi)

    def chunks(self):
        """The (lo, hi) bounds of the chunks of rows built and written at a time."""
        return ((lo, min(lo + ROWS_PER_CHUNK, len(self))) for lo in range(0, len(self), ROWS_PER_CHUNK))

    def __eq__(self, other):
        return list(self) == other

    def __add__(self, other):
        return list(self) + list(other)


class MatchTable(Table):
    """Matches as columns: the ids they name, and per match the index of its
    query and donor in ``ids``, its start, end and r. Rows: MatchRecords."""

    def __init__(self, ids, qi, di, start, end, r):
        self.ids, self.qi, self.di, self.start, self.end, self.r = ids, qi, di, start, end, r

    @classmethod
    def from_rows(cls, records):
        """The table of a sequence of MatchRecords (each distinct id kept once),
        or a table as it is. ConsistencyError for the first record whose ids are
        not str, start or end not an integer, or r not real (a bool is neither)."""
        if isinstance(records, MatchTable):
            return records
        records, index = list(records), {}
        for m in records:
            _check_fields("match", **vars(m))
        qi = [index.setdefault(m.query_id, len(index)) for m in records]
        di = [index.setdefault(m.donor_id, len(index)) for m in records]
        # ints beyond int64 make an object array, which keeps their values; an
        # empty list would make floats
        dtype = None if records else int
        start, end = np.array([m.start for m in records], dtype), np.array([m.end for m in records], dtype)
        return cls(list(index), np.array(qi, dtype=int), np.array(di, dtype=int), start, end,
                   np.array([m.r for m in records], dtype=float))

    def __len__(self):
        return len(self.r)

    def columns(self, lo, hi, ids=None):
        """query ids, donor ids, start, end and r of rows lo..hi-1; ``ids``, in
        place of the table's own, gives the text of each id."""
        ids = self.ids if ids is None else ids
        return ([ids[i] for i in self.qi[lo:hi].tolist()], [ids[i] for i in self.di[lo:hi].tolist()],
                self.start[lo:hi].tolist(), self.end[lo:hi].tolist(), self.r[lo:hi].tolist())

    def _rows(self, lo, hi):
        return [MatchRecord(*row) for row in zip(*self.columns(lo, hi))]


@dataclass
class LeakReport:
    """Scan output: matches grouped by query in collection order, plus the
    queries that could not be scanned at all. ``matches`` is given as a
    MatchTable or any sequence of MatchRecords and held as a MatchTable.
    ConsistencyError for a record that ``MatchTable.from_rows`` rejects or
    a skipped (id, reason) that is not two str."""

    config: ScanConfig
    matches: Sequence[MatchRecord]
    skipped_queries: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        self.matches = MatchTable.from_rows(self.matches)
        for sid, reason in self.skipped_queries:
            _check_fields("skipped query", id=sid, reason=reason)


def _locate(matches: MatchTable, collection: SeriesCollection):
    """The query index, donor index, start and end of each match as arrays,
    then the collection's ``_layout``. Each match must name a window of at
    least MIN_WINDOW values of its donor and, as long, the last values of
    its query, both series of the collection, with no missing value in
    either. The first in report order that does not raises ConsistencyError
    with the message of its first failed check.
    """
    flat, first, lengths, _ = layout = collection._layout()
    first, lengths = np.r_[first, len(flat)], np.r_[lengths, 0]  # what index -1, an unknown id, picks
    index = np.array([collection._index.get(sid, -1) for sid in matches.ids], dtype=int)
    qi, di, start, end = index[matches.qi], index[matches.di], matches.start, matches.end
    span = end - start + 1
    # the bounds of each donor window and query segment in ``flat``, clipped for the
    # records an earlier check fails (only those reach a separator); an int cast, as
    # an empty match list and ints beyond int64 make float and object arrays
    query_end = first[qi] + lengths[qi]
    bounds = np.clip([first[di] + start - 1, first[di] + end, query_end - span, query_end],
                     0, len(flat)).astype(int)
    before = np.searchsorted(collection._gap_positions(), bounds)  # gaps before each bound
    checks = (qi < 0, di < 0, (start < 1) | (span < MIN_WINDOW), span > lengths[qi], end > lengths[di],
              before[1] > before[0], before[3] > before[2])
    failing = np.logical_or.reduce(checks)
    if failing.any():
        i = int(np.argmax(failing))
        match = matches[i]
        pair = f"match {match.query_id!r} -> {match.donor_id!r}"
        messages = (
            f"{pair} refers to unknown series {match.query_id!r}",
            f"{pair} refers to unknown series {match.donor_id!r}",
            f"{pair} covers {match.start}..{match.end}, not a window of at least {MIN_WINDOW} observations",
            f"{pair} spans {span[i]} observations, query series has {lengths[qi[i]]}",
            f"match into {match.donor_id!r} ends at {match.end}, series has {lengths[di[i]]} observations",
            f"{pair} window {match.start}..{match.end} covers a missing value of {match.donor_id!r}",
            f"{pair} query segment, the last {span[i]} observations of {match.query_id!r}, "
            "covers a missing value",
        )
        raise ConsistencyError(next(text for text, check in zip(messages, checks) if check[i]))
    return qi, di, start, end, layout


def _scan_block(layout, cfg, query_of):
    """The hits of the scannable queries ``query_of`` of the collection's ``layout``
    as arrays of query index, donor index, start and r, in (query, donor, offset) order."""
    h = cfg.h
    flat, first, lengths, gaps = layout
    queries = query_block(_gather(flat, first[query_of] + lengths[query_of] - h, h))
    step = max(1, min(GROUP_WINDOWS, GROUP_VALUES // len(query_of)))
    found = [_NO_HITS]
    for lo in range(0, len(flat) - h + 1, step):  # a chunk of step windows, starting at lo
        hi = min(lo + step + h - 1, len(flat))
        profile = sliding_correlations(queries, flat[lo:hi], h, missing=np.flatnonzero(gaps[lo:hi]),
                                       threshold=cfg.threshold)
        rows, cols = np.nonzero(np.abs(profile.r_values) >= cfg.threshold)
        at = lo + profile.offsets[rows] - 1  # each hit's first position in flat
        donor = np.searchsorted(first, at, side="right") - 1
        starts = at - first[donor] + 1
        # the query trivially matches its own terminal position
        keep = (query_of[cols] != donor) | (starts != lengths[donor] - h + 1)
        found.append((query_of[cols[keep]], donor[keep], starts[keep],
                      profile.r_values[rows[keep], cols[keep]]))
    qs, ds, starts, rs = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((starts, ds, qs))
    return qs[order], ds[order], starts[order], rs[order]


def scan(collection: SeriesCollection, cfg: ScanConfig) -> LeakReport:
    """Run the leak scan over the whole collection.

    The scannable queries are split into min(workers, scannable) contiguous
    blocks, each scanned by a worker process when there are two or more;
    the output is identical for every worker count because the blocks are
    merged back in collection order.
    """
    if len(collection) == 0:
        raise ContractViolation("empty collection")
    layout = flat, first, lengths, gaps = collection._layout()
    # each query's skip, an index in _SKIPS: fewer than h values, a gap among them, or all of them equal
    at = (first + lengths - cfg.h)[lengths >= cfg.h]  # the first position of each query of h values
    tails, holes = _gather(flat, at, cfg.h), _gather(gaps, at, cfg.h)
    skips = np.ones(len(lengths), dtype=int)
    skips[lengths >= cfg.h] = np.select([holes.any(1), (tails == tails[:, :1]).all(1)], [2, 3])
    skipped = [(sid, _SKIPS[code]) for sid, code in zip(collection.ids(), skips.tolist()) if code]
    scannable = np.flatnonzero(skips == 0)
    workers = min(cfg.resolved_workers(), len(scannable))
    blocks = np.array_split(scannable, workers) if workers else []
    scan_block = partial(_scan_block, layout, cfg)
    if len(blocks) < 2:
        per_block = list(map(scan_block, blocks))
    else:
        # imported here: it loads multiprocessing, which a one-block run never needs
        from concurrent.futures import ProcessPoolExecutor

        # one task per worker, so each worker unpickles the layout once
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_block = list(pool.map(scan_block, blocks))
    qi, di, start, r = (np.concatenate(column) for column in zip(_NO_HITS, *per_block))
    return LeakReport(cfg, MatchTable(collection.ids(), qi, di, start, start + cfg.h - 1, r), skipped)
