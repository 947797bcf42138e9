"""Seeded workloads with planted leaks whose truth stays with the benchmark.

Each generator draws a whole collection from ``--seed`` and records what it
planted. The program under test only ever sees the written input file.

Every source series is drawn ``horizon`` values longer than it appears in
the collection; those last values are its hidden test segment. A useful
plant copies ``m*(tail + hidden test) + c`` into the donor, so that the
donor's continuation, mapped back, recovers the test segment. A plant that
is not useful copies ``m*tail + c`` alone and ends closer than ``horizon``
to the donor's end (which needs horizon > h). No plant overlaps another
plant, a missing value (unless it is meant to), or any series' terminal
window, so every query is background data and the planted copies are the
only leaks at cutoff 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

EXACT = "exact-match"
ADD = "add-constant"
MULT = "multiply-constant"
AFFINE = "affine-transform"
NEG = "negative-affine"

MISSING_IN_QUERY = "missing-in-query"

NAMES = ("m1-like", "long-gaps", "dense-blocks")


@dataclass
class Plant:
    source: str
    donor: str
    start: int  # 1-based first position of the copied window in the donor
    end: int
    m: float
    c: float
    kind: str
    useful: bool
    test: list  # the source's hidden test segment
    reported: bool = True  # False for a plant that crosses a missing value


@dataclass
class Workload:
    name: str
    fmt: str  # the CLI's --format value
    h: int
    cutoff: float
    horizon: int
    missing: str  # the CLI's --missing value
    series: dict  # id -> list of floats, None marking a missing value
    plants: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)  # query id -> skip reason
    must_find: set = field(default_factory=set)  # (query, donor, start, end)

    @property
    def filename(self):
        return {"long": "input.csv", "wide": "input_wide.csv", "json": "input.json"}[self.fmt]

    def cli_args(self, path):
        return ["--input", str(path), "--format", self.fmt, "--h", str(self.h),
                "--cutoff", repr(self.cutoff), "--missing", self.missing, "--workers", "1"]

    def n_values(self):
        return sum(len(v) for v in self.series.values())

    def write(self, path):
        if self.fmt == "long":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("series_id,index,value\n")
                for sid, values in self.series.items():
                    fh.writelines(f"{sid},{i},{_cell(v)}\n" for i, v in enumerate(values, 1))
        elif self.fmt == "wide":
            depth = max(len(v) for v in self.series.values())
            columns = list(self.series.values())
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(",".join(self.series) + "\n")
                for i in range(depth):
                    fh.write(",".join(_cell(v[i]) if i < len(v) else "" for v in columns) + "\n")
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.series, fh)


def _cell(v):
    return "" if v is None else repr(v)


def _rng(name, seed):
    return np.random.default_rng([seed, NAMES.index(name)])


def _stratified(lo, hi, count, rng):
    """``count`` integer lengths spread evenly over [lo, hi] in random order,
    so that the total (and with it the scan's work) barely moves with the seed."""
    lengths = lo + np.floor((np.arange(count) + rng.random(count)) * (hi - lo + 1) / count)
    return [int(n) for n in rng.permutation(lengths)]


def _map(values, m, c):
    return [v if (m, c) == (1.0, 0.0) else float(m * v + c) for v in values]


def _draw_map(kind, scale, rng):
    """Slope and intercept of a plant of ``kind``, well clear of the
    classifier's tolerances."""
    m = float(rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.25, 3.0)]))
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * scale)
    if kind == EXACT:
        return 1.0, 0.0
    if kind == ADD:
        return 1.0, c
    if kind == MULT:
        return m, 0.0
    if kind == NEG:
        return -m, abs(c) * 2.0
    return m, c


class _Layout:
    """Reserved 0-based half-open intervals per series, to keep plants and
    missing values from overlapping one another or a terminal window."""

    def __init__(self, series, h):
        self.taken = {sid: [(len(v) - h, len(v))] for sid, v in series.items()}

    def free(self, sid, lo, hi):
        return all(hi <= a or b <= lo for a, b in self.taken[sid])

    def take(self, sid, lo, hi):
        self.taken[sid].append((lo, hi))


def _plant(series, full, layout, plan, sources, donor_pool, h, horizon, rng):
    """Place one plant per (kind, useful) entry of ``plan``; return the Plants.

    ``full`` holds each source's values with its hidden test segment; the
    collection's copy (``series``) is cut ``horizon`` values earlier.
    """
    plants = []
    for (kind, useful), src in zip(plan, sources):
        tail = series[src][-h:]
        test = full[src][-horizon:]
        m, c = _draw_map(kind, float(np.mean(np.abs(tail))), rng)
        for _ in range(10_000):
            donor = donor_pool[int(rng.integers(len(donor_pool)))]
            n = len(series[donor])
            if donor == src:
                continue
            if useful:
                if n < 2 * h + horizon:
                    continue
                end = int(rng.integers(h, n - h - horizon + 1))
                lo, hi = end - h, end + horizon
                copy = _map(tail + test, m, c)
            else:
                end = int(rng.integers(n - horizon + 1, n - h + 1))
                lo, hi = end - h, end
                copy = _map(tail, m, c)
            if lo >= 0 and layout.free(donor, lo, hi):
                break
        else:
            raise RuntimeError("no room left for a plant")
        layout.take(donor, lo, hi)
        series[donor][lo:hi] = copy
        plants.append(Plant(src, donor, end - h + 1, end, m, c, kind, useful, test))
    return plants


def m1_like(seed):
    """91 short yearly-like series, long-CSV, h=6, cutoff 1, 7 plants.

    Per-pair call overhead in scan/corr is nearly the whole run. The series
    lengths and the plants follow the M1 yearly criterion (7 matches, 3
    useful, 2 exact, 2 affine); half its 181 series keep a round short.
    """
    rng = _rng("m1-like", seed)
    h, horizon = 6, 8
    ids = [f"Y{i:03d}" for i in range(1, 92)]
    full, series = {}, {}
    for sid, n in zip(ids, _stratified(15, 58, len(ids), rng)):
        steps = rng.normal(rng.normal(0.05, 0.03), 0.05, n + horizon)
        x = math.exp(rng.normal(7.5, 1.2)) * np.exp(np.cumsum(steps))
        full[sid] = [float(v) for v in x]
        series[sid] = full[sid][:n]
    plan = [(EXACT, True), (EXACT, False), (ADD, True), (MULT, False),
            (AFFINE, True), (NEG, False), (AFFINE, False)]
    chosen = [ids[i] for i in rng.permutation(len(ids))[:2 * len(plan)]]
    sources, donors = chosen[:len(plan)], chosen[len(plan):]
    plants = _plant(series, full, _Layout(series, h), plan, sources, donors, h, horizon, rng)
    return Workload("m1-like", "long", h, 1.0, horizon, "reject", series, plants)


def long_gaps(seed):
    """20 daily-like series of 1000-3000 values with interior gaps, wide-CSV,
    loaded with --missing skip, h=24, cutoff 1, 10 reported plants.

    One more plant crosses a missing value and must not be reported; one
    useful plant has a missing value in its continuation; four series have
    a missing value in their terminal window, so their queries are skipped.
    """
    rng = _rng("long-gaps", seed)
    h, horizon = 24, 28
    ids = [f"D{i:02d}" for i in range(1, 21)]
    full, series = {}, {}
    for sid, n in zip(ids, _stratified(1000, 3000, len(ids), rng)):
        t = np.arange(n + horizon)
        level = rng.uniform(1000.0, 5000.0)
        week = rng.normal(0.0, 0.08 * level, 7)[t % 7]
        year = 0.15 * level * np.sin(2 * np.pi * t / 365.25 + rng.uniform(0, 2 * np.pi))
        walk = np.cumsum(rng.normal(0.0, 0.004 * level, n + horizon))
        full[sid] = [float(v) for v in level + week + year + walk]
        series[sid] = full[sid][:n]
    layout = _Layout(series, h)
    order = [ids[i] for i in rng.permutation(len(ids))]
    sources, gapped_queries = order[:11], order[11:15]
    donors = [sid for sid in ids if sid not in gapped_queries]
    plan = [(EXACT, True), (ADD, True), (MULT, True), (AFFINE, True), (NEG, True),
            (AFFINE, True), (EXACT, False), (AFFINE, False), (NEG, False), (MULT, False),
            (AFFINE, True)]
    plants = _plant(series, full, layout, plan, sources, donors, h, horizon, rng)

    # a missing value inside the last plant's window hides that plant, and one
    # in the sixth plant's continuation makes its prediction carry a None
    crossing, gapped = plants[-1], plants[5]
    crossing.reported = False
    series[crossing.donor][crossing.start - 1 + int(rng.integers(h))] = None
    series[gapped.donor][gapped.end + int(rng.integers(horizon))] = None
    skipped = {}
    for sid in gapped_queries:
        n = len(series[sid])
        series[sid][n - 1 - int(rng.integers(1, h))] = None
        skipped[sid] = MISSING_IN_QUERY
    # interior gaps of 1-6 values, four per series, clear of everything above
    for sid in ids:
        n, placed = len(series[sid]), 0
        while placed < 4:
            width = int(rng.integers(1, 7))
            lo = int(rng.integers(1, n - h - width))
            if layout.free(sid, lo - 1, lo + width + 1):
                layout.take(sid, lo, lo + width)
                series[sid][lo:lo + width] = [None] * width
                placed += 1
    return Workload("long-gaps", "wide", h, 1.0, horizon, "skip", series, plants, skipped)


def unit_rows(x):
    """Each row centred (twice, to take out the rounding of the first mean)
    and divided by its norm, so that a product of two rows is their Pearson r."""
    x = x - x.mean(axis=-1, keepdims=True)
    x = x - x.mean(axis=-1, keepdims=True)
    return x / np.sqrt((x * x).sum(axis=-1, keepdims=True))


def _pool(n_blocks, width, h, rng):
    """White-noise blocks, redrawn until no window of any block correlates
    with |r| >= 0.9 with another block's terminal window, and every terminal
    window has a sample sd of at least 0.8.

    Chance matches between pool windows would come in clumps of a block's
    whole instance count and make the match count swing with the seed; the
    sd floor keeps noisy instances of a terminal window above the cutoff.
    """
    blocks = []
    while len(blocks) < n_blocks:
        pool = np.array(blocks + [rng.normal(0.0, 1.0, width)])
        windows = unit_rows(np.lib.stride_tricks.sliding_window_view(pool, h, axis=1))
        r = np.abs(windows @ windows[:, -1].T)  # (block, offset, terminal block)
        r[np.arange(len(pool)), -1, np.arange(len(pool))] = 0.0
        if r.max() < 0.9 and pool[-1, -h:].std(ddof=1) >= 0.8:
            blocks.append(pool[-1])
    return np.array(blocks)


def dense_blocks(seed):
    """75 series concatenated from blocks of a small shared pool, JSON,
    h=6, cutoff 0.95: the paper's mechanisms i-iv.

    Each block instance is scale-shifted (ii); pool blocks recur within and
    across series (i, iii); a fixed share of instances carries white noise
    (iv). Every block is used equally often and ends equally many series, so
    the number of matches barely moves with the seed.
    """
    rng = _rng("dense-blocks", seed)
    h, n_series, per_series, n_blocks, width = 6, 75, 8, 15, 12
    pool = _pool(n_blocks, width, h, rng)
    # every block ends the same number of series and fills the same number of
    # slots overall, with the same share of noisy instances in both roles
    def slots(per_block):
        noisy = np.arange(per_block) < per_block // 4
        return rng.permutation([(b, bool(z)) for b in range(n_blocks) for z in noisy])

    last = slots(n_series // n_blocks)
    rest = list(slots(n_series * (per_series - 1) // n_blocks))
    series, instances = {}, {}
    for i in range(n_series):
        sid = f"B{i + 1:03d}"
        blocks = [rest.pop() for _ in range(per_series - 1)] + [last[i]]
        level, values, inst = rng.uniform(-100.0, 100.0), [], []
        for b, noise in blocks:
            b, noise = int(b), bool(noise)
            m = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            c = float(level + rng.uniform(-0.25, 0.25))
            x = m * pool[b] + c
            if noise:
                x = x + rng.normal(0.0, 0.1 * abs(m), width)
            values.extend(float(v) for v in x)
            inst.append((b, len(values) - width, noise))
        series[sid] = values
        instances[sid] = inst

    # a noise-free query window is an exact affine image of the same block
    # offsets in every other noise-free instance of its block
    must_find = set()
    for qid, inst in instances.items():
        b, _, noise = inst[-1]
        if noise:
            continue
        for did, dinst in instances.items():
            for db, at, dnoise in dinst:
                end = at + width
                if db == b and not dnoise and not (did == qid and end == len(series[did])):
                    must_find.add((qid, did, end - h + 1, end))
    return Workload("dense-blocks", "json", h, 0.95, h, "reject", series,
                    must_find=must_find)


GENERATORS = {"m1-like": m1_like, "long-gaps": long_gaps, "dense-blocks": dense_blocks}


def make(name, seed):
    return GENERATORS[name](seed)

