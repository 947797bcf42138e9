"""Pearson correlation kernel and the sliding-correlation sweep.

``sliding_correlations`` correlates k query segments, prepared once by
``query_block``, with every window of a target (the AB-join of the matrix
profile), so a scan makes one O(n*h*k) call per donor. Each window and query
is centred on its own mean after an exact power-of-two scaling (see
``centre``), so r stays accurate for a low-variance window inside a
high-variance series and at any finite scale; only an exactly constant
window has no r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

MIN_WINDOW = 3  # below this every non-constant window correlates at +-1

ZERO_VARIANCE_WINDOW = "zero-variance-window"
MISSING_OVERLAP = "missing-overlap"

_BLOCK_VALUES = 1 << 16  # 512 KiB of the (windows, queries, h) product at a time


@dataclass
class SlidingProfile:
    """Correlations of a query (or a block of them) with every length-h window.

    ``offsets`` are 1-based window start indices, aligned with ``r_values``
    (one column per query of a block); ``skipped`` holds (offset, reason)
    pairs for windows where Pearson is undefined (constant window) or that
    overlap a missing observation. Offsets and skips together cover every
    start 1..len(target)-h+1.
    """

    target_id: str | None
    offsets: np.ndarray
    r_values: np.ndarray
    skipped: list[tuple[int, str]] = field(default_factory=list)


def _as_vector(x, name, ndims=(1,)):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in ndims:
        raise ContractViolation(f"{name} has {arr.ndim} dimensions, expected {ndims}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} contains non-finite values")
    return arr


def centre(x):
    """Centre ``x`` (each row, if two-dimensional) on its own mean.

    Returns ``(xc, exp)`` with ``xc * 2**exp`` the centred values: the exact
    scaling by ``2**-exp`` brings max|x| into [0.5, 1), so sums of products
    of ``xc`` neither overflow nor, for a non-constant row, vanish. The mean
    is taken twice because, when the spread is a few ulps of the mean, the
    rounding of the first mean is as large as the spread.
    """
    _, exp = np.frexp(np.abs(x).max(axis=-1))
    x = np.ldexp(x, -exp[..., None])
    n = x.shape[-1]
    x = x - x.sum(axis=-1, keepdims=True) / n
    return x - x.sum(axis=-1, keepdims=True) / n, exp


@dataclass(frozen=True)
class QueryBlock:
    """Queries validated and centred once, for sweeps across many targets."""

    values: np.ndarray  # as given: one segment, or a (k, h) block of them
    rows: np.ndarray    # each row centred (see ``centre``)
    css: np.ndarray     # the sum of squares of each centred row


def query_block(query) -> QueryBlock:
    """Validate one query segment, or a (k, h) block of them, and centre it."""
    query = _as_vector(query, "query", ndims=(1, 2))
    rows = np.atleast_2d(query)
    if (rows == rows[:, :1]).all(axis=1).any():
        raise ContractViolation("query has zero variance")
    rows, _ = centre(rows)
    return QueryBlock(query, rows, (rows * rows).sum(axis=1))


def _correlate(windows, queries: QueryBlock):
    """Pearson r of every window (row) against every query (row).

    Returns shape (windows, queries). No row may be constant. Every sum of
    products is a last-axis reduction in one order, so a window equal to a
    query gets r == 1.0 exactly; a BLAS matrix product would not.
    """
    w, _ = centre(windows)
    q = queries.rows
    css_w = (w * w).sum(axis=1)
    cross = np.empty((len(w), len(q)))
    step = max(1, _BLOCK_VALUES // max(1, q.size))
    for i in range(0, len(w), step):
        cross[i:i + step] = (w[i:i + step, None, :] * q).sum(axis=2)
    return np.clip(cross / np.sqrt(css_w[:, None] * queries.css), -1.0, 1.0)


def pearson(a, b) -> float | None:
    """Pearson correlation of two equal-length vectors, clamped to [-1, 1].

    Returns None when either vector has zero variance (the coefficient is
    undefined there). Raises ContractViolation on length mismatch or
    vectors shorter than 2.
    """
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if len(a) != len(b):
        raise ContractViolation(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ContractViolation("correlation needs at least 2 observations")
    if np.all(a == a[0]) or np.all(b == b[0]):
        return None  # exact: the variance is zero iff all values are equal
    return float(_correlate(a[None], query_block(b))[0, 0])


def _check_sweep_args(query, target, h, missing):
    queries = query if isinstance(query, QueryBlock) else query_block(query)
    target = _as_vector(target, "target")
    if h < MIN_WINDOW:
        raise ContractViolation(f"window length must be >= {MIN_WINDOW}, got {h}")
    if queries.rows.shape[1] != h:
        raise ContractViolation(f"query has {queries.rows.shape[1]} observations, expected h={h}")
    if len(target) < h:
        raise ContractViolation(f"target shorter than window: {len(target)} < {h}")
    missing = sorted(set(int(i) for i in missing))
    if missing and (missing[0] < 0 or missing[-1] >= len(target)):
        raise ContractViolation("missing positions out of range")
    return queries, target, h, missing


def sliding_correlations(query, target, h, *, target_id=None, missing=()) -> SlidingProfile:
    """Correlate ``query`` with every length-``h`` window of ``target``.

    Parameters
    ----------
    query : array_like or QueryBlock
        Segment of length ``h`` with nonzero variance, or a (k, h) block of
        such segments, as given or prepared by ``query_block``; for a block,
        ``r_values`` has one column per row.
    target : array_like
        Series to sweep; must be at least ``h`` long.
    target_id : str, optional
        Label carried into the resulting profile.
    missing : iterable of int, optional
        0-based positions of missing observations in ``target``; any
        window overlapping one is skipped.

    Returns
    -------
    SlidingProfile
    """
    queries, target, h, missing = _check_sweep_args(query, target, h, missing)
    m = len(target) - h + 1
    index = np.arange(m)[:, None] + np.arange(h)
    windows = target[index]
    gaps = np.zeros(len(target), dtype=bool)
    gaps[missing] = True
    overlaps = gaps[index].any(axis=1)
    valid = ~(windows == windows[:, :1]).all(axis=1) & ~overlaps
    r = _correlate(windows[valid], queries)
    starts = np.arange(1, m + 1)
    skipped = [(int(s), MISSING_OVERLAP if overlaps[s - 1] else ZERO_VARIANCE_WINDOW)
               for s in starts[~valid]]
    return SlidingProfile(target_id, starts[valid], r if queries.values.ndim == 2 else r[:, 0], skipped)

