"""Pearson correlation kernel and the sliding-correlation sweep.

``sliding_correlations`` correlates k query segments, prepared once by
``query_block``, with every window of a target (the AB-join of the matrix
profile), so a scan makes one O(n*h*k) call per chunk of windows of all
series laid end to end. Each window and query is centred on its own mean
after an exact power-of-two scaling (see ``centre``), so r stays accurate
for a low-variance window inside a high-variance series and at any finite
scale; only an exactly constant window has no r. The sweep copies no
window: it reads the target through a read-only view whose row i is
``x[i:i + h]``, and gathers the valid windows a block at a time, never an
(m, h) array of floats. A window is constant, or overlaps a gap, when a
running count of changes between neighbouring values, or of gaps, does not
change, or does, across it: O(m) memory, whatever h.

Given a ``threshold``, the sweep first rules windows out with an
approximate r~ that provably lies within ``prefilter_slack(h)`` of the
kernel's r (a lower-bound pruning in the style of the UCR suite). The
prefilter reads a block of windows lag-major, as an (h, b) view whose row j
is the contiguous slice ``x[s + j:s + j + b]``: it centres all b windows
with ``centre`` along axis 0, normalises them, and takes each window's
largest |r~| over chunks of queries, one BLAS product each. Only the
windows it keeps are gathered and centred row by row; they give the
exact r, bit for bit the r of a sweep without a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .collection import _is_int, _is_real
from .errors import ContractViolation

MIN_WINDOW = 3  # below this every non-constant window correlates at +-1

ZERO_VARIANCE_WINDOW = "zero-variance-window"
MISSING_OVERLAP = "missing-overlap"

# values held at a time, 128 KiB: the kernel's (windows, queries, h) product,
# or a block of windows centred together, whose temporaries then stay in cache
_BLOCK_VALUES = 1 << 14

# multiply-adds per prefilter matrix product, (queries, h) @ (h, windows): a
# block of _BLOCK_VALUES // h windows meets about 16 queries at a time, and a
# target with fewer windows more.
# OpenBLAS, the BLAS of numpy's wheels, runs a product this small on the
# calling thread; a larger one wakes its worker threads, which then spin on
# the CPUs that scan workers need: on 2 CPUs, 1428 random walks scanned in
# 0.6 s with one worker, 2-19 s with two
_PRODUCT_SIZE = 1 << 18


@dataclass
class SlidingProfile:
    """Correlations of a query (or a block of them) with every length-h window.

    ``offsets`` are 1-based window start indices, aligned with ``r_values``
    (one column per query of a block); ``skipped`` holds (offset, reason)
    pairs for windows where Pearson is undefined (constant window) or that
    overlap a missing observation. Without a threshold, offsets and skips
    together cover every start 1..len(target)-h+1. With one, ``offsets``
    holds only the windows the prefilter could not rule out: every window
    with |r| >= threshold against some query, and perhaps a few whose
    largest |r| falls short of it by less than twice ``prefilter_slack(h)``.
    The prefilter only picks windows and decides nothing about r: each row
    of ``r_values`` is the same in both cases.
    """

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


def scale_of(x, axis=-1):
    """max|x| along ``axis``, of a window or of each of a block, taken exactly
    as max(max x, -min x), with no |x| temporary; never 0 for a matched window."""
    return np.maximum(x.max(axis), -x.min(axis))


def centre(x, axis=-1):
    """Scale and centre ``x`` (each window along ``axis``, if a block).

    Returns ``(xc, exp)`` with ``xc * 2**exp`` the centred values: the exact
    scaling by ``2**-exp`` into a fresh array brings ``scale_of(x, axis)``
    into [0.5, 1), so sums of products of ``xc`` neither overflow nor, for a
    non-constant window, vanish. The mean is subtracted twice, in place,
    because, when the spread is a few ulps of the mean, the rounding of the
    first mean is as large as the spread. Every window and query is centred
    here, the prefilter's lag-major blocks along axis 0.
    """
    _, exp = np.frexp(scale_of(x, axis))
    x = np.ldexp(x, -np.expand_dims(exp, axis))
    n = x.shape[axis]
    x -= x.sum(axis, keepdims=True) / n
    x -= x.sum(axis, keepdims=True) / n
    return x, exp


@dataclass(frozen=True)
class QueryBlock:
    """Queries validated and centred once, for sweeps across many targets."""

    values: np.ndarray  # as given: one segment, or a (k, h) block of them
    rows: np.ndarray    # each row centred (see ``centre``)
    css: np.ndarray     # the sum of squares of each centred row
    unit: np.ndarray    # each centred row over its norm, for the prefilter


def query_block(query) -> QueryBlock:
    """Validate one query segment, or a (k, h) block of them, and centre it."""
    query = _as_vector(query, "query", ndims=(1, 2))
    rows = np.atleast_2d(query)
    if (rows == rows[:, :1]).all(axis=1).any():
        raise ContractViolation("query has zero variance")
    rows, _ = centre(rows)
    css = (rows * rows).sum(axis=1)
    return QueryBlock(query, rows, css, rows / np.sqrt(css)[:, None])


def _largest_r(x, unit, per):
    """Each window's largest |r~| against the unit query rows ``unit``.

    ``x`` is lag-major, an (h, b) view whose column i is window i, so
    ``centre`` scales and centres each window along axis 0, with reductions
    across rows of b contiguous values. Each chunk of ``per`` queries is one
    product with the centred windows, whose largest |entries| per window
    are divided by its norm at the end. A constant window gets a stand-in
    norm of 1, not a division by 0; the caller drops it as invalid.
    """
    x, _ = centre(x, axis=0)
    norm = np.sqrt(np.einsum("ij,ij->j", x, x))
    norm[norm == 0] = 1.0
    best = np.zeros(x.shape[1])
    for j in range(0, len(unit), per):
        p = unit[j:j + per] @ x
        np.maximum(best, np.abs(p, out=p).max(axis=0), out=best)
    return best / norm


def _exact_r(rows, queries: QueryBlock):
    """The Pearson r, before clipping, of each row (none of them constant)
    against every query, in chunks of ``_BLOCK_VALUES`` products: each sum
    of products a last-axis reduction."""
    w, _ = centre(rows)
    css_w = (w * w).sum(axis=1)
    q = queries.rows
    step = max(1, _BLOCK_VALUES // q.size)
    return [(w[j:j + step, None, :] * q).sum(axis=2) / np.sqrt(css_w[j:j + step, None] * queries.css)
            for j in range(0, len(w), step)]


def _correlate(windows, valid, queries: QueryBlock, bound=None):
    """``(keep, r)``: which windows (rows) are kept, and the Pearson r of
    each kept window against every query (row).

    Given a ``bound``, a valid window is kept when its |r~| (``_largest_r``,
    a block of ``_BLOCK_VALUES`` values at a time) is >= bound against some
    query; without one, every valid window is. The kept rows are then
    gathered a block at a time and give r (``_exact_r``), each sum of
    products a last-axis reduction in one order, so a window equal to a
    query gets r == 1.0 exactly (a BLAS product would not), and a row's r
    does not depend on its block.
    """
    h = windows.shape[1]
    step = max(1, _BLOCK_VALUES // h)
    keep = valid.copy()
    if bound is not None:
        per = max(1, _PRODUCT_SIZE // (h * min(step, len(windows))))
        for s in range(0, len(windows), step):
            kept = keep[s:s + step]
            if kept.any():
                kept &= _largest_r(windows[s:s + step].T, queries.unit, per) >= bound
    rows = np.flatnonzero(keep)
    r = [np.empty((0, len(queries.rows)))]
    for i in range(0, len(rows), step):
        r += _exact_r(windows[rows[i:i + step]], queries)
    return keep, np.clip(np.concatenate(r), -1.0, 1.0)


def prefilter_slack(h) -> float:
    """How far the prefilter's r~ may lie from the kernel's r, for length h.

    Let u = eps/2 be the unit roundoff, x a window after ``centre``'s exact
    power-of-two scaling, x_c x centred in exact arithmetic, q a query as
    ``centre`` leaves it, and rho(v) = <v,q> / (|v| |q|) in exact
    arithmetic. From the same scaled bits x, both sides go through
    ``centre``, along different axes: the exact pass into w along the last
    axis, the prefilter into w' along axis 0, summing in another order. A
    sum of h products computed in any order, with or without fused
    multiply-adds, is within gamma_h * sum|x_i y_i| of the exact sum,
    gamma_h = h*u / (1 - h*u), and by Cauchy-Schwarz sum|w_i q_i| <= |w| |q|.
    To first order in u:

    * r, from the last-axis cross term: the cross term is within
      h*u * |w||q| of <w,q>; each sum of squares within a factor 1 +- h*u,
      their product and the square root add u each, so the denominator is
      within a factor 1 +- (h + 1.5)*u of |w||q|; the division adds u. So
      |r - rho(w)| <= (2h + 2.5)*u, and clipping to [-1, 1] cannot move r
      away from rho(w), which lies in [-1, 1].
    * r~, from the BLAS product of unit query rows with w', divided by
      |w'|: each unit entry q_i/|q| is within a factor 1 +- (h/2 + 2)*u,
      and the product adds h*u * |w'|; the computed |w'| is within a factor
      1 +- (h/2 + 1)*u, and the division adds u. So
      |r~ - rho(w')| <= (2h + 4)*u; |.| and max are exact.
    * w against w': each centring subtracts two computed means, so
      w = x_c + a*1 + e, with a constant a and e the roundings of the two
      subtractions. If the spread |x_c| is below max|x|/8, the values and
      the first mean lie within a factor 2 of each other and the first
      subtraction is exact (Sterbenz); otherwise it costs u*|x_c| plus
      terms of order h**1.5 * u**2 * |x_c|. The second costs u*|w|. So
      across the constant direction w is x_c plus at most 2u*|x_c|, at an
      angle of at most 2u from x_c. The constant a*1 is orthogonal to x_c,
      and to q but for q's own mean, of order h*u*|q|; with a*sqrt(h) at
      most of order h**1.5 * u * |x_c|, it moves rho by terms of order
      h**3 * u**2. So |rho(w) - rho(x_c)| <= 2u, likewise for w', and
      |rho(w') - rho(w)| <= 4u.

    Together |r~ - r| <= (4h + 10.5)*u = (2h + 5.25)*eps, so |r| >= t
    implies |r~| >= t - (2h + 5.25)*eps. The slack returned, 4*(h + 2)*eps,
    is at least 1.7 times that bound; the rest covers the terms of order
    h**3 * u**2, the rounding of ``threshold - slack``, and underflow: a
    non-constant row scaled into [0.5, 1) keeps a centred norm above about
    2**-56, so underflowing products move r by hundreds of orders of
    magnitude less than eps. The bound assumes a conventional matrix
    product, one sum of h products per entry; a Strassen-type one would not
    be covered.
    """
    return 4 * (h + 2) * float(np.finfo(np.float64).eps)


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
    return float(_correlate(a[None], np.ones(1, dtype=bool), query_block(b))[1][0, 0])


def _any_in_windows(flags, width):
    """Whether each run of ``width`` neighbouring ``flags`` holds a true one,
    from a running count of them: O(len(flags)) memory, not O(len * width)."""
    count = np.concatenate(([0], np.cumsum(flags)))
    return count[width:] > count[:-width]


def _check_sweep_args(query, target, h, missing, threshold=None):
    queries = query if isinstance(query, QueryBlock) else query_block(query)
    target = np.ascontiguousarray(_as_vector(target, "target"))  # for the window views
    if not _is_int(h) or h < MIN_WINDOW:
        raise ContractViolation(f"window length must be an integer >= {MIN_WINDOW}, got {h!r}")
    if queries.rows.shape[1] != h:
        raise ContractViolation(f"query has {queries.rows.shape[1]} observations, expected h={h}")
    if len(target) < h:
        raise ContractViolation(f"target shorter than window: {len(target)} < {h}")
    if not all(map(_is_int, missing := list(missing))):
        raise ContractViolation(f"missing positions must be integers, got {missing!r}")
    if missing and (min(missing) < 0 or max(missing) >= len(target)):
        raise ContractViolation("missing positions out of range")
    if threshold is not None and not (_is_real(threshold) and threshold == threshold):  # NaN != NaN
        raise ContractViolation(f"threshold must be a real number other than NaN, got {threshold!r}")
    return queries, target, h, missing


def sliding_correlations(query, target, h, *, missing=(), threshold=None) -> SlidingProfile:
    """Correlate ``query`` with every length-``h`` window of ``target``.

    Parameters
    ----------
    query : array_like or QueryBlock
        Segment of length ``h`` with nonzero variance, or a (k, h) block of
        such segments, as given or prepared by ``query_block``; for a block,
        ``r_values`` has one column per row.
    target : array_like
        Series to sweep; must be at least ``h`` long.
    missing : iterable of int, optional
        0-based positions of missing observations in ``target``; any
        window overlapping one is skipped.
    threshold : float, optional
        Return only the windows the prefilter cannot rule out, those with
        |r~| >= threshold - ``prefilter_slack(h)`` against some query: every
        window with |r| >= threshold against some query is among them, each
        with the row of ``r_values`` that a sweep without a threshold gives.
        A bool, non-real or NaN threshold raises ContractViolation.

    Returns
    -------
    SlidingProfile
    """
    queries, target, h, missing = _check_sweep_args(query, target, h, missing, threshold)
    m = len(target) - h + 1
    windows = np.ndarray((m, h), target.dtype, target, strides=target.strides * 2)
    windows.flags.writeable = False
    gaps = np.zeros(len(target), dtype=bool)
    gaps[missing] = True
    overlaps = _any_in_windows(gaps, h)
    # a window is constant when no two neighbouring values in it differ
    valid = _any_in_windows(target[1:] != target[:-1], h - 1) & ~overlaps
    invalid = np.flatnonzero(~valid)
    reasons = (ZERO_VARIANCE_WINDOW, MISSING_OVERLAP)
    skipped = list(zip((invalid + 1).tolist(), [reasons[o] for o in overlaps[invalid].tolist()]))
    bound = None if threshold is None else threshold - prefilter_slack(h)
    keep, r = _correlate(windows, valid, queries, bound)
    return SlidingProfile(np.flatnonzero(keep) + 1, r if queries.values.ndim == 2 else r[:, 0], skipped)
