"""Pearson correlation kernel and the sliding-correlation sweep.

``sliding_correlations`` correlates k query segments, prepared once by
``query_block``, with every window of a target (the AB-join of the matrix
profile), so a scan makes one O(n*h*k) call per group of donors laid end
to end. Each window and query is centred on its own mean after an exact
power-of-two scaling (see ``centre``), so r stays accurate for a
low-variance window inside a high-variance series and at any finite scale;
only an exactly constant window has no r. The sweep copies no window: it
reads the target through a read-only view whose row i is ``x[i:i + h]``,
and gathers the valid windows a block at a time, never an (m, h) array of
floats. A window is constant, or overlaps a gap, when a running count of
changes between neighbouring values, or of gaps, does not change, or
does, across it: O(m) memory, whatever h.

Given a ``threshold``, the sweep rules windows out with a BLAS matrix
product of unit rows, an approximate r that provably lies within
``prefilter_slack(h)`` of the kernel's (a lower-bound pruning in the style
of the UCR suite); the same centred rows then give the exact r of the
windows it keeps, bit for bit the r of a sweep without a threshold.
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

# multiply-adds per prefilter matrix product. OpenBLAS, the BLAS of numpy's
# wheels, runs a product this small on the calling thread; a larger one wakes
# its worker threads, which then spin on the CPUs that scan workers need: on
# 2 CPUs, 1428 random walks scanned in 0.6 s with one worker, 2-19 s with two
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
    Each row of ``r_values`` is the same in both cases.
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


def _correlate(windows, valid, queries: QueryBlock, bound=None):
    """``(keep, r)``: which windows (rows) are kept, and the Pearson r of
    each kept window against every query (row).

    The ``valid`` windows are gathered and centred ``_BLOCK_VALUES`` values
    at a time. Given a ``bound``, a block's unit rows are multiplied by the
    queries' in products of at most ``_PRODUCT_SIZE`` multiply-adds (where
    one row allows), and a window is kept when |r~| >= bound against some
    query; without one, every valid window is. The kept rows then give r,
    each sum of products a last-axis reduction in one order, so a window
    equal to a query gets r == 1.0 exactly (a BLAS product would not), and
    a row's r does not depend on its block. No valid row may be constant.
    """
    h, q = windows.shape[1], queries.rows
    keep = valid.copy()
    valid_rows = np.flatnonzero(valid)
    r = [np.empty((0, len(q)))]
    step = max(1, _BLOCK_VALUES // h)
    rows = max(1, min(step, _PRODUCT_SIZE // q.size))
    cross_rows = max(1, _BLOCK_VALUES // q.size)
    for i in range(0, len(valid_rows), step):
        block = valid_rows[i:i + step]
        w, _ = centre(windows[block])
        css_w = (w * w).sum(axis=1)
        if bound is not None:
            unit = w / np.sqrt(css_w)[:, None]
            kept = np.empty(len(w), dtype=bool)
            for j in range(0, len(w), rows):
                approx = unit[j:j + rows] @ queries.unit.T
                kept[j:j + rows] = np.maximum(approx.max(axis=1), -approx.min(axis=1)) >= bound
            keep[block] = kept
            w, css_w = w[kept], css_w[kept]
        for j in range(0, len(w), cross_rows):
            cross = (w[j:j + cross_rows, None, :] * q).sum(axis=2)
            r.append(np.clip(cross / np.sqrt(css_w[j:j + cross_rows, None] * queries.css), -1.0, 1.0))
    return keep, np.concatenate(r)


def prefilter_slack(h) -> float:
    """How far the prefilter's r~ may lie from the kernel's r, for length h.

    Let w and q be a window and a query as ``centre`` leaves them, u = eps/2
    the unit roundoff and rho = <w,q> / (|w| |q|) in exact arithmetic. Both
    sides start from these same rows: ``_correlate`` centres each window
    once and takes r~ and r from that one centred row. A sum of h products
    computed in any order, with or without fused multiply-adds, is within
    gamma_h * sum|x_i y_i| of the exact sum, gamma_h = h*u / (1 - h*u), and
    by Cauchy-Schwarz sum|w_i q_i| <= |w| |q|. To first order in u:

    * r, from the last-axis cross term: the cross term is within
      h*u * |w||q| of <w,q>; each sum of squares within a factor 1 +- h*u,
      their product and the square root add u each, so the denominator is
      within a factor 1 +- (h + 1.5)*u of |w||q|; the division adds u. So
      |r - rho| <= (2h + 2.5)*u, and clipping to [-1, 1] cannot move r
      away from rho, which lies in [-1, 1].
    * r~, from the BLAS product of unit rows: each norm is within a factor
      1 +- (h/2 + 1)*u, so each unit entry w_i/|w| and q_i/|q| is within a
      factor 1 +- (h/2 + 2)*u; the BLAS dot product of the unit rows adds
      h*u relative to each product. With sum |w_i q_i| / (|w||q|) <= 1,
      |r~ - rho| <= (2h + 4)*u.

    Together |r~ - r| <= (4h + 6.5)*u = (2h + 3.25)*eps, so |r| >= t
    implies |r~| >= t - (2h + 3.25)*eps. The slack returned, 4*(h + 2)*eps,
    is twice that bound rounded up; the rest covers the terms of order
    (h*u)**2, the rounding of ``threshold - slack``, and underflow: a
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
