"""Pearson correlation kernel and the sliding-correlation sweep.

``sliding_correlations`` slides a fixed query segment across a target
series and computes the Pearson correlation at every offset. Each window
is centred on its own mean after an exact power-of-two scaling (see
``centre``), so r stays accurate for a low-variance window inside a
high-variance series and at any finite scale; only an exactly constant
window has no r. The sweep is O(n*h) per query/target pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

MIN_WINDOW = 3  # below this every non-constant window correlates at +-1

ZERO_VARIANCE_WINDOW = "zero-variance-window"
MISSING_OVERLAP = "missing-overlap"


@dataclass
class SlidingProfile:
    """Correlations of one query against every length-h window of a target.

    ``offsets`` are 1-based window start indices, aligned with ``r_values``;
    ``skipped`` holds (offset, reason) pairs for windows where Pearson is
    undefined (constant window) or that overlap a missing observation.
    Offsets and skips together cover every start 1..len(target)-h+1.
    """

    target_id: str | None
    offsets: np.ndarray
    r_values: np.ndarray
    skipped: list[tuple[int, str]] = field(default_factory=list)


def _as_vector(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolation(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} contains non-finite values")
    return arr


def _is_constant(arr):
    # exact test: variance is mathematically zero iff all values are equal
    return bool(np.all(arr == arr[0]))


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


def _correlate(rows):
    """Pearson r of every row but the last against the last row.

    No row may be constant. All sums over the rows run in the same order,
    so a row equal to the last one gets r == 1.0 exactly.
    """
    rows, _ = centre(rows)
    css = (rows * rows).sum(axis=1)
    cross = (rows[:-1] * rows[-1]).sum(axis=1)
    return np.clip(cross / np.sqrt(css[:-1] * css[-1]), -1.0, 1.0)


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
    if _is_constant(a) or _is_constant(b):
        return None
    return float(_correlate(np.stack((a, b)))[0])


def _check_sweep_args(query, target, h, missing):
    query = _as_vector(query, "query")
    target = _as_vector(target, "target")
    if h < MIN_WINDOW:
        raise ContractViolation(f"window length must be >= {MIN_WINDOW}, got {h}")
    if len(query) != h:
        raise ContractViolation(f"query has {len(query)} observations, expected h={h}")
    if len(target) < h:
        raise ContractViolation(f"target shorter than window: {len(target)} < {h}")
    if _is_constant(query):
        raise ContractViolation("query has zero variance")
    missing = sorted(set(int(i) for i in missing))
    if missing and (missing[0] < 0 or missing[-1] >= len(target)):
        raise ContractViolation("missing positions out of range")
    return query, target, h, missing


def sliding_correlations(query, target, h, *, target_id=None, missing=()) -> SlidingProfile:
    """Correlate ``query`` with every length-``h`` window of ``target``.

    Parameters
    ----------
    query : array_like
        Segment of length ``h`` with nonzero variance.
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
    query, target, h, missing = _check_sweep_args(query, target, h, missing)
    n = len(target)
    m = n - h + 1

    # an index array, not sliding_window_view: on short series the view's
    # per-call overhead (about 23 us against 8 us at n=40) dominates the scan
    windows = target[np.arange(m)[:, None] + np.arange(h)]
    constant = (windows == windows[:, :1]).all(axis=1)
    if missing:
        ind = np.zeros(n)
        ind[missing] = 1.0
        cind = np.concatenate(([0.0], np.cumsum(ind)))
        overlaps = (cind[h:] - cind[:-h]) > 0
    else:
        overlaps = np.zeros(m, dtype=bool)
    valid = ~constant & ~overlaps

    r = _correlate(np.concatenate((windows[valid], query[None])))

    starts = np.arange(1, m + 1)
    skipped = [
        (int(s), MISSING_OVERLAP if overlaps[s - 1] else ZERO_VARIANCE_WINDOW)
        for s in starts[~valid]
    ]
    return SlidingProfile(target_id, starts[valid], r, skipped)

