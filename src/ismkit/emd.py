"""Empirical Mode Decomposition and per-segment component estimation.

The decomposition follows the classic sifting recipe: cubic-spline envelopes
through the local extrema, subtract the envelope mean, repeat until the
normalized squared change between iterations drops below a threshold, then
peel the intrinsic mode function off and continue on the remainder. Envelope
end-swing is suppressed by mirroring a few extrema beyond each edge before
fitting the splines.

Many short signals, such as the 100 ms buffers of a capture, decompose
faster together than one by one (emd_decompose_rows). On a 501-sample buffer
the cost of sifting is per-call overhead, not arithmetic: one envelope mean
took 121 us with 4 extrema and 229 us with 330 (2-core x86-64 Xeon VM,
numpy 2.4.6), and a buffer needs about 7.5 of them. So a stack of buffers
sifts in lockstep. Every row still sifting contributes its two envelopes to
one block-diagonal spline solve and one vectorized evaluation per iteration,
and each row leaves the loop under the rules that stop emd_decompose. A
single row costs more that way (a median 4.3 ms per 100 ms buffer against
1.7 ms on the same host), so a one-row stack goes through emd_decompose.

Everything here is deterministic: the same samples and config produce
bit-identical output, and a row decomposed in a stack gets exactly the bits
it gets on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DataError
from .signal import SegmentGrid, Waveform

(_DGTSV,) = get_lapack_funcs(("gtsv",), (np.empty(0, dtype=np.float64),))


@dataclass(frozen=True)
class EmdConfig:
    """Sifting hyperparameters.

    sift_sd_threshold is the classic normalized squared-difference stop
    criterion; boundary is how many extrema are mirrored past each edge
    before envelope fitting.
    """

    max_imfs: int = 8
    sift_sd_threshold: float = 0.2
    max_sift_iterations: int = 50
    boundary: int = 2

    def __post_init__(self):
        if self.max_imfs <= 0 or self.max_sift_iterations <= 0 or self.boundary <= 0:
            raise DataError("EmdConfig integers must be positive")
        if self.sift_sd_threshold <= 0:
            raise DataError("sift_sd_threshold must be positive")


@dataclass(frozen=True)
class ImfSet:
    """Ordered intrinsic mode functions (fastest first) plus the residual."""

    imfs: tuple[Waveform, ...]
    residual: Waveform

    def reconstruct(self) -> np.ndarray:
        total = self.residual.samples.copy()
        for imf in self.imfs:
            total += imf.samples
        return total


def find_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of interior maxima and minima; plateaus count once, at their midpoint."""
    d = x[1:] - x[:-1]
    nz = (d != 0).nonzero()[0]
    if nz.size < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    s = d[nz] > 0
    flips = (s[:-1] != s[1:]).nonzero()[0]
    locs = (nz[flips] + 1 + nz[flips + 1]) // 2
    rising_before = s[flips]
    return locs[rising_before], locs[~rising_before]


def _reflect(x: np.ndarray, src: np.ndarray, sym: float) -> tuple[np.ndarray, np.ndarray]:
    # reversed so reflected positions come out ascending
    rev = src[::-1]
    return 2.0 * sym - rev.astype(np.float64), x[rev]


def _mirror_knots(x: np.ndarray, max_idx: np.ndarray, min_idx: np.ndarray,
                  n_mirror: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extend extrema past both edges by symmetric reflection.

    Reflection is about the outermost extremum, unless the signal endpoint
    pokes outside the would-be envelope, in which case the endpoint becomes
    the symmetry point and joins the knot set (the standard guard against
    envelope undershoot at the edges). A final pass guarantees both envelopes
    have knots spanning the full sample range.
    """
    n = len(x)
    last = n - 1
    k = n_mirror

    # Left edge: choose sources and symmetry point
    if max_idx[0] < min_idx[0]:          # signal rises to a peak first
        if x[0] > x[min_idx[0]]:
            lsrc_max, lsrc_min, lsym = max_idx[1:k + 1], min_idx[:k], max_idx[0]
        else:                            # endpoint is below the first trough
            lsrc_max = max_idx[:k]
            lsrc_min = np.concatenate([[0], min_idx[:k - 1]])
            lsym = 0
    else:                                # signal falls to a trough first
        if x[0] < x[max_idx[0]]:
            lsrc_max, lsrc_min, lsym = max_idx[:k], min_idx[1:k + 1], min_idx[0]
        else:                            # endpoint is above the first peak
            lsrc_max = np.concatenate([[0], max_idx[:k - 1]])
            lsrc_min = min_idx[:k]
            lsym = 0

    # Right edge, mirror image of the left-edge logic
    if max_idx[-1] > min_idx[-1]:        # signal descends from a final peak
        if x[-1] < x[min_idx[-1]]:
            rsrc_max = max_idx[-k:]
            rsrc_min = np.concatenate([min_idx[len(min_idx) - (k - 1):], [last]])
            rsym = last
        else:
            rsrc_max, rsrc_min, rsym = max_idx[-k - 1:-1], min_idx[-k:], max_idx[-1]
    else:                                # signal climbs from a final trough
        if x[-1] > x[max_idx[-1]]:
            rsrc_max = np.concatenate([max_idx[len(max_idx) - (k - 1):], [last]])
            rsrc_min = min_idx[-k:]
            rsym = last
        else:
            rsrc_max, rsrc_min, rsym = max_idx[-k:], min_idx[-k - 1:-1], min_idx[-1]

    lt_max, lv_max = _reflect(x, lsrc_max, lsym)
    lt_min, lv_min = _reflect(x, lsrc_min, lsym)
    rt_max, rv_max = _reflect(x, rsrc_max, rsym)
    rt_min, rv_min = _reflect(x, rsrc_min, rsym)

    # each reflection lands strictly outside the extrema it mirrors, so these
    # knot sets are already strictly increasing
    t_up = np.concatenate([lt_max, max_idx.astype(np.float64), rt_max])
    v_up = np.concatenate([lv_max, x[max_idx], rv_max])
    t_lo = np.concatenate([lt_min, min_idx.astype(np.float64), rt_min])
    v_lo = np.concatenate([lv_min, x[min_idx], rv_min])

    # Coverage guard: every envelope must have knots on or past both edges
    t_up, v_up = _ensure_span(x, t_up, v_up, max_idx, k, last)
    t_lo, v_lo = _ensure_span(x, t_lo, v_lo, min_idx, k, last)
    return t_up, v_up, t_lo, v_lo


def _ensure_span(x: np.ndarray, t: np.ndarray, v: np.ndarray,
                 idx: np.ndarray, k: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    if t[0] > 0:
        add_t, add_v = _reflect(x, idx[:k], 0.0)
        t, v = _dedupe_sorted(np.concatenate([add_t, t]), np.concatenate([add_v, v]))
    if t[-1] < last:
        add_t, add_v = _reflect(x, idx[-k:], float(last))
        t, v = _dedupe_sorted(np.concatenate([t, add_t]), np.concatenate([v, add_v]))
    return t, v


def _dedupe_sorted(t: np.ndarray, v: np.ndarray) -> tuple:
    if t.size > 1 and ((t[1:] - t[:-1]) <= 0).any():
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        keep = np.concatenate([[True], (t[1:] - t[:-1]) > 0])
        return (t[keep], v[keep])
    return (t, v)


def _spline_system(t: np.ndarray, v: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Natural-cubic tridiagonal pieces for one knot set: (h, dv, dl, d, rhs)."""
    h = t[1:] - t[:-1]
    dv = (v[1:] - v[:-1]) / h
    d = 2.0 * (h[:-1] + h[1:])
    rhs = 6.0 * (dv[1:] - dv[:-1])
    return h, dv, h[1:-1], d, rhs


def _envelope_mean(x: np.ndarray, boundary: int) -> np.ndarray | None:
    """Mean of the upper and lower cubic-spline envelopes, or None if x has too few extrema.

    Both envelopes are natural cubic splines through the mirrored extrema.
    Their tridiagonal systems are solved together as one block-diagonal
    system, and both are evaluated in a single vectorized pass (the lower
    envelope's knots shifted far right so the combined knot vector stays
    strictly increasing).
    """
    max_idx, min_idx = find_extrema(x)
    if max_idx.size < 2 or min_idx.size < 2:
        return None
    t_up, v_up, t_lo, v_lo = _mirror_knots(x, max_idx, min_idx, boundary)
    n = x.size
    k_up = t_up.size
    k_lo = t_lo.size

    h_up, dv_up, dl_up, d_up, rhs_up = _spline_system(t_up, v_up)
    h_lo, dv_lo, dl_lo, d_lo, rhs_lo = _spline_system(t_lo, v_lo)

    m_up = k_up - 2
    m_lo = k_lo - 2
    m = np.zeros(k_up + k_lo)
    if m_up + m_lo > 0:
        if m_up > 0 and m_lo > 0:
            dl = np.concatenate([dl_up, [0.0], dl_lo])
            d = np.concatenate([d_up, d_lo])
            rhs = np.concatenate([rhs_up, rhs_lo])
        elif m_up > 0:
            dl, d, rhs = dl_up, d_up, rhs_up
        else:
            dl, d, rhs = dl_lo, d_lo, rhs_lo
        sol = _DGTSV(dl, d, dl.copy(), rhs,
                     overwrite_dl=True, overwrite_d=True,
                     overwrite_du=True, overwrite_b=True)[3]
        m[1:1 + m_up] = sol[:m_up]
        m[k_up + 1:k_up + 1 + m_lo] = sol[m_up:]

    shift = t_up[-1] - t_lo[0] + 2.0 * n
    t = np.concatenate([t_up, t_lo + shift])
    v = np.concatenate([v_up, v_lo])
    h = np.concatenate([h_up, [shift], h_lo])
    dv = np.concatenate([dv_up, [0.0], dv_lo])

    q = np.arange(n, dtype=np.float64)
    q = np.concatenate([q, q + shift])
    i = t.searchsorted(q, side="right") - 1
    np.minimum(i, t.size - 2, out=i)  # i >= 0 holds since t[0] <= 0 <= q
    dt = q - t[i]
    hi = h[i]
    mi = m[i]
    mi1 = m[i + 1]
    a = (mi1 - mi) / (6.0 * hi)
    b = 0.5 * mi
    c = dv[i] - hi * (2.0 * mi + mi1) / 6.0
    env = v[i] + dt * (c + dt * (b + dt * a))
    return 0.5 * (env[:n] + env[n:])


def _extrema_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """find_extrema on every row of a 2-D stack at once.

    Returns (row, index, is_max) for all extrema, ordered by row and then by
    index; per row the indices are exactly those find_extrema gives.
    """
    d = x[:, 1:] - x[:, :-1]
    moving = d != 0
    nz = np.flatnonzero(moving)  # much faster than 2-D nonzero
    row = nz // d.shape[1]
    rising = d[moving] > 0
    flips = ((rising[:-1] != rising[1:]) & (row[:-1] == row[1:])).nonzero()[0]
    row = row[flips]
    locs = (nz[flips] + 1 + nz[flips + 1]) // 2 - row * d.shape[1]
    return row, locs, rising[flips]


def _knot_rows(x: np.ndarray, rows: np.ndarray, idx: np.ndarray, first: np.ndarray,
               count: np.ndarray, width: int, k: int, left: tuple, right: tuple
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One envelope's mirrored knot set for each of many rows, padded: (t, v, used).

    Row r's knots are t[r][used[r]]: up to k reflected past the left edge,
    the row's extrema idx[first[r]:first[r] + count[r]], up to k reflected
    past the right edge. left and right are (offset, symmetry point) arrays.
    The k sources at an edge are consecutive extrema, starting offset places
    in from that edge; a source one place beyond the extrema is the edge
    sample itself, and sources past the other end do not exist. That is
    _mirror_knots' choice of sources, with its slices cut short the same way.
    """
    end = first + count
    top = idx.size - 1
    j = np.arange(k)
    pick = first[:, None] + j + left[0][:, None]
    l_src = np.where(pick >= first[:, None], idx[np.clip(pick, 0, top)], 0)[:, ::-1]
    l_used = (pick < end[:, None])[:, ::-1]
    pick = first[:, None] + np.arange(width)
    mid = idx[np.clip(pick, 0, top)]
    mid_used = pick < end[:, None]
    pick = end[:, None] - k + j + right[0][:, None]
    r_src = np.where(pick < end[:, None], idx[np.clip(pick, 0, top)],
                     x.shape[1] - 1)[:, ::-1]
    r_used = (pick >= first[:, None])[:, ::-1]
    t = np.concatenate([2.0 * left[1][:, None] - l_src.astype(np.float64), mid,
                        2.0 * right[1][:, None] - r_src.astype(np.float64)], axis=1)
    v = x[rows[:, None], np.concatenate([l_src, mid, r_src], axis=1)]
    return t, v, np.concatenate([l_used, mid_used, r_used], axis=1)


def _spline_mean_flat(t: np.ndarray, v: np.ndarray, start: np.ndarray, end: np.ndarray,
                      n: int) -> np.ndarray:
    """Mean of upper and lower natural cubic splines for many rows at once.

    t and v hold 2 x rows knot sets back to back: every row's upper envelope,
    then every row's lower one. Knot set e is t[start[e]:end[e] + 1], integer
    positions, strictly increasing, with t[start[e]] <= 0 and
    t[end[e]] >= n - 1. Each spline is evaluated at 0..n-1 with
    _envelope_mean's arithmetic, including its interval choice at the last
    sample: an upper envelope whose last knot sits on it reads that knot's
    value, a lower one stays on its last interval.
    """
    h = t[1:] - t[:-1]
    h[end[:-1]] = 1.0  # steps between knot sets: any positive value, never used
    dv = (v[1:] - v[:-1]) / h
    interior = np.ones(t.size, dtype=bool)
    interior[start] = False
    interior[end] = False
    inner = interior.nonzero()[0]
    d = 2.0 * (h[inner - 1] + h[inner])
    rhs = 6.0 * (dv[inner] - dv[inner - 1])
    # sub/superdiagonal; zero between knot sets, so the blocks stay uncoupled
    dl = np.where(interior[inner[:-1] + 1], h[inner[:-1]], 0.0)
    m = np.zeros(t.size)
    m[inner] = _DGTSV(dl, d, dl.copy(), rhs,
                      overwrite_dl=True, overwrite_d=True,
                      overwrite_du=True, overwrite_b=True)[3]

    # per-interval cubic coefficients; the intervals bridging knot sets get zeros
    a = np.zeros(t.size)
    b = np.zeros(t.size)
    c = np.zeros(t.size)
    a[:-1] = (m[1:] - m[:-1]) / (6.0 * h)
    b[:-1] = 0.5 * m[:-1]
    c[:-1] = dv - h * (2.0 * m[:-1] + m[1:]) / 6.0
    a[end] = b[end] = c[end] = 0.0

    # Interval of each sample: knot i covers samples t[i] .. t[i+1]-1, the
    # last knot of a set covers up to n-1; a lower set's last sample moves
    # back onto its last interval.
    pos = np.clip(t, 0, n).astype(np.intp)
    covers = np.empty(t.size, dtype=np.intp)
    covers[:-1] = pos[1:] - pos[:-1]
    covers[end] = n - pos[end]
    half = start.size // 2
    covers[end[half:] - 1] += covers[end[half:]]
    covers[end[half:]] = 0
    i = np.repeat(np.arange(t.size), covers).reshape(start.size, n)
    dt = np.arange(n, dtype=np.float64) - t[i]
    env = v[i] + dt * (c[i] + dt * (b[i] + dt * a[i]))
    return 0.5 * (env[:half] + env[half:])


def _envelope_mean_rows(x: np.ndarray, boundary: int) -> tuple[np.ndarray, np.ndarray]:
    """_envelope_mean of every row of a 2-D stack: (means, has_mean).

    Rows whose mirrored knots do not need _mirror_knots' span guard are
    solved together: their 2 x rows natural-spline systems form
    one block-diagonal tridiagonal system for one gtsv call, and all their
    envelopes are evaluated in one gather. Knot positions are integers, the
    blocks are uncoupled and the systems never pivot, so every row gets
    exactly the bits _envelope_mean gives it. The other rows with at least
    two maxima and minima go through _envelope_mean one by one. Rows with
    has_mean False hold garbage.
    """
    n_rows, n = x.shape
    last = n - 1
    mean = np.empty_like(x)
    row, locs, is_max = _extrema_rows(x)
    max_idx, min_idx = locs[is_max], locs[~is_max]
    n_max = np.bincount(row[is_max], minlength=n_rows)
    n_min = np.bincount(row[~is_max], minlength=n_rows)
    has_mean = (n_max >= 2) & (n_min >= 2)
    single = has_mean.copy()  # rows left for _envelope_mean
    # with fewer than boundary-1 extrema, _mirror_knots' slice
    # idx[len(idx) - (boundary-1):] wraps around; leave those rows to it
    rows = (has_mean & (n_max >= boundary - 1) & (n_min >= boundary - 1)).nonzero()[0]
    if rows.size:
        ms = (np.cumsum(n_max) - n_max)[rows]  # each row's first entry in max_idx
        ns = (np.cumsum(n_min) - n_min)[rows]
        n_max, n_min = n_max[rows], n_min[rows]
        first_max, first_min = max_idx[ms], min_idx[ns]
        last_max, last_min = max_idx[ms + n_max - 1], min_idx[ns + n_min - 1]
        # Left edge: the first extremum is the symmetry point when the endpoint
        # stays inside the envelopes, else the endpoint is. Source offsets:
        #   peak first, inside: maxima from 1, minima from 0
        #   peak first, endpoint below: maxima from 0, minima from the endpoint
        #   trough first, inside: maxima from 0, minima from 1
        #   trough first, endpoint above: maxima from the endpoint, minima from 0
        peak = first_max < first_min
        inside = np.where(peak, x[rows, 0] > x[rows, first_min],
                          x[rows, 0] < x[rows, first_max])
        l_sym = np.where(inside, np.where(peak, first_max, first_min), 0)
        l_max = peak.astype(np.intp) + inside - 1
        l_min = (~peak).astype(np.intp) + inside - 1
        # Right edge, the mirror image. Offsets move the last k sources:
        #   peak last, inside: maxima back 1, minima the last k
        #   peak last, endpoint below: maxima the last k, minima up to the endpoint
        #   trough last, inside: maxima the last k, minima back 1
        #   trough last, endpoint above: maxima up to the endpoint, minima the last k
        peak = last_max > last_min
        outside = np.where(peak, x[rows, last] < x[rows, last_min],
                           x[rows, last] > x[rows, last_max])
        r_sym = np.where(outside, last, np.where(peak, last_max, last_min))
        r_max = outside.astype(np.intp) - peak
        r_min = outside.astype(np.intp) - ~peak

        width = int(max(n_max.max(), n_min.max()))
        up = _knot_rows(x, rows, max_idx, ms, n_max, width, boundary,
                        (l_max, l_sym), (r_max, r_sym))
        lo = _knot_rows(x, rows, min_idx, ns, n_min, width, boundary,
                        (l_min, l_sym), (r_min, r_sym))
        t = np.concatenate([up[0], lo[0]])
        used = np.concatenate([up[2], lo[2]])
        # Reflections land outside the extrema they mirror, so each row's
        # knots are strictly increasing; rows whose knots miss an edge need
        # _mirror_knots' span guard and are left to _envelope_mean.
        bad = ((np.where(used, t, np.inf).min(axis=1) > 0)
               | (np.where(used, t, -np.inf).max(axis=1) < last))
        ok = ~(bad[:rows.size] | bad[rows.size:])
        rows = rows[ok]
        if rows.size:
            keep = np.concatenate([ok, ok])
            used = used[keep]
            counts = used.sum(axis=1)
            end = np.cumsum(counts) - 1
            v = np.concatenate([up[1], lo[1]])
            mean[rows] = _spline_mean_flat(t[keep][used], v[keep][used],
                                           end - counts + 1, end, n)
            single[rows] = False
    for r in single.nonzero()[0]:
        mean[r] = _envelope_mean(x[r], boundary)
    return mean, has_mean


def emd_decompose(waveform: Waveform, config: EmdConfig | None = None) -> ImfSet:
    """Decompose a waveform into intrinsic mode functions plus a residual.

    Stops at max_imfs or when the remainder is monotone (fewer than two
    maxima or minima). Each IMF is sifted until the normalized squared
    difference between successive iterates falls below sift_sd_threshold or
    the iteration cap is hit. The components always sum back to the input to
    within floating-point rounding.
    """
    cfg = config or EmdConfig()
    x = waveform.samples
    if x.size < 8:
        raise DataError(f"need at least 8 samples to decompose, got {x.size}")

    rate = waveform.sample_rate_hz
    imfs: list[Waveform] = []
    residual = x.copy()

    for _ in range(cfg.max_imfs):
        h = residual.copy()
        mean = _envelope_mean(h, cfg.boundary)
        if mean is None:
            break
        for _ in range(cfg.max_sift_iterations):
            denom = float(np.dot(h, h))
            if denom == 0.0:
                break
            h_next = h - mean
            sd = float(np.dot(mean, mean)) / denom
            h = h_next
            if sd < cfg.sift_sd_threshold:
                break
            mean = _envelope_mean(h, cfg.boundary)
            if mean is None:
                break
        max_idx, min_idx = find_extrema(h)
        if max_idx.size == 0 and min_idx.size == 0:
            break  # sifting flattened the remainder; keep it in the residual
        imfs.append(Waveform(h, rate))
        residual = residual - h

    return ImfSet(imfs=tuple(imfs), residual=Waveform(residual, rate))


def emd_decompose_rows(x: np.ndarray, config: EmdConfig | None = None
                       ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """emd_decompose every row of a 2-D stack of equal-length signals.

    Returns (imfs, residual). imfs[j] is a pair (rows, stack): the indices
    of the rows that have a (j+1)-th IMF, ascending, and those IMFs. residual
    is the stack of residuals. Row r's IMFs and residual equal
    emd_decompose(x[r])'s bit for bit. The rows sift in lockstep, each
    leaving the loop under emd_decompose's own rules: too few extrema, a
    zero SD denominator, the SD stop or the iteration cap. A single row goes
    through emd_decompose.
    """
    cfg = config or EmdConfig()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DataError("emd_decompose_rows expects a 2-D stack of rows")
    if x.shape[0] == 1:
        imf_set = emd_decompose(Waveform(x[0]), cfg)
        first = np.zeros(1, dtype=np.intp)
        return ([(first, imf.samples[None]) for imf in imf_set.imfs],
                imf_set.residual.samples[None])
    if x.shape[1] < 8:
        raise DataError(f"need at least 8 samples to decompose, got {x.shape[1]}")

    residual = x.copy()
    imfs: list[tuple[np.ndarray, np.ndarray]] = []
    alive = np.arange(x.shape[0])  # rows still peeling off IMFs
    for _ in range(cfg.max_imfs):
        h = residual[alive]
        mean, has_mean = _envelope_mean_rows(h, cfg.boundary)
        alive, h, mean = alive[has_mean], h[has_mean], mean[has_mean]
        sifting = np.arange(alive.size)  # rows of h still sifting
        for it in range(cfg.max_sift_iterations):
            hs, ms = h[sifting], mean[sifting]
            denom = np.vecdot(hs, hs)  # np.dot's bits per row, unlike einsum
            go = denom != 0.0
            hs, ms, sifting = hs[go], ms[go], sifting[go]
            sd = np.vecdot(ms, ms) / denom[go]
            h[sifting] = hs - ms
            sifting = sifting[~(sd < cfg.sift_sd_threshold)]
            if sifting.size == 0 or it == cfg.max_sift_iterations - 1:
                break  # at the cap emd_decompose's next mean goes unused
            mean_next, has_mean = _envelope_mean_rows(h[sifting], cfg.boundary)
            sifting = sifting[has_mean]
            mean[sifting] = mean_next[has_mean]
        has_extrema = np.zeros(alive.size, dtype=bool)
        has_extrema[_extrema_rows(h)[0]] = True
        alive, h = alive[has_extrema], h[has_extrema]
        if alive.size == 0:
            break
        imfs.append((alive, h))
        residual[alive] = residual[alive] - h
    return imfs, residual


def _component_arrays(imfs: np.ndarray, grid: SegmentGrid, offset: int = 0
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment (amplitude, frequency, resolvable) arrays for a stack of IMFs.

    imfs is (rows, samples); each result is (rows, segments). Segment k of
    a row spans samples [offset + k*L, offset + (k+1)*L). Sign flips are
    located once over the whole row and each flip is attributed to the
    segment containing the later sample of the flipping pair, so a crossing
    that straddles a segment boundary is counted exactly once. Passing
    offset=1 gives the first segment one sample of incoming context, which is
    how buffered analysis avoids losing crossings at buffer boundaries.
    """
    seg_len = grid.segment_len_samples
    n_seg = grid.segment_count
    rows = imfs.shape[0]
    end = offset + n_seg * seg_len
    m = imfs[:, offset:end].reshape(rows * n_seg, seg_len)

    amplitude = np.sqrt((2.0 / seg_len) * np.einsum("ij,ij->i", m, m)).reshape(rows, n_seg)

    s = np.sign(imfs[:, :end])
    nonzero = s != 0
    if nonzero.all():
        flips = s[:, :-1] != s[:, 1:]
    else:
        # forward-fill zero signs so a crossing through an exact zero counts once
        idx = np.where(nonzero, np.arange(end), 0)
        np.maximum.accumulate(idx, axis=1, out=idx)
        filled = np.take_along_axis(s, idx, axis=1)
        flips = (filled[:, :-1] != filled[:, 1:]) & (filled[:, :-1] != 0)
    prefix = np.zeros((rows, end), dtype=np.int64)
    np.cumsum(flips, axis=1, out=prefix[:, 1:])
    starts = offset + np.arange(n_seg, dtype=np.int64) * seg_len
    crossings = prefix[:, starts + seg_len - 1] - prefix[:, np.maximum(starts - 1, 0)]
    # a zero sample on the span edge marks a crossing instant at the edge,
    # unless the whole span is zero
    live = nonzero.any(axis=1)
    if offset == 0:
        crossings[:, 0] += live & ~nonzero[:, 0]
    crossings[:, -1] += live & ~nonzero[:, -1]

    frequency = crossings / (2.0 * grid.segment_duration_s)
    resolvable = crossings >= 2
    return amplitude, frequency, resolvable
