"""Empirical Mode Decomposition and per-segment component estimation.

The decomposition follows the classic sifting recipe (Rilling, Flandrin and
Goncalves, "On empirical mode decomposition and its algorithms", NSIP 2003):
cubic-spline envelopes through the local extrema, subtract the envelope
mean, repeat until the normalized squared change between iterations drops
below a threshold, then peel the intrinsic mode function off and continue
on the remainder. Envelope end-swing is suppressed by mirroring a few
extrema beyond each edge before fitting the splines.

There is one sift loop, over a stack of equal-length rows
(emd_decompose_rows); emd_decompose is its one-row case. On a 501-sample
buffer the cost of sifting is per-call overhead, not arithmetic, so the
100 ms buffers of a capture sift in lockstep: every row still sifting adds
its two envelopes to one block-diagonal spline solve and one evaluation per
iteration, and each row stops under its own rules. Only knot placement has
two forms. One row mirrors its knots with plain slices (_mirror_knots), a
stack with padded arrays (_knot_rows); on one buffer with about 120
extrema they took 30 us and 214 us (2-core x86-64 VM, numpy 2.4.6).

Everything here is deterministic: the same samples produce bit-identical
output, and a row decomposed in a stack gets exactly the bits it gets on its
own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .signal import Waveform


# The sift recipe. Read at call time, so a test can patch them.
MAX_IMFS = 8
# the classic normalized squared-difference stop criterion
SIFT_SD_THRESHOLD = 0.2
MAX_SIFT_ITERATIONS = 50
# extrema mirrored past each edge before envelope fitting
BOUNDARY = 2


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


def _extrema_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior maxima and minima of every row of a 2-D stack: (row, index, is_max).

    Ordered by row and then by index. A plateau counts once, at its
    midpoint.
    """
    d = x[:, 1:] - x[:, :-1]
    w = d.shape[1]
    moving = d != 0
    nz = moving.ravel().nonzero()[0]  # much faster than 2-D nonzero
    rising = d[moving] > 0
    flip = rising[:-1] != rising[1:]
    if x.shape[0] > 1:  # a row's last change and the next row's first make no extremum
        row = nz // w
        flip &= row[:-1] == row[1:]
    flips = flip.nonzero()[0]
    row = nz[flips] // w
    locs = (nz[flips] + 1 + nz[flips + 1]) // 2 - row * w
    return row, locs, rising[flips]


def _has_extrema_rows(x: np.ndarray) -> np.ndarray:
    """Which rows of a 2-D stack have an interior extremum, as a bool per row.

    A row has one exactly when some step rises and some step falls, since
    the row turns somewhere between the two. These are the rows
    _extrema_rows finds extrema in (both count a NaN step as falling), found
    without locating the extrema.
    """
    d = x[:, 1:] - x[:, :-1]
    return (d > 0).any(axis=1) & ~(d >= 0).all(axis=1)


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

    # Right edge, mirror image of the left-edge logic; with fewer than k - 1
    # extrema the endpoint joins all of them
    if max_idx[-1] > min_idx[-1]:        # signal descends from a final peak
        if x[-1] < x[min_idx[-1]]:
            rsrc_max = max_idx[-k:]
            rsrc_min = np.concatenate([min_idx[max(len(min_idx) - (k - 1), 0):], [last]])
            rsym = last
        else:
            rsrc_max, rsrc_min, rsym = max_idx[-k - 1:-1], min_idx[-k:], max_idx[-1]
    else:                                # signal climbs from a final trough
        if x[-1] > x[max_idx[-1]]:
            rsrc_max = np.concatenate([max_idx[max(len(max_idx) - (k - 1), 0):], [last]])
            rsrc_min = min_idx[-k:]
            rsym = last
        else:
            rsrc_max, rsrc_min, rsym = max_idx[-k:], min_idx[-k - 1:-1], min_idx[-1]

    return (*_knot_set(x, max_idx, lsrc_max, lsym, rsrc_max, rsym, k),
            *_knot_set(x, min_idx, lsrc_min, lsym, rsrc_min, rsym, k))


def _knot_set(x: np.ndarray, idx: np.ndarray, lsrc: np.ndarray, lsym: int,
              rsrc: np.ndarray, rsym: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One envelope's knots: extrema idx, lsrc mirrored about lsym, rsrc about rsym.

    Each reflection lands strictly outside the extrema it mirrors, so the
    knots are strictly increasing. Coverage guard: if they miss an edge, k
    of idx are mirrored about that edge as well; interior extrema
    (1..n-2) land on or past -1 or n, so the order holds.
    """
    last = x.size - 1
    # sources reversed so reflected positions come out ascending
    src = np.concatenate([lsrc[::-1], idx, rsrc[::-1]])
    t = np.concatenate([2 * lsym - lsrc[::-1], idx, 2 * rsym - rsrc[::-1]])
    if t[0] > 0:
        src, t = np.concatenate([idx[k - 1::-1], src]), np.concatenate([-idx[k - 1::-1], t])
    if t[-1] < last:
        guard = idx[:-k - 1:-1]
        src, t = np.concatenate([src, guard]), np.concatenate([t, 2 * last - guard])
    return t.astype(np.float64), x[src]


def _knot_rows(x: np.ndarray, k: int, rows: np.ndarray, max_idx: np.ndarray,
               min_idx: np.ndarray, n_max: np.ndarray, n_min: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_mirror_knots for each of many rows at once: (t, v, counts).

    max_idx and min_idx hold the extrema of every row of x in row order,
    n_max and n_min how many each row has. The 2 x rows knot sets come back
    to back, each row's upper envelope in rows' order and then each row's
    lower one; counts holds their sizes.

    Each envelope is laid out as padded columns: k span-guard knots left, k
    reflected left, its extrema, k reflected right, k span-guard knots
    right. Every run of k sources is consecutive extrema; a source one place
    before the first or after the last is that edge's sample, and sources
    past the other end do not exist. That is _mirror_knots' choice of
    sources, with its slices cut short the same way.
    """
    last = x.shape[1] - 1
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

    # one envelope per line from here on: the uppers, then the lowers
    idx = np.concatenate([max_idx, min_idx])
    first = np.concatenate([ms, ns + max_idx.size])[:, None]
    end = first + np.concatenate([n_max, n_min])[:, None]
    width = int((end - first).max())
    j = np.arange(k)

    def from_left(pick):  # a run counted from the first extremum, reversed
        src = np.where(pick < first, 0, idx.take(pick, mode="clip"))
        return src[:, ::-1], (pick < end)[:, ::-1]

    def from_right(pick):  # a run counted back from the last extremum, reversed
        src = np.where(pick < end, idx.take(pick, mode="clip"), last)
        return src[:, ::-1], (pick >= first)[:, ::-1]

    l_src, l_used = from_left(first + j + np.concatenate([l_max, l_min])[:, None])
    r_src, r_used = from_right(end - k + j + np.concatenate([r_max, r_min])[:, None])
    pick = first + np.arange(width)
    mid, mid_used = idx.take(pick, mode="clip"), pick < end
    t = np.concatenate([2.0 * np.concatenate([l_sym, l_sym])[:, None] - l_src, mid,
                        2.0 * np.concatenate([r_sym, r_sym])[:, None] - r_src], axis=1)
    used = np.concatenate([l_used, mid_used, r_used], axis=1)
    # span guard: an envelope with no knot on or past an edge gets its own
    # extrema reflected about that edge
    gl_src, gl_used = from_left(first + j)
    gr_src, gr_used = from_right(end - k + j)
    gl_used &= (np.where(used, t, np.inf).min(axis=1) > 0)[:, None]
    gr_used &= (np.where(used, t, -np.inf).max(axis=1) < last)[:, None]
    t = np.concatenate([-gl_src.astype(np.float64), t, 2.0 * last - gr_src], axis=1)
    used = np.concatenate([gl_used, used, gr_used], axis=1)
    src = np.concatenate([gl_src, l_src, mid, r_src, gr_src], axis=1)
    v = x[np.concatenate([rows, rows])[:, None], src]
    return t[used], v[used], used.sum(axis=1)


def _spline_mean_flat(t: np.ndarray, v: np.ndarray, counts: np.ndarray, n: int
                      ) -> np.ndarray:
    """Mean of upper and lower natural cubic spline envelopes for many rows at once.

    t and v hold 2 x rows knot sets back to back: every row's upper envelope,
    then every row's lower one; counts holds their sizes. Each knot set has
    integer positions, strictly increasing, its first <= 0 and its last
    >= n - 1. The systems of all sets form one block-diagonal tridiagonal
    system for one gtsv call; they never pivot and the blocks are uncoupled,
    so each set's spline has the bits it would have alone. Each spline is
    evaluated at 0..n-1; at the last sample an upper envelope whose last knot
    sits on it reads that knot's value, a lower one stays on its last
    interval.
    """
    from scipy.linalg.lapack import dgtsv  # imported by the first sift, not with the module

    end = counts.cumsum() - 1
    h = t[1:] - t[:-1]
    h[end[:-1]] = 1.0  # steps between knot sets: any positive value, never used
    dv = (v[1:] - v[:-1]) / h
    # m, the second derivatives, is zero on each set's first and last knot;
    # the rows of the other knots form the tridiagonal system
    inner = np.ones(t.size, dtype=bool)
    inner[end - counts + 1] = False
    inner[end] = False
    rows = inner[1:-1]
    d = (2.0 * (h[:-1] + h[1:]))[rows]
    rhs = (6.0 * (dv[1:] - dv[:-1]))[rows]
    # sub/superdiagonal; zero between knot sets, so the blocks stay uncoupled
    dl = np.where(inner[2:], h[1:], 0.0)[rows][:-1]
    m = np.zeros(t.size)
    m[inner] = dgtsv(dl, d, dl.copy(), rhs,
                     overwrite_dl=True, overwrite_d=True,
                     overwrite_du=True, overwrite_b=True)[3]

    # per-interval cubic coefficients; the intervals bridging knot sets get zeros
    a = (m[1:] - m[:-1]) / (6.0 * h)
    b = 0.5 * m[:-1]
    c = dv - h * (2.0 * m[:-1] + m[1:]) / 6.0
    a[end[:-1]] = b[end[:-1]] = c[end[:-1]] = 0.0

    # Samples per interval: knot i covers samples t[i] .. t[i+1]-1, the last
    # knot of an upper set covers up to n-1, and a lower set's last interval
    # runs to n-1 instead.
    pos = t.clip(0, n).astype(np.intp)
    half = end.size // 2
    pos[end[half:]] = n
    covers = pos[1:] - pos[:-1]
    covers[end[:-1]] = n - pos[end[:-1]]
    dt = t[:-1].repeat(covers).reshape(-1, n)
    np.subtract(np.arange(n, dtype=np.float64), dt, out=dt)
    dt = dt.ravel()
    # Horner's rule, v + dt * (c + dt * (b + dt * a)), in place; each step
    # rounds as the nested expression does
    env = a.repeat(covers)
    env *= dt
    env += b.repeat(covers)
    env *= dt
    env += c.repeat(covers)
    env *= dt
    env += v[:-1].repeat(covers)
    env = env.reshape(-1, n)
    mean = env[:half]
    mean += env[half:]
    mean *= 0.5
    return mean


def _envelope_mean_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Envelope mean of each row of a 2-D stack that has one: (means, has_mean).

    A row has a mean if it has at least two maxima and two minima; means
    holds those rows' means, in order. One row places its mirrored knots
    with _mirror_knots, a stack with _knot_rows, which is faster for many
    rows and slower for one; both give the same knots.
    """
    n_rows, n = x.shape
    row, locs, is_max = _extrema_rows(x)
    max_idx, min_idx = locs[is_max], locs[~is_max]
    if n_rows == 1:
        has_mean = np.array([max_idx.size >= 2 and min_idx.size >= 2])
        if not has_mean[0]:
            return x[:0], has_mean
        t_up, v_up, t_lo, v_lo = _mirror_knots(x[0], max_idx, min_idx, BOUNDARY)
        t, v = np.concatenate([t_up, t_lo]), np.concatenate([v_up, v_lo])
        counts = np.array([t_up.size, t_lo.size])
    else:
        n_max = np.bincount(row[is_max], minlength=n_rows)
        n_min = np.bincount(row[~is_max], minlength=n_rows)
        has_mean = (n_max >= 2) & (n_min >= 2)
        rows = has_mean.nonzero()[0]
        if rows.size == 0:
            return x[:0], has_mean
        t, v, counts = _knot_rows(x, BOUNDARY, rows, max_idx, min_idx, n_max, n_min)
    return _spline_mean_flat(t, v, counts, n), has_mean


def emd_decompose(waveform: Waveform) -> ImfSet:
    """Decompose a waveform into intrinsic mode functions plus a residual.

    Stops at MAX_IMFS or when the remainder is monotone (fewer than two
    maxima or minima). Each IMF is sifted until the normalized squared
    difference between successive iterates falls below SIFT_SD_THRESHOLD or
    MAX_SIFT_ITERATIONS is reached. The components always sum back to the
    input to within floating-point rounding. This is emd_decompose_rows on
    one row.
    """
    rate = waveform.sample_rate_hz
    imfs, residual = emd_decompose_rows(waveform.samples[None])
    return ImfSet(imfs=tuple(Waveform(stack[0], rate) for _, stack in imfs),
                  residual=Waveform(residual[0], rate))


def emd_decompose_rows(x: np.ndarray
                       ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """emd_decompose every row of a 2-D stack of equal-length signals.

    Returns (imfs, residual). imfs[j] is a pair (rows, stack): the indices
    of the rows that have a (j+1)-th IMF, ascending, and those IMFs. residual
    is the stack of residuals. The rows sift in lockstep, and each row
    leaves the loop under its own stop rules: too few extrema, a zero SD
    denominator, the SD stop or the iteration cap. So a row's IMFs and
    residual have the same bits in any stack, alone included.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DataError("emd_decompose_rows expects a 2-D stack of rows")
    if x.shape[1] < 8:
        raise DataError(f"need at least 8 samples to decompose, got {x.shape[1]}")

    residual = x.copy()
    imfs: list[tuple[np.ndarray, np.ndarray]] = []
    # rows still peeling off IMFs, and their remainders; a row that stops
    # leaves its remainder in residual
    alive, r = np.arange(x.shape[0]), residual
    for _ in range(MAX_IMFS):
        mean, keep = _envelope_mean_rows(r)
        if not keep.all():  # too few extrema
            residual[alive[~keep]] = r[~keep]
            alive, r = alive[keep], r[keep]
        if alive.size == 0:
            break
        h = _sift(r, mean)
        keep = _has_extrema_rows(h)
        if not keep.all():  # sifting flattened the remainder
            residual[alive[~keep]] = r[~keep]
            alive, r, h = alive[keep], r[keep], h[keep]
            if alive.size == 0:
                break
        imfs.append((alive, h))
        r = r - h
    residual[alive] = r
    return imfs, residual


def _sift(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Sift every row of x, whose envelope means are given, to its next IMF.

    The rows sift in lockstep; each stops at a zero SD denominator, the SD
    stop, the iteration cap or when its iterate has too few extrema.
    """
    h = np.empty_like(x)
    sifting, hs = np.arange(x.shape[0]), x  # rows still sifting and their iterates
    for it in range(MAX_SIFT_ITERATIONS):
        denom = np.vecdot(hs, hs)  # np.dot's bits per row, unlike einsum
        if not denom.all():
            go = denom != 0.0
            h[sifting[~go]] = hs[~go]
            sifting, hs, mean, denom = sifting[go], hs[go], mean[go], denom[go]
        sd = np.vecdot(mean, mean) / denom
        hs = hs - mean
        stop = sd < SIFT_SD_THRESHOLD
        n_stop = np.count_nonzero(stop)
        if n_stop == stop.size or it == MAX_SIFT_ITERATIONS - 1:
            break  # at the cap the next mean would go unused
        if n_stop:
            h[sifting[stop]] = hs[stop]
            sifting, hs = sifting[~stop], hs[~stop]
        mean, go = _envelope_mean_rows(hs)
        if not go.all():
            h[sifting[~go]] = hs[~go]
            sifting, hs = sifting[go], hs[go]
    h[sifting] = hs
    return h


def _component_arrays(imfs: np.ndarray, seg_len: int, seg_duration_s: float,
                      offset: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment (amplitude, frequency, resolvable) arrays for a stack of IMFs.

    imfs is (rows, samples); each result is (rows, segments). Segment k of
    a row spans samples [offset + k*L, offset + (k+1)*L) for L = seg_len,
    and a trailing partial segment is dropped. Sign flips are
    located once over the whole row and each flip is attributed to the
    segment containing the later sample of the flipping pair, so a crossing
    that straddles a segment boundary is counted exactly once. Passing
    offset=1 gives the first segment one sample of incoming context, which is
    how buffered analysis avoids losing crossings at buffer boundaries.
    """
    rows = imfs.shape[0]
    n_seg = (imfs.shape[1] - offset) // seg_len
    end = offset + n_seg * seg_len
    m = imfs[:, offset:end].reshape(rows * n_seg, seg_len)

    amplitude = np.sqrt((2.0 / seg_len) * np.einsum("ij,ij->i", m, m)).reshape(rows, n_seg)

    s = np.sign(imfs[:, :end])
    nonzero = s != 0
    # flips[:, j]: the sign flips from sample lo - 1 + j to lo + j, the sample
    # the flip is attributed to
    lo = max(offset, 1)
    if nonzero.all():
        flips = s[:, lo - 1:-1] != s[:, lo:]
    else:
        # forward-fill zero signs so a crossing through an exact zero counts once
        idx = np.where(nonzero, np.arange(end), 0)
        np.maximum.accumulate(idx, axis=1, out=idx)
        filled = np.take_along_axis(s, idx, axis=1)
        flips = (filled[:, lo - 1:-1] != filled[:, lo:]) & (filled[:, lo - 1:-1] != 0)
    if offset == 0:  # no flip ends at sample 0
        flips = np.concatenate([np.zeros((rows, 1), dtype=bool), flips], axis=1)
    crossings = flips.reshape(rows, n_seg, seg_len).sum(axis=2)
    # a zero sample on the span edge marks a crossing instant at the edge,
    # unless the whole span is zero
    live = nonzero.any(axis=1)
    if offset == 0:
        crossings[:, 0] += live & ~nonzero[:, 0]
    crossings[:, -1] += live & ~nonzero[:, -1]

    frequency = crossings / (2.0 * seg_duration_s)
    resolvable = crossings >= 2
    return amplitude, frequency, resolvable
