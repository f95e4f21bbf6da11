"""Frozen per-buffer sift: the bit-for-bit oracle for ismkit.emd.

This is the one-signal decomposition ismkit used before its sift loop was
unified with the stacked one, kept verbatim apart from one rule: when an
edge needs more endpoint-side sources than a row has extrema of a kind, the
source slice starts at the first extremum instead of wrapping around to the
end of the array. The package must reproduce it bit for bit, one row at a
time and in stacks. Extrema, mirrored knots with the span guard, the natural
cubic spline envelopes and the sifting rules follow Rilling, Flandrin and
Goncalves, "On empirical mode decomposition and its algorithms" (NSIP 2003).
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

(_DGTSV,) = get_lapack_funcs(("gtsv",), (np.empty(0, dtype=np.float64),))


def find_extrema(x):
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


def _reflect(x, src, sym):
    rev = src[::-1]
    return 2.0 * sym - rev.astype(np.float64), x[rev]


def _tail(idx, count):
    """The last `count` entries of idx, or all of them if it has fewer."""
    return idx[max(len(idx) - count, 0):]


def mirror_knots(x, max_idx, min_idx, n_mirror):
    """Extrema extended past both edges by symmetric reflection, then span-guarded."""
    n = len(x)
    last = n - 1
    k = n_mirror

    if max_idx[0] < min_idx[0]:
        if x[0] > x[min_idx[0]]:
            lsrc_max, lsrc_min, lsym = max_idx[1:k + 1], min_idx[:k], max_idx[0]
        else:
            lsrc_max = max_idx[:k]
            lsrc_min = np.concatenate([[0], min_idx[:k - 1]])
            lsym = 0
    else:
        if x[0] < x[max_idx[0]]:
            lsrc_max, lsrc_min, lsym = max_idx[:k], min_idx[1:k + 1], min_idx[0]
        else:
            lsrc_max = np.concatenate([[0], max_idx[:k - 1]])
            lsrc_min = min_idx[:k]
            lsym = 0

    if max_idx[-1] > min_idx[-1]:
        if x[-1] < x[min_idx[-1]]:
            rsrc_max = max_idx[-k:]
            rsrc_min = np.concatenate([_tail(min_idx, k - 1), [last]])
            rsym = last
        else:
            rsrc_max, rsrc_min, rsym = max_idx[-k - 1:-1], min_idx[-k:], max_idx[-1]
    else:
        if x[-1] > x[max_idx[-1]]:
            rsrc_max = np.concatenate([_tail(max_idx, k - 1), [last]])
            rsrc_min = min_idx[-k:]
            rsym = last
        else:
            rsrc_max, rsrc_min, rsym = max_idx[-k:], min_idx[-k - 1:-1], min_idx[-1]

    lt_max, lv_max = _reflect(x, lsrc_max, lsym)
    lt_min, lv_min = _reflect(x, lsrc_min, lsym)
    rt_max, rv_max = _reflect(x, rsrc_max, rsym)
    rt_min, rv_min = _reflect(x, rsrc_min, rsym)

    t_up = np.concatenate([lt_max, max_idx.astype(np.float64), rt_max])
    v_up = np.concatenate([lv_max, x[max_idx], rv_max])
    t_lo = np.concatenate([lt_min, min_idx.astype(np.float64), rt_min])
    v_lo = np.concatenate([lv_min, x[min_idx], rv_min])

    t_up, v_up = _ensure_span(x, t_up, v_up, max_idx, k, last)
    t_lo, v_lo = _ensure_span(x, t_lo, v_lo, min_idx, k, last)
    return t_up, v_up, t_lo, v_lo


def _ensure_span(x, t, v, idx, k, last):
    if t[0] > 0:
        add_t, add_v = _reflect(x, idx[:k], 0.0)
        t, v = _dedupe_sorted(np.concatenate([add_t, t]), np.concatenate([add_v, v]))
    if t[-1] < last:
        add_t, add_v = _reflect(x, idx[-k:], float(last))
        t, v = _dedupe_sorted(np.concatenate([t, add_t]), np.concatenate([v, add_v]))
    return t, v


def _dedupe_sorted(t, v):
    if t.size > 1 and ((t[1:] - t[:-1]) <= 0).any():
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        keep = np.concatenate([[True], (t[1:] - t[:-1]) > 0])
        return (t[keep], v[keep])
    return (t, v)


def _spline_system(t, v):
    h = t[1:] - t[:-1]
    dv = (v[1:] - v[:-1]) / h
    d = 2.0 * (h[:-1] + h[1:])
    rhs = 6.0 * (dv[1:] - dv[:-1])
    return h, dv, h[1:-1], d, rhs


def envelope_mean(x, boundary):
    """Mean of the upper and lower natural cubic-spline envelopes, or None."""
    max_idx, min_idx = find_extrema(x)
    if max_idx.size < 2 or min_idx.size < 2:
        return None
    t_up, v_up, t_lo, v_lo = mirror_knots(x, max_idx, min_idx, boundary)
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
    np.minimum(i, t.size - 2, out=i)
    dt = q - t[i]
    hi = h[i]
    mi = m[i]
    mi1 = m[i + 1]
    a = (mi1 - mi) / (6.0 * hi)
    b = 0.5 * mi
    c = dv[i] - hi * (2.0 * mi + mi1) / 6.0
    env = v[i] + dt * (c + dt * (b + dt * a))
    return 0.5 * (env[:n] + env[n:])


def reference_decompose(x, max_imfs=8, sift_sd_threshold=0.2, max_sift_iterations=50,
                        boundary=2):
    """(imfs, residual) of one signal, each a float64 array."""
    x = np.asarray(x, dtype=np.float64)
    imfs = []
    residual = x.copy()
    for _ in range(max_imfs):
        h = residual.copy()
        mean = envelope_mean(h, boundary)
        if mean is None:
            break
        for _ in range(max_sift_iterations):
            denom = float(np.dot(h, h))
            if denom == 0.0:
                break
            h_next = h - mean
            sd = float(np.dot(mean, mean)) / denom
            h = h_next
            if sd < sift_sd_threshold:
                break
            mean = envelope_mean(h, boundary)
            if mean is None:
                break
        max_idx, min_idx = find_extrema(h)
        if max_idx.size == 0 and min_idx.size == 0:
            break
        imfs.append(h)
        residual = residual - h
    return imfs, residual
