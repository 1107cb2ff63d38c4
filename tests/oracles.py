"""Brute-force reference implementations used only by the tests.

Everything here is written as plainly as possible (explicit loops over
subsets, pairs, windows) and stays independent of the library's vectorized
code paths, so agreement is meaningful.
"""
from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from ccmm.quasimetric import SNAP_RTOL


def open_ball_members(m_vec, r):
    """Indices with m < r under the library's snap convention."""
    thr = r - SNAP_RTOL * max(1.0, r)
    return {i for i, m in enumerate(m_vec) if m < thr}


def alpha_bruteforce(mm, r):
    """max over subsets of mass >= 1/2 of 1 - min of the two neighborhood
    masses, by explicit enumeration."""
    n = mm.n
    d = mm.dist
    w = mm.weights
    best = 0.0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if w[list(subset)].sum() < 0.5:
                continue
            fwd = [min(d[z, x] for z in subset) for x in range(n)]
            bwd = [min(d[x, z] for z in subset) for x in range(n)]
            mu_f = sum(w[i] for i in open_ball_members(fwd, r))
            mu_b = sum(w[i] for i in open_ball_members(bwd, r))
            best = max(best, 1.0 - min(mu_f, mu_b))
    return best


def mu_below_plain(rows, weights, cuts):
    """mu({x : row[x] < c}) for every row and cut, by explicit loops; with
    unit weights, the number of entries below each cut."""
    weights = [float(w) for w in weights]
    return np.array([[sum(w for m, w in zip(row, weights) if m < c) for c in cuts]
                     for row in np.asarray(rows, dtype=float).tolist()])


def alpha_curve_plain(masses, m_fwd, m_bwd, weights, radii):
    """alpha at every radius over the given candidate rows: the largest
    1 - min(mu_f, mu_b) of the rows of mass >= 1/2, and 0 if none, by explicit
    loops over the grid."""
    thresholds = [r - SNAP_RTOL * max(1.0, r) for r in radii]
    mu_f = mu_below_plain(m_fwd, weights, thresholds)
    mu_b = mu_below_plain(m_bwd, weights, thresholds)
    curve = []
    for k in range(len(thresholds)):
        best = 0.0
        for i, mass in enumerate(masses):
            if mass >= 0.5:
                best = max(best, 1.0 - min(mu_f[i][k], mu_b[i][k]))
        curve.append(best)
    return np.array(curve)


def transfer_margins_plain(masses, m_fwd, m_bwd, weights, radii, beta):
    """(enlargement margin, alpha margin) of the transfer check over the given
    rows: beta(mass r) - (1 - mu) at every row, direction and radius, and
    beta(r / 2) - alpha(r), each minimized by explicit loops over the grid."""
    thresholds = [r - SNAP_RTOL * max(1.0, r) for r in radii]
    enlargement = math.inf
    for rows in (m_fwd, m_bwd):
        mu = mu_below_plain(rows, weights, thresholds)
        for i, mass in enumerate(masses):
            for k, r in enumerate(radii):
                b = float(beta(float(mass) * float(r)))
                enlargement = min(enlargement, b - (1.0 - mu[i][k]))
    curve = alpha_curve_plain(masses, m_fwd, m_bwd, weights, radii)
    alpha_margin = min(float(beta(float(r) / 2.0)) - a for r, a in zip(radii, curve))
    return enlargement, alpha_margin


def strided_enlargement_rows_plain(chunks, max_rows):
    """The rows a strided enlargement scan keeps: every candidate chunk
    concatenated, the sets of mass 1 dropped, then every stride-th row with
    the smallest stride that keeps at most max_rows."""
    masses, m_fwd, m_bwd = (np.concatenate(parts) for parts in zip(*chunks))
    keep = masses < 1.0 - 1e-12
    masses, m_fwd, m_bwd = masses[keep], m_fwd[keep], m_bwd[keep]
    stride = max(1, math.ceil(len(masses) / max_rows))
    return masses[::stride], m_fwd[::stride], m_bwd[::stride]


def partial_diameter_bruteforce(mm, kappa):
    n = mm.n
    best = math.inf
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if mm.weights[list(subset)].sum() < 1.0 - kappa - 1e-12:
                continue
            diam = max(mm.dist[i, j] for i in subset for j in subset)
            best = min(best, diam)
    return best


def partial_diameter_heuristic_plain(mm, kappa):
    """The ball and greedy-peeling upper bound of the partial diameter, center
    by center: the smallest ball of mass >= 1 - kappa in each direction, from
    a stable sort and a cumulative sum of that center's row alone."""
    need = 1.0 - kappa - 1e-12
    w, d, n = mm.weights, mm.dist, mm.n
    best = float(d.max())
    for center in range(n):
        for vec in (d[center, :], d[:, center]):
            order = np.argsort(vec, kind="stable")
            cum = np.cumsum(w[order])
            k = int(np.searchsorted(cum, need, side="left"))
            if k < n:
                ball = order[:k + 1]
                best = min(best, max(float(d[i, j]) for i in ball for j in ball))
    idx = list(range(n))
    mass = 1.0
    while True:
        sub = d[np.ix_(idx, idx)]
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        best = min(best, float(sub[i, j]))
        removable = [k for k in (i, j) if mass - w[idx[k]] >= need]
        if not removable:
            return best
        k = min(removable, key=lambda k: w[idx[k]])
        mass -= w[idx[k]]
        idx.pop(k)
        if len(idx) <= 1:
            return 0.0


def window_pardiam_bruteforce(weights, values, kappa):
    """Shortest closed interval with pushforward mass >= 1 - kappa, trying
    every pair of value endpoints."""
    vals = sorted(set(values))
    need = 1.0 - kappa - 1e-12
    best = math.inf
    for lo in vals:
        for hi in vals:
            if hi < lo:
                continue
            mass = sum(w for w, v in zip(weights, values) if lo <= v <= hi)
            if mass >= need:
                best = min(best, hi - lo)
    return best


def pushforward_pardiam_plain(weights, values, kappa):
    """The pushforward partial diameter by a two-pointer sliding window over
    the stably sorted values, with the same prefix masses and the same
    floating predicate cw[j + 1] - cw[i] < need as the library, so the two
    agree bit for bit."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    vs = values[order]
    cw = np.concatenate([[0.0], np.cumsum(np.asarray(weights)[order])])
    need = 1.0 - kappa - 1e-12
    best = math.inf
    j = 0
    for i in range(len(vs)):
        if j < i:
            j = i
        while j < len(vs) and cw[j + 1] - cw[i] < need:
            j += 1
        if j == len(vs):
            break
        best = min(best, float(vs[j] - vs[i]))
    if best is math.inf:  # only reachable through degenerate rounding
        best = float(vs[-1] - vs[0])
    return best


def lipschitz_constant_bruteforce(space, f):
    n = space.n
    best = 0.0
    for x in range(n):
        for z in range(n):
            if x != z:
                best = max(best, (f[z] - f[x]) / space.dist[x, z])
    return best


def isoperimetric_profile_bruteforce(mm, scale):
    """min over subsets at each rounded mass of the smaller content."""
    n = mm.n
    d = mm.dist
    w = mm.weights
    out = {0.0: 0.0, 1.0: 0.0}
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            mass = float(w[list(subset)].sum())
            fwd = [min(d[z, x] for z in subset) for x in range(n)]
            bwd = [min(d[x, z] for z in subset) for x in range(n)]
            mu_f = sum(w[i] for i in open_ball_members(fwd, scale))
            mu_b = sum(w[i] for i in open_ball_members(bwd, scale))
            content = min(max(mu_f - mass, 0.0), max(mu_b - mass, 0.0)) / scale
            key = round(mass, 12)
            if key not in out or content < out[key]:
                out[key] = content
    return sorted(out.items())


def isoperimetric_profile_grouped_plain(mm, scale, strategy="exact", family=None, seed=0):
    """The library's candidate contents grouped by a plain loop: one dict
    entry per Python-rounded mass, lowered by every smaller content."""
    from ccmm.concentration import _sorted_chunks
    from ccmm.isoperimetry import _content_rows

    best = {0.0: 0.0, 1.0: 0.0}
    for masses, fwd, bwd in _sorted_chunks(mm, strategy, family, 0.0, seed):
        contents = np.minimum(*_content_rows(masses, fwd, bwd, float(scale)))
        for mass, cont in zip(masses, contents):
            key = round(float(mass), 12)
            if key >= 1.0 - 1e-12:
                continue
            if key not in best or cont < best[key]:
                best[key] = float(cont)
    return sorted(best.items())


def first_point_past_plain(t, radii, masses):
    """The smallest radius, or product mass * radius with radius > 0, above
    t, by a scan over every pair; inf if none."""
    points = [float(r) for r in radii]
    points += [float(m) * float(r) for m in masses for r in radii if r > 0]
    return min((p for p in points if p > t), default=math.inf)


def slopes_plain(dist, f):
    """Ascending slope max(0, max over z != x of (f(z) - f(x)) / d(x, z)) at
    every point x, by a loop over the ordered pairs from 0.0."""
    n = len(f)
    out = []
    for x in range(n):
        s = 0.0
        for z in range(n):
            if z != x and dist[x][z] > 0:
                s = max(s, (float(f[z]) - float(f[x])) / float(dist[x][z]))
        out.append(s)
    return np.array(out)


def cheby_tail(weights, values, r):
    mean = float(np.dot(weights, values))
    return float(sum(w for w, v in zip(weights, values) if abs(v - mean) >= r))


def slope_quotient(dist, weights, f):
    """Weighted squared ascending slope over the variance, from the
    definition: the slope at x is max(0, max over z != x of
    (f(z) - f(x)) / d(x, z)); a constant field gives inf."""
    f = np.asarray(f, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (f[None, :] - f[:, None]) / dist
    q[~(dist > 0)] = 0.0  # the diagonal entry doubles as the zero floor
    slope = q.max(axis=1)
    mean = float(weights @ f)
    var = float(weights @ (f - mean) ** 2)
    return float(weights @ slope ** 2) / var if var > 0 else math.inf


def symmetric_slope_quotient_minimum(mm):
    """Upper bound on the infimum of the slope quotient: a converged local
    Powell search over fields symmetric about point 0 (f(i) = f(n - i)),
    started from the continuum eigenfunction -cos(2 pi i / n) of a cycle.
    Raises if the search stops before converging."""
    from scipy.optimize import minimize

    n = mm.n
    half = np.minimum(np.arange(n), n - np.arange(n))
    start = -np.cos(2 * math.pi * np.arange(n // 2 + 1) / n)
    res = minimize(lambda p: slope_quotient(mm.dist, mm.weights, p[half]),
                   start, method="Powell")
    if not res.success:
        raise RuntimeError(f"Powell search did not converge: {res.message}")
    return float(res.fun)


def mass_decay_chain_bruteforce(mm, A, eps):
    """The enlargement chain of the two-set recursion, by plain loops.

    Each step holds a = mu(A_k), b = mu of the points farther than eps from
    A_k (closed enlargement under the snap convention), the quotient
    lambda_f of the test function f = 1/a - (1/eps)(1/a + 1/b) min(d(., A_k), eps),
    the quotient lambda_band with the numerator restricted to the band
    A_{k+1} minus A_k, and bound = (1 - a) / (1 + lambda_f eps^2 a) with
    margin = bound - b.  Returns (steps, how the chain ended).
    """
    n, d, w = mm.n, mm.dist, mm.weights
    thr = eps + SNAP_RTOL * max(1.0, eps)
    members = sorted(set(A))
    steps = []
    for k in range(n + 1):
        m = [min(d[x, z] for z in members) for x in range(n)]
        nxt = [x for x in range(n) if m[x] <= thr]
        far = [x for x in range(n) if m[x] > thr]
        a = sum(w[x] for x in members)
        b = sum(w[x] for x in far)
        if b <= 0.0:
            steps.append({"k": k, "a": a, "b": b, "lambda_f": math.nan,
                          "lambda_band": math.nan, "bound": 1.0 - a,
                          "margin": 1.0 - a - b})
            return steps, "complement exhausted"
        coef = (1.0 / a + 1.0 / b) / eps
        f = [1.0 / a - coef * min(m[x], eps) for x in range(n)]
        slope = []
        for x in range(n):
            s = 0.0
            for z in range(n):
                if z != x and d[x, z] > 0:
                    s = max(s, (f[z] - f[x]) / d[x, z])
            slope.append(s)
        mean = sum(w[x] * f[x] for x in range(n))
        var = sum(w[x] * (f[x] - mean) ** 2 for x in range(n))
        band = [x for x in nxt if x not in members]
        lam = sum(w[x] * slope[x] ** 2 for x in range(n)) / var
        lam_band = sum(w[x] * slope[x] ** 2 for x in band) / var
        bound = (1.0 - a) / (1.0 + lam * eps * eps * a)
        steps.append({"k": k, "a": a, "b": b, "lambda_f": lam,
                      "lambda_band": lam_band, "bound": bound,
                      "margin": bound - b})
        if not band:
            return steps, "enlargement stalled"
        members = nxt
    return steps, "max steps reached"


def jacobi_eigh_plain(A, rel_tol=1e-12, max_sweeps=60):
    """Cyclic Jacobi diagonalization with one rotation of A's columns, A's
    rows and V's columns at a time, each a fresh temporary.  The library's
    in-place solver must return the same eigenvalues and eigenvectors, bit
    for bit, because it performs the same floating-point operations in the
    same order."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        return np.zeros(n), V
    skip = 1e-15 * scale
    for _ in range(max_sweeps):
        off = A - np.diag(np.diag(A))
        if float(np.max(np.abs(off))) <= rel_tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                vcol_p = V[:, p].copy()
                vcol_q = V[:, q].copy()
                V[:, p] = c * vcol_p - s * vcol_q
                V[:, q] = s * vcol_p + c * vcol_q
    vals = np.diag(A).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], V[:, order]


def oracle_weights_plain(dist, w, k):
    """The directed k-NN weights w_i / (k d(i, j)^2) of the oracle Laplacian,
    point by point: each row's k nearest other points in stable order, the
    square taken by the C library's pow, as Python's float power takes it."""
    n = len(dist)
    k = min(k, n - 1)
    W = np.zeros((n, n))
    for i in range(n):
        order = [int(j) for j in np.argsort(dist[i], kind="stable") if j != i][:k]
        for j in order:
            W[i, j] = float(w[i]) / (k * float(dist[i, j]) ** 2)
    return W


def subgradient_plain(dist, w, f):
    """Exact subgradient of the squared-slope numerator, accumulated by a
    plain loop over the active points in ascending order: the argmax target
    gains 2 w(x) s(x) / d(x, z) and x loses it."""
    invd = 1.0 / np.where(dist > 0, dist, np.inf)
    q = (f[None, :] - f[:, None]) * invd
    np.fill_diagonal(q, -np.inf)
    arg = q.argmax(axis=1)
    s = np.maximum(q[np.arange(len(f)), arg], 0.0)
    grad = np.zeros_like(f)
    for x in np.nonzero(s > 0)[0]:
        z = arg[x]
        coef = 2.0 * w[x] * s[x] * invd[x, z]
        grad[z] += coef
        grad[x] -= coef
    return grad


def smooth_value_grad_plain(dist, w, f, T):
    """Smoothed squared-slope numerator and its gradient, every intermediate
    a fresh n x n temporary.  The library's scratch-buffer version must match
    it bit for bit, because it evaluates the same expressions in the same
    order."""
    invd = 1.0 / np.where(dist > 0, dist, np.inf)
    q = (f[None, :] - f[:, None]) * invd
    np.fill_diagonal(q, -np.inf)
    m = np.maximum(q.max(axis=1), 0.0)
    e = np.exp((q - m[:, None]) / T)
    np.fill_diagonal(e, 0.0)
    z = e.sum(axis=1) + np.exp(-m / T)
    s = m + T * np.log(z)
    p = e / z[:, None]
    g_mat = (w * s)[:, None] * p * invd
    grad = 2.0 * (g_mat.sum(axis=0) - g_mat.sum(axis=1))
    return float(w @ s ** 2), grad


def normalized_plain(f, w):
    """Centered unit-variance copy of one field, or None for a field of zero
    or non-finite variance."""
    g = f - float(w @ f)
    var = float(w @ g ** 2)
    if var <= 0.0 or not math.isfinite(var):
        return None
    return g / math.sqrt(var)


def exact_numerator_plain(dist, w, f):
    """The squared-slope numerator w @ slope(f)^2 of one field."""
    q = (f[None, :] - f[:, None]) / np.where(dist > 0, dist, np.inf)
    np.fill_diagonal(q, -np.inf)
    return float(w @ np.maximum(q.max(axis=1), 0.0) ** 2)


def descend_plain(dist, w, f0):
    """The annealed descent from one start, one field at a time, as the
    library ran each restart before the restarts were batched.  Every row of
    the batched descent must return this (numerator, field), bit for bit."""
    f = normalized_plain(f0, w)
    if f is None:
        return math.inf, f0
    q = (f[None, :] - f[:, None]) / np.where(dist > 0, dist, np.inf)
    np.fill_diagonal(q, -np.inf)
    slope_scale = float(np.maximum(q.max(axis=1), 0.0).max())
    if slope_scale <= 0.0:
        return math.inf, f
    best_val = exact_numerator_plain(dist, w, f)
    best_f = f.copy()
    for t_rel in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        T = t_rel * slope_scale
        eta = 0.25
        for _ in range(30):
            _, grad = smooth_value_grad_plain(dist, w, f, T)
            gmax = float(np.max(np.abs(grad)))
            if gmax <= 0.0 or not math.isfinite(gmax):
                break
            cand = normalized_plain(f - eta * (grad / gmax), w)
            if cand is None:
                break
            f = cand
            val = exact_numerator_plain(dist, w, f)
            if val < best_val:
                best_val = val
                best_f = f.copy()
            eta *= 0.88
    f = best_f.copy()
    eta = 0.08
    for _ in range(30):
        grad = subgradient_plain(dist, w, f)
        gmax = float(np.max(np.abs(grad)))
        if gmax <= 0.0:
            break
        cand = normalized_plain(f - eta * (grad / gmax), w)
        if cand is None:
            break
        f = cand
        val = exact_numerator_plain(dist, w, f)
        if val < best_val:
            best_val = val
            best_f = f.copy()
        eta *= 0.9
    return best_val, best_f


# ---------------------------------------------------------------------------
# a test family read member by member, as the suite read it before the
# family became one (m, n) stack
# ---------------------------------------------------------------------------

def generate_family_plain(mm, count, seed):
    """Distance cones, then one inf-convolution of a random field per draw;
    the member rows and their tags."""
    n = mm.n
    rows = [mm.dist[p, :] for p in range(n)] + [-mm.dist[:, p] for p in range(n)]
    rng = np.random.default_rng(seed)
    amp = float(mm.dist.max())
    for _ in range(count - 2 * n):
        raw = rng.uniform(0.0, 1.0, n) * amp
        rows.append((raw[:, None] + mm.dist).min(axis=0))
    tags = (["distance-to-point"] * n + ["negative-distance-from-point"] * n
            + ["inf-convolution"] * (count - 2 * n))
    return np.array(rows), tags


def upper_tails_plain(weights, values, thresholds):
    """mu(values >= t) per threshold, from one stable sort of the values."""
    order = np.argsort(values, kind="stable")
    cw = np.concatenate([[0.0], np.cumsum(weights[order])])
    return cw[-1] - cw[np.searchsorted(values[order], thresholds, side="left")]


def lower_tails_plain(weights, values, thresholds):
    """mu(values <= t) per threshold, from one stable sort of the values."""
    order = np.argsort(values, kind="stable")
    cw = np.concatenate([[0.0], np.cumsum(weights[order])])
    return cw[np.searchsorted(values[order], thresholds, side="right")]


def median_plain(weights, values):
    """The lower median, the first sorted value holding half the mass on
    both sides."""
    order = np.argsort(values, kind="stable")
    ws = weights[order]
    below = np.cumsum(ws)
    above = 1.0 - below + ws
    ok = np.nonzero((below >= 0.5 - 1e-15) & (above >= 0.5 - 1e-15))[0]
    i = ok[0] if ok.size else int(np.argmin(np.abs(below - 0.5)))
    return float(values[order][i])


def deviations_plain(weights, values):
    return np.abs(values - float(weights @ values))


def moment_norm_plain(weights, values, q):
    return float((weights @ deviations_plain(weights, values) ** q) ** (1.0 / q))


def family_tails_plain(weights, rows, thresholds):
    """mu(|f - mean f| >= t) per member f and threshold t."""
    return np.array([upper_tails_plain(weights, deviations_plain(weights, v), thresholds)
                     for v in rows])


def transfer_hypothesis_plain(weights, rows, beta_at_radii, radii):
    """The worst beta(r) - mu(|f - mean f| >= r) over the members."""
    worst = math.inf
    for v in rows:
        tails = upper_tails_plain(weights, deviations_plain(weights, v), radii)
        worst = min(worst, float(np.min(beta_at_radii - tails)))
    return worst


def mf3_plain(mm, rows, profile):
    """The worst median-deviation margin and its member."""
    w, rhs = mm.weights, profile.alphas
    worst, witness = math.inf, None
    for k, v in enumerate(rows):
        L = max(lipschitz_constant_bruteforce(mm.space, v), 1e-12)
        m = median_plain(w, v)
        rs = L * profile.radii
        up = upper_tails_plain(w, v, m + rs)
        lo = lower_tails_plain(w, v, m - rs)
        margin = min(float(np.min(rhs - up)), float(np.min(rhs - lo)),
                     float(np.min(2 * rhs - (up + lo))))
        if margin < worst:
            worst, witness = margin, {"member": k}
    return worst, witness


def thm33_plain(mm, rows, rs, C2, c2):
    """The worst mean-tail margin under C2 exp(-c2 r^2), with its member and
    radius."""
    bound = C2 * np.exp(-c2 * rs ** 2)
    worst, witness = math.inf, None
    for k, v in enumerate(rows):
        margins = bound - upper_tails_plain(mm.weights, deviations_plain(mm.weights, v), rs)
        j = int(np.argmin(margins))
        if margins[j] < worst:
            worst, witness = float(margins[j]), {"member": k, "r": float(rs[j])}
    return worst, witness


def thm37_plain(mm, rows, bounds):
    """The worst bounds[q] - ||f - mean f||_q, with its member and q."""
    worst, witness = math.inf, None
    for q, bound in bounds.items():
        for k, v in enumerate(rows):
            margin = bound - moment_norm_plain(mm.weights, v, q)
            if margin < worst:
                worst, witness = margin, {"member": k, "q": q}
    return worst, witness


def thm38_plain(mm, rows, rs, square_moment_tail):
    """(margin, witness, notes) of the square-moment tail check, member by
    member at every radius; ``square_moment_tail(C, r)`` is the bound."""
    w = mm.weights
    qs = (1.0, 2.0, 4.0, 8.0)
    largest = {q: max(moment_norm_plain(w, v, q) for v in rows) for q in qs}
    if any(v == 0 for v in largest.values()):
        return 0.0, None, "all-constant family, trivial"
    C_star = min(q / largest[q] ** 2 for q in qs)
    worst, witness, skipped = math.inf, None, 0
    for r in rs:
        regime, bound = square_moment_tail(C_star, float(r))
        q_star = max(1.0, C_star * float(r) ** 2 / math.e)
        for k, v in enumerate(rows):
            if not moment_norm_plain(w, v, q_star) ** 2 <= (q_star / C_star) * (1 + 1e-9):
                skipped += 1
                continue
            tail = upper_tails_plain(w, deviations_plain(w, v), np.array([r]))[0]
            if bound - float(tail) < worst:
                worst = bound - float(tail)
                witness = {"member": k, "r": float(r), "regime": regime}
    notes = "tail bounds from measured square-moment constants"
    if skipped:
        notes += f"; {skipped} points skipped (moment premise unmet at the optimal exponent)"
    return (worst if worst < math.inf else 0.0), witness, notes


def thm39_plain(mm, rows, rs, first_moment_tail):
    """(margin, witness) of the linear tail check from the first moment;
    ``first_moment_tail(C, p, r)`` is the bound."""
    w = mm.weights
    first = max(moment_norm_plain(w, v, 1.0) for v in rows)
    if first == 0:
        return 0.0, None
    worst, witness = math.inf, None
    for p in (1.0, 2.0, 4.0):
        C_p = 1.0 / first ** p
        bounds = np.minimum(1.0, np.array([first_moment_tail(C_p, p, float(r)) for r in rs]))
        for k, v in enumerate(rows):
            margins = bounds - upper_tails_plain(w, deviations_plain(w, v), rs)
            j = int(np.argmin(margins))
            if margins[j] < worst:
                worst, witness = float(margins[j]), {"member": k, "p": p, "r": float(rs[j])}
    return worst, witness


# ---------------------------------------------------------------------------
# the tail envelope on the whole grid: every subset row at every radius
# ---------------------------------------------------------------------------

def tail_envelope_plain(mm, family=None, radii=None, seed=0):
    """The measured mean-deviation tail envelope, with every (subset row,
    radius) pair evaluated: each block's rows, built by min-plus products of
    the subsets' indicators, at all radii, cut to their tops, and the first
    sample point past each front sample found by sorting every block's
    products of masses and radii."""
    from ccmm.concentration import (
        EXACT_MAX_N,
        SampledDecreasing,
        _prefix_masses,
        _set_distance_rows,
        _subset_masks,
    )
    from ccmm.lipschitz import generate_family
    from ccmm.quasimetric import _count_below, _row_block, breakpoint_radii

    if mm.n > EXACT_MAX_N:
        raise ValueError(f"tail envelope enumeration requires n <= {EXACT_MAX_N}")
    if family is None:
        family = generate_family(mm, count=2 * mm.n + 8, seed=seed)
    if radii is None:
        radii = breakpoint_radii(mm.space)
    # ascending radii make every sample row below ascend in s
    radii = np.sort(np.asarray(radii, dtype=float))
    w = mm.weights
    # the front: the samples (s, v) no other at or past s covers, ascending
    # in s; each row is cut to its tops and merged at once
    front = (np.empty(0), np.empty(0))

    def add(s, v):
        nonlocal front
        ts, tv = (np.append(f, t) for f, t in zip(front, row_tops_plain(s, v)))
        order = np.lexsort((tv, ts))  # one row ascending in s, ties by v
        front = row_tops_plain(ts[None, order], tv[None, order])

    # family members: full tail curves on the grid
    tails = family_tails_plain(w, family.values, radii * (1 - 1e-9))
    add(np.broadcast_to(radii, tails.shape), tails)

    # a chunk's count table has a column per distinct value of its rows, at
    # most n rows + 1: chunks of sqrt(budget / 8n) rows keep it in the budget
    chunk = math.isqrt(_row_block(8 * mm.n))
    masks = _subset_masks(mm.n)
    subset_masses = masks @ w

    # truncated distance cones min(d(A, .), rho): one point (mass(A) rho,
    # tail at mass(A) rho) per (A, rho); the reversed cones have the same
    # centered deviations, so both directions reduce to this computation
    for lo in range(0, len(masks), chunk):
        masses = subset_masses[lo:lo + chunk]
        dirs = [_prefix_masses(m, w) for m in _set_distance_rows(mm.dist, masks[lo:lo + chunk])]
        s = masses[:, None] * radii[None, :]
        # relative and absolute shrink: the absolute part covers the
        # membership snap and mean rounding for tiny-mass subsets
        thr = s * (1 - 1e-9) - 1e-12 * np.maximum(1.0, radii)[None, :]
        for ms, ws, cw in dirs:
            cwm = np.concatenate([np.zeros((len(ms), 1)),
                                  np.cumsum(ws * ms, axis=1)], axis=1)
            # every value of a row is a cut, so the count below the first cut
            # >= q counts the values < q, and below the first cut > q those <= q
            cuts = np.append(np.unique(ms), np.inf)
            table = _count_below(ms, cuts)
            # each row's mass below each cut, flat: one gather per query
            cw_at = np.take_along_axis(cw, table, axis=1)
            offsets = len(cuts) * np.arange(len(ms))[:, None]

            def below(q, side="left"):
                return cw_at.ravel()[np.searchsorted(cuts, q, side) + offsets]

            # mean of min(m, rho) from the prefix sums below rho
            kr = np.searchsorted(cuts, radii)
            mu_lt = cw_at[:, kr]
            mean_f = (np.take_along_axis(cwm, table[:, kr], axis=1)
                      + radii[None, :] * (1.0 - mu_lt))
            hi = mean_f + thr
            lo_thr = mean_f - thr
            up = np.where(hi > radii[None, :], 0.0, 1.0 - below(hi))
            down = np.where(lo_thr >= radii[None, :], 1.0, below(lo_thr, "right"))
            add(s, up + down)

    def points():
        # the sample points again, chunk by chunk: the same products of the
        # masses and radii, bit for bit
        yield radii
        for lo in range(0, len(subset_masses), chunk):
            yield subset_masses[lo:lo + chunk, None] * radii[None, :]

    # t -> max{v : s >= t} changes value only at the first sample point past
    # a front sample, the last excepted: the envelope keeps it only there and
    # at the first point of all, with its value unchanged at every point
    ts, tv = front
    if not len(ts):
        return SampledDecreasing(np.empty(0), np.empty(0))
    first, after = np.inf, np.full(len(ts) - 1, np.inf)
    for p in points():
        p = np.sort(p[p > 0])
        if len(p):
            first = min(first, p[0])
            k = np.searchsorted(p, ts[:-1], side="right")
            hit = k < len(p)
            after[hit] = np.minimum(after[hit], p[k[hit]])
    # first reads the first front sample and after[j] the (j + 1)-th, so no
    # value repeats
    starts = np.unique(np.append(after[after < np.inf], first))
    return SampledDecreasing(starts, tv[np.searchsorted(ts, starts, side="left")])


def row_tops_plain(s, v):
    """The samples (s, v) of rows ascending in s that can set the envelope:
    those with s > 0 above every later one of their row."""
    v = np.where(s > 0, v, -np.inf)
    later = np.full_like(v, -np.inf)
    later[:, :-1] = np.maximum.accumulate(v[:, :0:-1], axis=1)[:, ::-1]
    top = v > later
    return s[top], v[top]


def finsler_length_plain(spec, polyline, subdivisions=16):
    """Composite-midpoint quadrature of F along straight coordinate chords,
    one metric solve and one product per midpoint, chord after chord."""
    pts = [np.asarray(p, dtype=float) for p in polyline]
    total = 0.0
    for p, q in zip(pts, pts[1:]):
        v = q - p
        acc = 0.0
        for j in range(subdivisions):
            x = p + (j + 0.5) / subdivisions * v
            a_mat = np.atleast_2d(np.asarray(spec.riemannian(x), dtype=float))
            b_vec = np.atleast_1d(np.asarray(spec.one_form(x), dtype=float))
            norm2 = float(b_vec @ np.linalg.solve(a_mat, b_vec))
            if norm2 >= 1.0:
                raise ValueError(f"one-form norm reaches {math.sqrt(norm2):.6g} >= 1 "
                                 f"at point {x.tolist()}")
            acc += math.sqrt(float(v @ a_mat @ v)) + float(b_vec @ v)
        total += acc / subdivisions
    return total


def grid_neighbors_plain(domain, resolution):
    """The stencil edges (i, j) of the sample grid, by a loop over the points
    in flat order and, for each, over the stencil: right then left on a
    one-dimensional grid, the eight neighbours row by row on a
    two-dimensional one."""
    shape = (resolution,) * domain.dim
    if domain.dim == 1:
        offsets = [(1,), (-1,)]
    else:
        offsets = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    wraps = domain.wraps()
    pairs = []
    for flat in range(int(np.prod(shape))):
        idx = np.unravel_index(flat, shape)
        for off in offsets:
            tgt = []
            ok = True
            for ax, (i, o) in enumerate(zip(idx, off)):
                j = i + o
                if wraps[ax]:
                    j %= shape[ax]
                elif not (0 <= j < shape[ax]):
                    ok = False
                    break
                tgt.append(j)
            if ok:
                pairs.append((flat, int(np.ravel_multi_index(tuple(tgt), shape))))
    return pairs


def shortest_paths_plain(edges, n):
    """Directed shortest-path distances by Dijkstra's method with a heap,
    one source at a time; unreachable pairs stay inf.  A path's length is
    summed left to right from its source, one edge at a time, and every
    edge is relaxed, self-loops and parallel edges included."""
    out = [[] for _ in range(n)]
    for i, j, w in edges:
        out[int(i)].append((int(j), float(w)))
    dist = np.full((n, n), math.inf)
    for s in range(n):
        d = dist[s]
        d[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > d[u]:
                continue
            for v, w in out[u]:
                if du + w < d[v]:
                    d[v] = du + w
                    heapq.heappush(heap, (d[v], v))
    return dist


def triangle_violations_plain(d, rel_tol=0.0, max_report=100):
    """The directed triangle violations (i, j, k), d(i, k) > d(i, j) +
    d(j, k) + rel_tol * max(1, max d), by a scan over every middle point j,
    each j's pairs in row-major order, cut after ``max_report`` triples;
    returns (triples, whether the listing was cut)."""
    d = np.asarray(d, dtype=float)
    slack = rel_tol * max(1.0, float(d.max()))
    triangles = []
    for j in range(len(d)):
        bound = d[:, j][:, None] + d[j, :][None, :]
        for i, k in np.argwhere(d > bound + slack):
            triangles.append((int(i), int(j), int(k)))
            if len(triangles) >= max_report:
                return triangles, True
    return triangles, False
