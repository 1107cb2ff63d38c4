"""First-eigenvalue estimation and spectral concentration checks.

The discrete stand-in for the dual-norm gradient is the ascending slope,
the largest positive difference quotient out of a point over the full
distance matrix.  The Rayleigh quotient divides the measure-weighted squared
slopes by the variance (the variance realizes the inner infimum over
centerings exactly for the squared loss).

The quotient is nonsmooth and multi-modal, so the minimizer anneals a
log-sum-exp smoothing of the slope over six temperature stages with
multi-start initialization (a symmetric graph-Laplacian eigenvector,
distance cones, random fields) and polishes with exact subgradient steps;
both steps read one (rows, n, n) quotient stack built by ``_quotients``.
All internal scales are relative, which makes the whole pipeline exactly
equivariant under rescaling distances by powers of two.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .concentration import VERDICT_TOL, _pow
from .lipschitz import ScalarField, _positive, _slopes, as_field
from .quasimetric import MetricMeasureSpace, SNAP_RTOL, _row_block, as_pointset, diameter

__all__ = [
    "EigenEstimate",
    "ChengInputs",
    "GMStep",
    "GMDecayReport",
    "dual_slope",
    "rayleigh_quotient",
    "first_eigenvalue",
    "symmetric_oracle",
    "symmetric_oracle_field",
    "alpha_bound_from_spectral_gap",
    "spectral_mass_decay_check",
    "cheng_upper_bound",
    "obsdiam_bound_from_spectral_gap",
]

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# slopes and quotients
# ---------------------------------------------------------------------------

def dual_slope(mm: MetricMeasureSpace, f, x: int | None = None):
    """Ascending slope of f, at one point or at every point (x=None)."""
    v = as_field(f, mm.n)
    if mm.n < 2:
        raise ValueError("slope needs at least two points")
    s = _slopes(_positive(mm.dist), v)
    return float(s[x]) if x is not None else s


def rayleigh_quotient(mm: MetricMeasureSpace, f) -> float:
    """Weighted squared ascending slope over the variance of f.

    Invariant under f -> c f + b for c > 0; raises on constant fields
    (zero denominator).
    """
    v = as_field(f, mm.n)
    w = mm.weights
    mu = float(w @ v)
    var = float(w @ (v - mu) ** 2)
    if var <= 0.0:
        raise ValueError("Rayleigh quotient of a constant field")
    num = float(w @ _slopes(_positive(mm.dist), v) ** 2)
    return num / var


# ---------------------------------------------------------------------------
# symmetric graph-Laplacian oracle (in-module Jacobi eigensolver)
# ---------------------------------------------------------------------------

def _jacobi_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a symmetric matrix, in at most 60
    sweeps, until no off-diagonal entry exceeds 1e-12 of the matrix scale.

    Returns (eigenvalues ascending, eigenvector columns).  Thresholds are
    relative to the matrix scale, so the iteration is exactly equivariant
    under scalar rescaling.

    Row j of one (n, 2n) work array holds column j of A, then column j of
    the eigenvector matrix V.  A rotation of the pair (p, q) updates the two
    columns of A and of V as two contiguous rows and then the two rows of A
    as two strided columns.  Each update is two calls into buffers allocated
    once per call: the product of the rotation [[c, -s], [s, c]] with the
    pair, entry by entry, then the sum of the product's two halves.  Negation
    is exact and round-to-nearest is symmetric, so c x + (-s) y rounds as
    c x - s y does: the result is bit for bit that of the four-call form.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    # 8 spare entries per row keep the strided column pair's stride off a
    # power of two (4096 bytes at n = 256), where its entries share cache sets
    work = np.empty((n, 2 * n + 8))[:, :2 * n]
    work[:, :n] = A.T
    work[:, n:] = np.eye(n)
    cols = work.T  # cols[p] is row p of A, as column p of the work array
    rot = np.empty((2, 2, 1))
    rot_flat = rot.reshape(4)  # c, -s, s, c
    row_prod, col_prod = np.empty((2, 2, 2 * n)), np.empty((2, 2, n))
    (row_x, row_y), (col_x, col_y) = row_prod.swapaxes(0, 1), col_prod.swapaxes(0, 1)
    off = np.empty((n, n))
    skip = 1e-15 * scale
    item = work.item
    for _ in range(60):
        np.abs(work[:, :n], out=off)
        np.fill_diagonal(off, 0.0)
        if float(off.max()) <= 1e-12 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = item(q, p)
                if abs(apq) <= skip:
                    continue
                theta = (item(q, q) - item(p, p)) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_flat[0] = rot_flat[3] = c
                rot_flat[1] = -s
                rot_flat[2] = s
                pair = work[p:q + 1:q - p]
                np.multiply(rot, pair, row_prod)
                np.add(row_x, row_y, pair)
                pair = cols[p:q + 1:q - p]
                np.multiply(rot, pair, col_prod)
                np.add(col_x, col_y, pair)
                work[q, p] = 0.0
                work[p, q] = 0.0
    vals = np.diagonal(work).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], work[order, n:].T


def _oracle_matrix(dist: np.ndarray, w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The measure-normalized k-NN graph Laplacian and diag(w)^{-1/2}.

    Directed weights w_i / (k d(i,j)^2) to the k nearest neighbors are
    symmetrized by summation, so each neighbor direction contributes its
    squared difference quotient with weight 1/k; the generalized problem
    L v = lambda diag(w) v becomes an ordinary one through the
    diag(w)^{-1/2} similarity.
    """
    n = dist.shape[0]
    if np.any(w <= 0):
        raise ValueError("oracle requires strictly positive measure weights")
    k = min(k, n - 1)
    # a row's own point, at distance 0, sorts first: the next k are its neighbors
    rows, near = np.arange(n)[:, None], np.argsort(dist, axis=1, kind="stable")[:, 1:k + 1]
    W = np.zeros((n, n))
    W[rows, near] = w[:, None] / (k * _pow(dist[rows, near], 2.0))
    S = W + W.T
    L = np.diag(S.sum(axis=1)) - S
    inv_sqrt = 1.0 / np.sqrt(w)
    return L * inv_sqrt[:, None] * inv_sqrt[None, :], inv_sqrt


def _oracle_eigenpair(dist: np.ndarray, w: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Spectral-gap eigenpair of the oracle Laplacian of ``_oracle_matrix``."""
    B, inv_sqrt = _oracle_matrix(dist, w, k)
    vals, vecs = _jacobi_eigh(B)
    return float(vals[1]), vecs[:, 1] * inv_sqrt


DEFAULT_ORACLE_K = 4


def symmetric_oracle(mm: MetricMeasureSpace, k: int = DEFAULT_ORACLE_K) -> float:
    """Spectral gap of the k-NN graph Laplacian on a symmetric space.

    A cross-check and initializer for the slope-based estimate, not ground
    truth for it; raises on asymmetric input.
    """
    if not mm.space.is_symmetric():
        raise ValueError("symmetric_oracle requires a symmetric space")
    lam, _ = _oracle_eigenpair(mm.dist, mm.weights, k)
    return lam


def symmetric_oracle_field(mm: MetricMeasureSpace, k: int = DEFAULT_ORACLE_K) -> ScalarField:
    """The gap eigenvector of the oracle Laplacian, as a scalar field."""
    if not mm.space.is_symmetric():
        raise ValueError("symmetric_oracle requires a symmetric space")
    _, v = _oracle_eigenpair(mm.dist, mm.weights, k)
    return ScalarField(v)


# ---------------------------------------------------------------------------
# slope-descent minimization of the Rayleigh quotient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenEstimate:
    """Best Rayleigh quotient found; an upper bound of the discrete infimum,
    not a certified global minimum."""

    value: float
    certificate: ScalarField
    restarts: int
    strategy: str = "slope-descent"


_T_STAGES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_STAGE_STEPS = 30
_POLISH_STEPS = 30

# The descent works on stacks of fields, one field per row.  Every weighted
# sum over the points of a row is ``np.vecdot(rows, w)`` (numpy 2.0 or
# later): one BLAS ddot per row, the kernel of ``w @ row``, so each row's
# value equals the single-field product bit for bit (a gemv ``rows @ w`` or
# an einsum would not).


def _normalized(F: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered unit-variance copies of the rows of F, and the mask of the
    rows that admit one; a row of zero or non-finite variance reads 0.
    """
    G = F - np.vecdot(F, w)[:, None]
    var = np.vecdot(G ** 2, w)
    ok = (var > 0.0) & np.isfinite(var)
    return np.divide(G, np.sqrt(var)[:, None], out=np.zeros_like(G), where=ok[:, None]), ok


def _exact_numerator(dpos: np.ndarray, w: np.ndarray, F: np.ndarray,
                     buf: np.ndarray) -> np.ndarray:
    """The squared-slope numerator w @ slope(f)^2 of every row f of F."""
    return np.vecdot(_slopes(dpos, F, buf[:len(F)]) ** 2, w)


def _quotients(invd: np.ndarray, F: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The quotients (f(z) - f(x)) / d(x, z) of the rows f of F in ``buf``,
    -inf on the diagonal through one strided view of the flattened buffer
    (a buffer with no such view makes the reshape raise, not copy)."""
    k, n = F.shape
    q = np.subtract(F[:, None, :], F[:, :, None], out=buf[:k])
    np.multiply(q, invd, out=q)
    buf.reshape(len(buf), -1, copy=False)[:k, ::n + 1] = -np.inf
    return q


def _smooth_grad(invd: np.ndarray, w: np.ndarray, F: np.ndarray, T: np.ndarray,
                 buf: np.ndarray) -> np.ndarray:
    """Gradient of the smoothed numerator at every row of F (unit-variance
    fields), row r at its own temperature T[r].

    The slope is replaced by T log(sum exp(q/T) + 1), the soft maximum of
    the positive difference quotients with a zero floor, evaluated in the
    shifted form that cannot overflow.  invd holds the reciprocal distances
    (0 on the diagonal); every (rows, n, n) intermediate lives in the
    scratch buffer ``buf``.
    """
    q = _quotients(invd, F, buf)
    m = np.maximum(q.max(axis=2), 0.0)
    e = np.subtract(q, m[:, :, None], out=q)
    np.divide(e, T[:, None, None], out=e)
    np.exp(e, out=e)  # exp(-inf) is +0 on the diagonal
    z = e.sum(axis=2) + np.exp(-m / T[:, None])
    s = m + T[:, None] * np.log(z)
    g_mat = np.divide(e, z[:, :, None], out=e)
    np.multiply((w * s)[:, :, None], g_mat, out=g_mat)
    np.multiply(g_mat, invd, out=g_mat)
    return 2.0 * (g_mat.sum(axis=1) - g_mat.sum(axis=2))


def _subgradient(invd: np.ndarray, w: np.ndarray, F: np.ndarray,
                 buf: np.ndarray) -> np.ndarray:
    """Exact subgradient of the squared-slope numerator (argmax selection)
    at every row of F.

    Each active point x moves 2 w(x) s(x) / d(x, z) from x to its argmax
    target z; ``np.bincount`` adds the moves of a row from 0.0 in
    ascending x, target first.
    """
    k, n = F.shape
    q = _quotients(invd, F, buf)
    arg = q.argmax(axis=2)
    s = np.maximum(q.max(axis=2), 0.0)
    row, x = np.nonzero(s > 0)
    target = arg[row, x]
    coef = 2.0 * w[x] * s[row, x] * invd[x, target]
    moves = np.column_stack((row * n + target, row * n + x)).ravel()
    return np.bincount(moves, np.column_stack((coef, -coef)).ravel(),
                       minlength=k * n).reshape(k, n)


def _descend(dpos: np.ndarray, invd: np.ndarray, w: np.ndarray, F0: np.ndarray,
             buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Annealed smoothed descent from every row of F0 at once.

    Returns each row's best exact numerator and field visited on the
    unit-variance sphere (inf and the start for a row that cannot start).
    dpos and invd are the positive distances and their reciprocals, built
    once per ``first_eigenvalue`` call, and buf is that call's scratch, with
    at least len(F0) rows.  Every row stays in place for the whole call and
    is computed on at every step; a live mask says which rows may move.  A
    row keeps its own temperature and best-so-far and leaves a stage on its
    own early exit, so it follows the trajectory of a descent from that row
    alone, bit for bit.
    """
    F, ok = _normalized(F0, w)
    slopes = _slopes(dpos, F, buf[:len(F)])  # the scale and the start's exact numerator
    slope_scale = slopes.max(axis=1)
    start = slope_scale > 0.0  # a constant row, or one read as 0, cannot start
    slope_scale[~start] = 1.0  # any positive temperature keeps idle rows finite
    best_val = np.where(start, np.vecdot(slopes ** 2, w), math.inf)
    best_F = F.copy()

    def step(live: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
        """Move every live row down its gradient; returns the mask of the
        rows still live.  A zero gradient or a step off the sphere ends the row's
        stage; a non-finite gradient always steps off it."""
        gmax = np.abs(grad).max(axis=1)
        live = live & (gmax > 0.0)
        unit = np.divide(grad, gmax[:, None], out=np.zeros_like(grad), where=live[:, None])
        cand, on_sphere = _normalized(F - eta * unit, w)
        live &= on_sphere
        np.copyto(F, cand, where=live[:, None])
        val = _exact_numerator(dpos, w, F, buf)
        better = live & (val < best_val)
        np.copyto(best_val, val, where=better)
        np.copyto(best_F, F, where=better[:, None])
        return live

    for t_rel in _T_STAGES:
        T = t_rel * slope_scale
        live, eta = start, 0.25
        for _ in range(_STAGE_STEPS):
            if not live.any():
                break
            live = step(live, _smooth_grad(invd, w, F, T, buf), eta)
            eta *= 0.88
    F[:] = best_F
    live, eta = start, 0.08
    for _ in range(_POLISH_STEPS):
        if not live.any():
            break
        live = step(live, _subgradient(invd, w, F, buf), eta)
        eta *= 0.9
    return best_val, np.where(ok[:, None], best_F, F0)


def first_eigenvalue(mm: MetricMeasureSpace, restarts: int = 32,
                     seed: int = 0) -> EigenEstimate:
    """Multi-start slope-descent estimate of the first eigenvalue.

    Starts are the symmetric-oracle eigenvector (on the symmetrized
    distances when the space is irreversible), the best distance cones, and
    random fields with amplitude equal to the diameter.  All restarts
    descend together.
    Deterministic given the seed; the returned value is the quotient of the
    certificate field, the first of the best restarts.  Raises ValueError
    unless at least two points carry mass.
    """
    w = mm.weights
    if np.count_nonzero(w > 0) < 2:
        raise ValueError("the first eigenvalue needs at least two points of positive mass")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    dist = mm.dist
    n = mm.n
    dpos = _positive(dist)
    invd = 1.0 / dpos
    block = min(restarts, _row_block(8 * n * n))
    buf = np.empty((block, n, n))

    inits: list[np.ndarray] = []
    sym = 0.5 * (dist + dist.T)
    try:
        _, vec = _oracle_eigenpair(sym, w, DEFAULT_ORACLE_K)
        inits.append(vec)
    except ValueError:
        pass  # zero-weight points: skip the oracle start

    # the cones out of and into every point, best numerator first
    cones, ok = _normalized(np.concatenate((dist, -dist.T)), w)
    cones = cones[ok]
    # one cone's (n, n) quotients at a time; a 1-d vecdot takes the same dot
    # product as each row of _exact_numerator's 2-d one
    nums = np.array([np.vecdot(_slopes(dpos, c) ** 2, w) for c in cones])
    n_cone = min(len(cones), max(0, (restarts - len(inits)) // 2))
    inits.extend(cones[np.argsort(nums, kind="stable")[:n_cone]])

    rng = np.random.default_rng(seed)
    amp = diameter(mm.space)
    while len(inits) < restarts:
        inits.append(rng.uniform(0.0, 1.0, n) * amp)
    F0 = np.array(inits[:restarts])

    vals = np.empty(restarts)
    fields = np.empty((restarts, n))
    for i in range(0, restarts, block):
        vals[i:i + block], fields[i:i + block] = _descend(dpos, invd, w, F0[i:i + block], buf)
    best = int(np.argmin(vals))  # the first minimum, as a strict < scan keeps
    if not vals[best] < math.inf:
        raise RuntimeError("no usable start produced a nonconstant field")
    certificate = ScalarField(fields[best].copy())
    return EigenEstimate(rayleigh_quotient(mm, certificate), certificate, restarts)


# ---------------------------------------------------------------------------
# spectral concentration bounds and the mass-decay recursion
# ---------------------------------------------------------------------------

def alpha_bound_from_spectral_gap(lambda1: float, r: float) -> float:
    """Exponential concentration bound e^{-r sqrt(lambda1) log(2)/sqrt(2)}."""
    if lambda1 <= 0 or r <= 0:
        raise ValueError("lambda1 and r must be positive")
    return math.exp(-r * math.sqrt(lambda1) * (LOG2 / math.sqrt(2.0)))


@dataclass(frozen=True)
class GMStep:
    k: int
    a: float
    b: float
    lambda_f: float
    bound: float
    margin: float


@dataclass(frozen=True)
class GMDecayReport:
    """Iterated-enlargement mass decay driven by explicit test functions.

    Each step enlarges the current set backward by epsilon (closed
    enlargement: the iteration needs the complement at distance at least
    epsilon, which the closed form preserves while keeping the boundary
    points inside), builds the two-level test function for the
    (set, complement) pair, measures its Rayleigh quotient lambda_f, and
    asserts b_k <= (1 - a_k) / (1 + lambda_f eps^2 a_k).  A vanishing
    complement terminates the chain.
    """

    steps: tuple[GMStep, ...]
    terminated: str
    epsilon: float
    passed: bool


def spectral_mass_decay_check(mm: MetricMeasureSpace, A, epsilon: float) -> GMDecayReport:
    """Run the two-set recursion behind the spectral concentration bound.

    Starting from a half-mass set, repeatedly take the closed backward
    epsilon-enlargement; for every step with a nonempty complement, the
    explicit test function f = 1/a - (1/eps)(1/a + 1/b) min(d(., A_k), eps)
    is built, its Rayleigh quotient measured, and the decay inequality
    asserted with that quotient.  Degenerate steps (b_k = 0) terminate the
    chain and count as passes.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ps = as_pointset(A, mm.n)
    if len(ps) == 0:
        raise ValueError("empty starting set")
    w = mm.weights
    dist = mm.dist
    mask = np.zeros(mm.n, dtype=bool)
    mask[ps.array()] = True
    a0 = float(w[mask].sum())
    # the caller's cumulative sum may reach 1/2 where this sum, taken in
    # index order, rounds just below it
    if a0 < 0.5 - VERDICT_TOL:
        raise ValueError(f"starting set must have mass at least 1/2, got {a0}")

    closed_thr = epsilon + SNAP_RTOL * max(1.0, epsilon)
    steps: list[GMStep] = []
    passed = True
    # a step that does not end the chain adds a point: n steps at most
    for k in itertools.count():
        # distance from each point to the current set (backward direction)
        m_to_set = dist[:, mask].min(axis=1)
        next_mask = m_to_set <= closed_thr
        a_k = float(w[mask].sum())
        b_k = float(w[~next_mask].sum())
        if b_k <= 0.0 or not (~next_mask).any():
            steps.append(GMStep(k, a_k, b_k, math.nan, 1.0 - a_k, 1.0 - a_k - b_k))
            terminated = "complement exhausted"
            break
        coef = (1.0 / a_k + 1.0 / b_k) / epsilon
        f = 1.0 / a_k - coef * np.minimum(m_to_set, epsilon)
        lam_f = rayleigh_quotient(mm, f)
        bound = (1.0 - a_k) / (1.0 + lam_f * epsilon * epsilon * a_k)
        margin = bound - b_k
        steps.append(GMStep(k, a_k, b_k, lam_f, bound, float(margin)))
        if margin < -VERDICT_TOL:
            passed = False
        if not np.any(next_mask & ~mask):
            terminated = "enlargement stalled"
            break
        mask = next_mask
    return GMDecayReport(tuple(steps), terminated, float(epsilon), passed)


@dataclass(frozen=True)
class ChengInputs:
    """Inputs of the diameter-based eigenvalue upper bound.

    n is the manifold dimension (at least 2, the constants divide by
    sqrt(n-1)), a bounds the distortion, K bounds the weighted Ricci
    curvature from below, D is the diameter in length units.
    """

    n: int
    a: float
    K: float
    D: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if self.a < 0:
            raise ValueError("distortion bound must be nonnegative")
        if self.D <= 0:
            raise ValueError("diameter must be positive")


def cheng_upper_bound(inputs: ChengInputs) -> float:
    """Cheng-type upper bound max(C1, C2) / D^2 for the first eigenvalue.

    C1 = 32 (n + 4a)^2 (2 + D sqrt(|K|) / (sqrt(n-1) log 2))^2 and
    C2 = 128 (n + 4a)^2 (3 + D sqrt(|K|) / (sqrt(n-1) log 2))^2 cover the
    two cases of the underlying ball-mass dichotomy, which is not observable
    from (n, a, K, D) alone, so the maximum is returned.
    """
    n, a, K, D = inputs.n, inputs.a, inputs.K, inputs.D
    shift = D * math.sqrt(abs(K)) / (math.sqrt(n - 1.0) * LOG2)
    base = (n + 4.0 * a) ** 2
    c1 = 32.0 * base * (2.0 + shift) ** 2
    c2 = 128.0 * base * (3.0 + shift) ** 2
    return max(c1, c2) / (D * D)


def obsdiam_bound_from_spectral_gap(lambda1: float, epsilon: float) -> float:
    """Observable diameter bound (2 sqrt(2)/log 2) log(2/eps) / sqrt(lambda1)."""
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return 2.0 * math.sqrt(2.0) / LOG2 * math.log(2.0 / epsilon) / math.sqrt(lambda1)
