"""The verification suite: every inequality check as one report entry.

Each suite entry gets an explicit status: "pass" or "fail" for checks whose
mathematics is exact on finite spaces, "inconclusive" for checks that
substitute the estimated eigenvalue (an upper bound of the true one, so a
violated strengthened inequality proves nothing), and "skipped" when a
precondition is missing (exact enumeration infeasible, no curvature
certificate, section not requested).  Failing entries carry a serialized
witness.  Entries run one after another, in report order, so reports are
deterministic for fixed inputs and seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import __version__
from .concentration import (
    EXACT_MAX_N,
    VERDICT_TOL,
    _deviation_margins,
    _lq_norms,
    _moment_powers,
    alpha_profile,
    check_linear_tail_decay,
    check_moment_concentration,
    enlargement_check_from_tail_bound,
    fit_profile,
    median_to_mean_tail_constants,
    moment_bound_from_normal_tails,
    normal_equivalence_constants,
    tail_bound_from_square_moments,
    tail_envelope,
)
from .io import space_hash
from .lipschitz import generate_family
from .observable import (
    observable_diameters,
    obsdiam_bound_exponential,
    obsdiam_bound_normal,
    obsdiam_vs_alpha_check,
)
from .isoperimetry import (
    gaussian_phi,
    mesh_scale,
    normal_concentration_bound,
    obsdiam_bound_from_curvature,
    profile_enlargement_check,
)
from .quasimetric import MetricMeasureSpace, _balls, _count_below
from .spectrum import (
    ChengInputs,
    alpha_bound_from_spectral_gap,
    cheng_upper_bound,
    first_eigenvalue,
    obsdiam_bound_from_spectral_gap,
    spectral_mass_decay_check,
)

__all__ = ["THEOREM_IDS", "SECTIONS", "VerifyEntry", "VerifyReport", "run_verify"]

EPS_GRID = tuple(k / 10.0 for k in range(1, 10))


@dataclass(frozen=True)
class VerifyEntry:
    status: str          # pass | fail | inconclusive | skipped
    margin: float | None = None
    notes: str = ""
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {"status": self.status, "margin": self.margin,
                "notes": self.notes, "witness": self.witness}


@dataclass
class VerifyReport:
    results: dict[str, VerifyEntry]
    meta: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(e.status == "fail" for e in self.results.values())

    def to_dict(self) -> dict:
        return {"meta": self.meta,
                "results": {k: self.results[k].to_dict() for k in THEOREM_IDS}}


def _check(margin: float, notes: str = "", witness: dict | None = None) -> VerifyEntry:
    ok = margin >= -VERDICT_TOL
    return VerifyEntry("pass" if ok else "fail", float(margin), notes, witness)


def _skip(reason: str) -> VerifyEntry:
    return VerifyEntry("skipped", None, reason)


def _first_min(margins) -> tuple[int, ...]:
    """The index of the smallest margin, the first one in row order."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmin(margins)), np.shape(margins)))


class _SuiteContext:
    """Shared artifacts for one verification run, each computed once.

    An artifact is built when an entry first reads it, so one that no
    running entry reads is never built.
    """

    def __init__(self, mm: MetricMeasureSpace, seed: int, restarts: int,
                 certified: dict | None, cheng: ChengInputs | None):
        self.mm = mm
        self.seed = seed
        self.restarts = restarts
        self.K = (certified or {}).get("K", 0.0)
        self.cheng = cheng
        self.exact_ok = mm.n <= EXACT_MAX_N

    @cached_property
    def family(self):
        return generate_family(self.mm, count=2 * self.mm.n + 8, seed=self.seed)

    @cached_property
    def profile(self):
        """Exact profile when feasible, family profile otherwise."""
        return alpha_profile(self.mm, "exact" if self.exact_ok else "family", family=self.family)

    @cached_property
    def obsdiam(self):
        """The family observable diameter at every epsilon of ``EPS_GRID``."""
        return observable_diameters(self.mm, EPS_GRID, self.family)

    @cached_property
    def eigen(self):
        # by the module-level name, which a tracer may rebind
        return first_eigenvalue(self.mm, restarts=self.restarts, seed=self.seed)

    @cached_property
    def lem51(self):
        """Lemma 5.1's enlargement check at the mesh scale (K > 0); its
        hypothesis gate, which lem52 reads too, does not depend on the radii."""
        scale = mesh_scale(self.mm)
        return profile_enlargement_check(self.mm, scale, _lem51_radii(self, scale),
                                         K=self.K, family=self.family)


# ---------------------------------------------------------------------------
# individual suite entries
# ---------------------------------------------------------------------------

def _run_mf3(ctx: _SuiteContext) -> VerifyEntry:
    _, margins = _deviation_margins(ctx.family._stacked(ctx.mm.weights),
                                    np.maximum(ctx.family.lipschitz, 1e-12), ctx.profile)
    worst = np.min([mg.min(axis=1) for mg in margins], axis=0)
    k = int(np.argmin(worst))
    return _check(worst[k], "median deviation tails vs the doubled profile", {"member": k})


def _run_prop32_1(ctx: _SuiteContext) -> VerifyEntry:
    beta = tail_envelope(ctx.mm, family=ctx.family)
    rep = enlargement_check_from_tail_bound(ctx.mm, beta, family=ctx.family)
    if not rep.hypothesis_ok:
        return _skip("measured tail hypothesis not satisfied; conclusions not asserted")
    worst = min(rep.enlargement_margin, rep.alpha_margin)
    return _check(worst, rep.notes)


def _run_prop32_2(ctx: _SuiteContext) -> VerifyEntry:
    worst = math.inf
    for p in (1.0, 2.0, 3.0):
        C_prime, kappa, c_p = median_to_mean_tail_constants(1.0, 1.0, p)
        direct = max(1.0, 1.0) * math.exp(c_p ** p)
        worst = min(worst, 1e-10 - abs(C_prime - direct) / direct)
        worst = min(worst, 1e-12 - abs(kappa - min(1.0, 2.0 ** (1.0 - p))))
    return _check(worst, "constant pipeline self-consistency")


def _mean_tail_constants(ctx: _SuiteContext) -> tuple[float, float]:
    fit = fit_profile(ctx.profile, "normal")
    return normal_equivalence_constants("forward", fit.C, fit.c)


def _run_thm33(ctx: _SuiteContext) -> VerifyEntry:
    C2, c2 = _mean_tail_constants(ctx)
    rs = ctx.profile.radii
    margins = C2 * np.exp(-c2 * rs ** 2) - ctx.family._stacked(ctx.mm.weights).tails(rs)
    k, j = _first_min(margins)
    # no witness when every margin is infinite, as in a member loop from inf
    witness = {"member": k, "r": float(rs[j])} if margins[k, j] < math.inf else None
    return _check(margins[k, j], "mean tails under the forward normal constants", witness)


def _run_thm37(ctx: _SuiteContext) -> VerifyEntry:
    C2, c2 = _mean_tail_constants(ctx)
    qs = (1.0, 2.0, 4.0, 8.0)
    w, dev = ctx.mm.weights, ctx.family._stacked(ctx.mm.weights).dev
    margins = np.array([moment_bound_from_normal_tails(C2, c2, q) - _lq_norms(w, dev, q)
                        for q in qs])
    i, k = _first_min(margins)
    witness = {"member": k, "q": qs[i]} if margins[i, k] < math.inf else None
    return _check(margins[i, k], "moment norms under the normal-tail moment bound", witness)


def _run_thm38(ctx: _SuiteContext) -> VerifyEntry:
    # the largest (2, q)-moment constant of the family at each q
    largest = [check_moment_concentration(ctx.mm, ctx.family, 2.0, q, 1.0).largest_constant
               for q in (1.0, 2.0, 4.0, 8.0)]
    if math.inf in largest:
        return VerifyEntry("pass", 0.0, "all-constant family, trivial")
    C_star = min(largest)
    square_norms = cache(lambda q: _moment_powers(ctx.mm, ctx.family, 2.0, q))
    rs = ctx.profile.radii
    regimes, bounds = zip(*(tail_bound_from_square_moments(C_star, float(r)) for r in rs))
    q_stars = [max(1.0, C_star * float(r) ** 2 / math.e) for r in rs]
    # Chebyshev at the optimal exponent needs the moment premise there; nan is unmet
    skip = ~np.array([square_norms(q) <= (q / C_star) * (1 + 1e-9) for q in q_stars])
    tails = ctx.family._stacked(ctx.mm.weights).tails(rs)
    margins = np.where(skip, math.inf, np.array(bounds)[:, None] - tails.T)
    j, k = _first_min(margins)
    notes = "tail bounds from measured square-moment constants"
    if skip.any():
        notes += (f"; {np.count_nonzero(skip)} points skipped (moment premise unmet at the "
                  "optimal exponent)")
    if margins[j, k] == math.inf:
        return _check(0.0, notes)
    return _check(margins[j, k], notes, {"member": k, "r": float(rs[j]), "regime": regimes[j]})


def _run_thm39(ctx: _SuiteContext) -> VerifyEntry:
    first = float(_moment_powers(ctx.mm, ctx.family, 1.0, 1.0).max())
    if first == 0:
        return VerifyEntry("pass", 0.0, "all-constant family, trivial")
    # ||f - mean||_1^p <= C = 1 / first^p gives tails of 1 / (C^(1/p) r)
    ps = (1.0, 2.0, 4.0)
    reps = [check_linear_tail_decay(ctx.mm, ctx.family, (1.0 / first ** p) ** (1.0 / p),
                                    ctx.profile.radii) for p in ps]
    i, = _first_min([rep.margin for rep in reps])
    return _check(reps[i].margin, "linear tail decay from the measured first moment",
                  {"member": reps[i].witness["member"], "p": ps[i], "r": reps[i].witness["r"]})


def _run_thm41(ctx: _SuiteContext) -> VerifyEntry:
    rep = obsdiam_vs_alpha_check(ctx.mm, EPS_GRID, profile=ctx.profile,
                                 diameters=ctx.obsdiam)
    return _check(rep.margin, rep.notes, rep.witness)


def _run_obsdiam_fit(ctx: _SuiteContext, model: str) -> VerifyEntry:
    fit = fit_profile(ctx.profile, model)
    if not fit.certified:
        return _skip("no certified fit")
    bound_fn = obsdiam_bound_normal if model == "normal" else obsdiam_bound_exponential
    margins = [bound_fn(fit.C, fit.c, eps) - ctx.obsdiam[eps].value for eps in EPS_GRID]
    j, = _first_min(margins)
    note = f"family observable diameter vs the {model}-fit closed form"
    if fit.degenerate:
        note += " (degenerate all-zero profile fit)"
    return _check(margins[j], note,
                  {"epsilon": EPS_GRID[j], "obsdiam": ctx.obsdiam[EPS_GRID[j]].value})


def _lem51_radii(ctx: _SuiteContext, scale: float) -> np.ndarray:
    rs = ctx.profile.radii[ctx.profile.radii > scale]
    if rs.size == 0:
        rs = ctx.profile.radii[-1:]
    if rs.size > 24:
        rs = rs[:: -(-rs.size // 24)]
    return rs


def _run_lem51(ctx: _SuiteContext) -> VerifyEntry:
    rep = ctx.lem51
    if not rep.hypothesis_ok:
        return _skip(f"isoperimetric hypothesis not satisfied at scale {rep.scale:.3g} "
                     f"(margin {rep.hypothesis_margin:.3g}); no assertion")
    note = f"enlargement growth with one mesh step of slack ({rep.subsets} subsets)"
    return _check(rep.conclusion_margin, note)


def _run_lem52(ctx: _SuiteContext) -> VerifyEntry:
    if not ctx.lem51.hypothesis_ok:
        return _skip("isoperimetric hypothesis certificate unavailable")
    scale = ctx.lem51.scale
    sqrt_k = math.sqrt(ctx.K)
    rs = ctx.profile.radii
    margins = [1.0 - gaussian_phi(sqrt_k * max(float(r) - scale, 0.0)) - a
               for r, a in zip(rs, ctx.profile.alphas)]
    j, = _first_min(margins)
    note = "Gaussian profile bound with one mesh step of slack"
    if ctx.profile.strategy == "family":
        note += "; family profile on the left (necessary-condition form)"
    return _check(margins[j], note, {"r": float(rs[j])})


def _run_thm54(ctx: _SuiteContext) -> VerifyEntry:
    rs = ctx.profile.radii
    margins = [normal_concentration_bound(ctx.K, float(r)) * 1.25 - a
               for r, a in zip(rs, ctx.profile.alphas)]
    j, = _first_min(margins)
    note = "normal concentration bound with slack 0.25"
    if ctx.profile.strategy == "family":
        note += "; family profile on the left (necessary-condition form)"
    return _check(margins[j], note, {"r": float(rs[j])})


def _run_cor55(ctx: _SuiteContext) -> VerifyEntry:
    margins = [obsdiam_bound_from_curvature(ctx.K, eps) - ctx.obsdiam[eps].value
               for eps in EPS_GRID]
    j, = _first_min(margins)
    return _check(margins[j], "family observable diameter vs the curvature bound",
                  {"epsilon": EPS_GRID[j]})


def _run_thm61(ctx: _SuiteContext) -> VerifyEntry:
    rs = ctx.profile.radii
    margins = [alpha_bound_from_spectral_gap(ctx.eigen.value, float(r)) - a
               for r, a in zip(rs, ctx.profile.alphas)]
    j, = _first_min(margins)
    return _estimated(margins[j], {"r": float(rs[j])})


def _estimated(margin: float, witness: dict,
               passed: str = "strengthened bound with the estimated eigenvalue",
               overshoot: str = "estimated eigenvalue overshoots; tighten the estimate",
               ) -> VerifyEntry:
    """The entry of a check that reads the estimated eigenvalue, an upper
    bound of the true one: a negative margin proves nothing.  ``passed``
    and ``overshoot`` are the notes of the two outcomes."""
    if margin >= -VERDICT_TOL:
        return VerifyEntry("pass", float(margin), passed)
    return VerifyEntry("inconclusive", float(margin), overshoot, witness)


def _run_gm(ctx: _SuiteContext) -> VerifyEntry:
    mm = ctx.mm
    lam = ctx.eigen.value
    eps = math.sqrt(2.0 / lam)
    order, _, cw = _balls(mm.dist, mm.weights, slice(0, 1))
    k = _count_below(cw[:1, 1:], np.array([0.5]))[0, 0]
    A = sorted(int(i) for i in order[0, :k + 1])
    rep = spectral_mass_decay_check(mm, A, eps)
    margin = min((s.margin for s in rep.steps), default=0.0)
    witness = None
    if not rep.passed:
        bad = min(rep.steps, key=lambda s: s.margin)
        witness = {"step": bad.k, "a": bad.a, "b": bad.b,
                   "lambda_f": bad.lambda_f, "epsilon": eps, "set": A}
    status = "pass" if rep.passed else "fail"
    return VerifyEntry(status, float(margin),
                       f"two-set recursion at epsilon = sqrt(2/lambda) ({rep.terminated})",
                       witness)


def _run_cor62(ctx: _SuiteContext) -> VerifyEntry:
    margins = [obsdiam_bound_from_spectral_gap(ctx.eigen.value, eps) - ctx.obsdiam[eps].value
               for eps in EPS_GRID]
    j, = _first_min(margins)
    return _estimated(margins[j], {"epsilon": EPS_GRID[j],
                                   "obsdiam": ctx.obsdiam[EPS_GRID[j]].value})


def _run_thm63(ctx: _SuiteContext) -> VerifyEntry:
    if ctx.cheng is None:
        return _skip("no Cheng inputs (dimension, distortion, curvature, diameter)")
    bound = cheng_upper_bound(ctx.cheng)
    lam = ctx.eigen.value
    return _estimated(bound - lam, {"lambda_hat": lam, "bound": bound},
                      f"estimated eigenvalue {lam:.6g} below the diameter bound {bound:.6g}",
                      "estimated eigenvalue exceeds the bound; the estimate is an "
                      "upper bound of the true eigenvalue, so nothing is violated")


def _exact(note: str):
    """The precondition of an entry that enumerates subsets: ``note`` at n > EXACT_MAX_N."""
    return lambda ctx: None if ctx.exact_ok else note.format(n=ctx.mm.n, max=EXACT_MAX_N)


def _curved(ctx: _SuiteContext) -> str | None:
    """The precondition of an entry that reads the curvature constant K."""
    return None if ctx.K > 0 else "no positive curvature certificate"


_FIT = _exact("certified exact fit infeasible for n = {n}")

# The suite in report order: (id, section, precondition ctx -> skip note or None, runner).
_SUITE = (
    ("mf3", "sec3", _exact("exact profile infeasible for n = {n} > {max}"), _run_mf3),
    ("prop32.1", "sec3", _exact("subset enumeration infeasible for n = {n}"), _run_prop32_1),
    ("prop32.2", "sec3", None, _run_prop32_2),
    ("thm33", "sec3", _FIT, _run_thm33),
    ("thm37", "sec3", _FIT, _run_thm37),
    ("thm38", "sec3", None, _run_thm38),
    ("thm39", "sec3", None, _run_thm39),
    ("thm41", "sec4", _exact("exact profile infeasible for n = {n}"), _run_thm41),
    ("obnor", "sec4", _FIT, lambda ctx: _run_obsdiam_fit(ctx, "normal")),
    ("obex", "sec4", _FIT, lambda ctx: _run_obsdiam_fit(ctx, "exponential")),
    ("lem51", "sec5", _curved, _run_lem51),
    ("lem52", "sec5", _curved, _run_lem52),
    ("thm54", "sec5", _curved, _run_thm54),
    ("cor55", "sec5", _curved, _run_cor55),
    ("thm61", "sec6", None, _run_thm61),
    ("gm_recursion", "sec6", None, _run_gm),
    ("cor62", "sec6", None, _run_cor62),
    ("thm63", "sec6", None, _run_thm63),
)

THEOREM_IDS = tuple(tid for tid, *_ in _SUITE)

SECTIONS = {sec: tuple(tid for tid, s, *_ in _SUITE if s == sec)
            for sec in dict.fromkeys(s for _, s, *_ in _SUITE)}


def run_verify(mm: MetricMeasureSpace, sections=("sec3", "sec4", "sec5", "sec6"),
               seed: int = 0, threads: int = 1, restarts: int = 8,
               certified: dict | None = None,
               cheng: ChengInputs | None = None,
               space_label: str | None = None) -> VerifyReport:
    """Run the requested sections of the theorem suite on one space.

    Every suite member appears in the result with an explicit status.  The
    members of unrequested sections are marked skipped, so is every member
    on a one-point space, and so are the eigenvalue members when fewer than
    two points carry mass.  ``certified`` carries analytic curvature
    constants (catalog provenance), ``cheng`` the inputs of the diameter
    bound.  Deterministic given the seed.  Entries run serially in report
    order.  ``threads`` is validated (at least 1) and accepted for compatibility,
    but does not change how the suite runs.
    """
    sections = tuple(sections)
    unknown = [s for s in sections if s not in SECTIONS]
    if unknown:
        raise ValueError(f"unknown sections {unknown}; choose from {sorted(SECTIONS)}")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if cheng is None and certified is not None:
        need = {"K", "a", "D", "dim"}
        if need <= set(certified):
            cheng = ChengInputs(int(certified["dim"]), float(certified["a"]),
                                float(certified["K"]), float(certified["D"]))
    ctx = _SuiteContext(mm, seed, restarts, certified, cheng)
    # a measure on fewer than two points has no first eigenvalue to estimate
    no_gap = np.count_nonzero(mm.weights > 0) < 2
    entries = {}
    for tid, section, needs, run in _SUITE:
        unmet = needs and needs(ctx)
        if section not in sections:
            entries[tid] = _skip("section not requested")
        elif mm.n < 2:
            entries[tid] = _skip("one-point space: nothing to check")
        elif no_gap and section == "sec6":
            # sec6, the eigenvalue section, holds exactly the entries that read ctx.eigen
            entries[tid] = _skip("the first eigenvalue needs at least two points "
                                 "of positive mass")
        else:
            entries[tid] = _skip(unmet) if unmet else run(ctx)

    meta = {
        "seed": seed,
        "sections": list(sections),
        "space_hash": space_hash(mm),
        "space": space_label or "inline",
        "n": mm.n,
        "restarts": restarts,
        "tool_version": __version__,
    }
    return VerifyReport(entries, meta)
