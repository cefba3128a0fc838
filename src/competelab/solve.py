"""Preconditioned projected descent, partition descent, and continuation.

Both minimizers take one kind of step (``_projected_step``).  Its search
direction is the Sobolev gradient d_i = -h^2 (L + s_i h^2 I)^-1 grad_i,
shifted per species by the slope s_i = |f_i'(beta_i)| of the species' law
at its cap, which makes the iteration count independent of the mesh
width.  The energy module applies the inverse matrix-free: a DST solve on
the mask's bounding box, refined by a few preconditioned conjugate
gradient steps on masks where the box solve alone would overshoot.

The trial clip(U + t d), t = 1, 1/2, ..., to [0, beta_i] is accepted on
an Armijo test against the linear model h^2 * sum(grad * (U_new - U));
once t passes PRECOND_FLOOR the step falls back to the Euclidean
clip(U - step * grad) under the plain Armijo test, because box
projection in a non-diagonal metric need not descend.  Accepted steps
therefore never increase the energy and every iterate sits in the box
[0, beta_i] (the species caps double as a priori sup bounds).

A unit trial is flat when its model lies in (-tol_energy * max(1, |E|), 0]:
even the full step predicts a drop below the stall threshold.  A flat
step is a null step (no evaluation, no backtracking), and since it
leaves U, its gradient and its direction as they were, every later
iteration would repeat it, so the solve stops at once.  A positive
model, where the projection blocks descent, is never flat.

The free minimizer steps on the total coupled energy.  It stops on a
flat step once the projected residual is below tolerance (above it
flat steps take the full line search, which cannot spin), or when the
energy has stalled for ``stall_window`` steps with the residual below
tolerance.  The partition solver alternates one step per species on its
own single-species energy with a hard segregation projection (largest
density keeps the node, ties go to the lowest index), so its output has
pairwise disjoint supports by construction; a flat species keeps its
density, and the solve stops when every species is flat or the total
energy has stalled for ``stall_window`` iterations.

Continuation re-minimizes along an increasing competition schedule,
warm-starting each rate from the previous minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .energy import (DensityField, SpeciesSystem, _ops, energy_total,
                     rescaled_copy)
from .geometry import DomainMask
from .model import Coupling, ScaledFamily, F_eval, cutoff_phi, f_eval

STEP_UNDERFLOW = 1e-18
# Smallest trial step along the preconditioned direction; below it the
# iteration takes the Euclidean step instead.
PRECOND_FLOOR = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 40000
    tol_energy: float = 1e-10
    tol_residual: float | None = None   # None -> 1e-6 * lam
    step0: float | None = None          # None -> h^2 / 8
    armijo_shrink: float = 0.5
    armijo_c: float = 1e-4
    step_growth: float = 1.1
    restarts: int = 8
    seed: int = 0
    coexist_eta: float | None = None    # None -> 1e-3 * beta_i * sqrt(|Omega|)
    stall_window: int = 20

    def __post_init__(self):
        if self.tol_energy <= 0:
            raise ValueError("tol_energy must be positive")
        if self.tol_residual is not None and self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if not 0 < self.armijo_shrink < 1:
            raise ValueError("armijo shrink factor must lie in (0, 1)")
        if self.coexist_eta is not None and self.coexist_eta <= 0:
            raise ValueError("coexist_eta must be positive")

    def with_(self, **kw) -> "SolverConfig":
        return replace(self, **kw)


@dataclass
class MinimizeResult:
    system: SpeciesSystem
    report: object
    iters: int
    converged: bool
    alive: list
    start_label: str
    residual: float
    energies: np.ndarray
    stop_reason: str | None = None  # residual, stall, max_iters, step_underflow
    fallback_steps: int = 0         # steps that fell back to the Euclidean one
    evals: int = 0                  # energy evaluations (per species: partition)

    @property
    def energy(self) -> float:
        return self.report.total

    @property
    def alive_count(self) -> int:
        return int(sum(self.alive))


def alive_flags(sys: SpeciesSystem, cfg: SolverConfig) -> list:
    """Species with L2 mass above the liveness threshold."""
    betas = sys.fam.betas
    root_measure = np.sqrt(sys.mask.measure)
    out = []
    for i, f in enumerate(sys.fields):
        eta = cfg.coexist_eta if cfg.coexist_eta is not None \
            else 1e-3 * betas[i] * root_measure
        out.append(bool(f.l2_mass() > eta))
    return out


def _species_energy(v, L, h2, fam, lam, i):
    """J-energy of species i (0-based) at v, with the product L @ v."""
    Lv = L @ v
    e = 0.5 * float(v @ Lv) - lam * h2 * float(np.sum(F_eval(fam, i + 1, v)))
    return e, Lv


def _stack_energy(U, L, h2, fam, lam, coupling, kappa):
    """Energy of the stack U and its product L @ U, which the gradient reuses."""
    LU = np.empty_like(U)
    e = 0.0
    for i in range(U.shape[0]):
        e_i, LU[i] = _species_energy(U[i], L, h2, fam, lam, i)
        e += e_i
    if kappa > 0 and coupling is not None and U.shape[0] > 1:
        e += kappa * h2 * float(np.sum(coupling.H(U)))
    return e, LU


def _stack_gradient(U, LU, h2, fam, lam, coupling, kappa):
    g = np.empty_like(U)
    for i in range(U.shape[0]):
        g[i] = LU[i] / h2 - lam * f_eval(fam, i + 1, U[i])
    if kappa > 0 and coupling is not None and U.shape[0] > 1:
        g += kappa * coupling.dH(U)
    return g


def _projected_residual(U, grad, betas):
    """Sup norm of the box-projected first-order optimality residual."""
    res = grad.copy()
    at_lo = U <= 0.0
    res[at_lo] = np.minimum(grad[at_lo], 0.0)
    at_hi = U >= betas[:, None]
    res[at_hi] = np.maximum(grad[at_hi], 0.0)
    return float(np.max(np.abs(res))) if res.size else 0.0


def _h1_shifts(fam, lam, h2):
    """Per-species shifts s_i h^2 of the Sobolev metric L + s_i h^2 I.

    s_i = lam * a_i * c_i is the slope |f_i'(beta_i)| of species i's scaled
    law at its cap, so each species is preconditioned on its own density
    scale.
    """
    return [lam * a * c * h2 for a, c in map(fam._scale, range(1, fam.k + 1))]


def _projected_step(value, U, E, grad, D, cap, step, step_cap, cfg, h2,
                    null_ok=False):
    """One box-projected Armijo step from U at energy E.

    Tries the preconditioned direction D from t = 1, accepting
    clip(U + t D) once the energy falls by ``armijo_c`` times the linear
    model h^2 * sum(grad * (U_new - U)) < 0.  Projection under a
    non-diagonal metric need not descend, so when t passes PRECOND_FLOOR
    the Euclidean step clip(U - step * grad) with the caller's persistent
    step size is taken instead, under the plain Armijo test.

    With ``null_ok`` a flat unit trial, whose model lies in
    (-tol_energy * max(1, |E|), 0], is a null step: even the full step
    predicts a drop below the stall test's threshold, so nothing is
    evaluated and U is returned as it is.  A positive model, where the
    projection blocks descent, is never flat.

    Returns (U_new, E_new, L @ U_new, step, how), where ``how`` is
    "precond" or "euclid" for the step taken, "flat" for a null step
    (U_new is U, L @ U_new is None) and "underflow" when the Euclidean
    step underflowed as well (U_new is None).
    """
    t = 1.0
    while t >= PRECOND_FLOOR:
        U_new = np.clip(U + t * D, 0.0, cap)
        model = h2 * float(np.sum(grad * (U_new - U)))
        if (null_ok and t == 1.0
                and -cfg.tol_energy * max(1.0, abs(E)) < model <= 0):
            return U, E, None, step, "flat"
        if model < 0:
            E_new, LU = value(U_new)
            if E_new <= E + cfg.armijo_c * model:
                return U_new, E_new, LU, step, "precond"
        t *= cfg.armijo_shrink
    while step > STEP_UNDERFLOW:
        U_new = np.clip(U - step * grad, 0.0, cap)
        E_new, LU = value(U_new)
        move = float(np.sum((U_new - U) ** 2))
        if E_new <= E - cfg.armijo_c * (h2 / step) * move:
            if move > 0:
                step = min(step * cfg.step_growth, step_cap)
            return U_new, E_new, LU, step, "euclid"
        step *= cfg.armijo_shrink
    return None, E, None, step, "underflow"


def minimize_free(sys0: SpeciesSystem, cfg: SolverConfig,
                  start_label: str = "custom") -> MinimizeResult:
    """H^1-preconditioned projected descent on the full coupled energy."""
    mask = sys0.mask
    ops = _ops(mask)
    L, box = ops.L, ops.box_solver()
    h2 = mask.h ** 2
    fam, lam, coupling, kappa = sys0.fam, sys0.lam, sys0.coupling, sys0.kappa
    betas = fam.betas
    caps = betas[:, None]
    tol_res = cfg.tol_residual if cfg.tol_residual is not None else 1e-6 * lam
    step = cfg.step0 if cfg.step0 is not None else h2 / 8.0
    shifts = _h1_shifts(fam, lam, h2)

    evals = 0

    def value(V):
        nonlocal evals
        evals += 1
        return _stack_energy(V, L, h2, fam, lam, coupling, kappa)

    U = np.clip(sys0.stacked(), 0.0, caps)
    E, LU = value(U)
    if not np.isfinite(E):
        raise ValueError("non-finite energy at the initial iterate")

    step_cap = 1e9 * step
    energies = [E]
    stall = 0
    fallback_steps = 0
    converged = False
    stop_reason = "max_iters"
    resnorm = np.inf
    it = 0
    for it in range(1, cfg.max_iters + 1):
        grad = _stack_gradient(U, LU, h2, fam, lam, coupling, kappa)
        resnorm = _projected_residual(U, grad, betas)
        D = -h2 * box.mask_solve(grad, shifts)
        # A null step repeats forever, so it ends the solve at once; above
        # the residual tolerance it is not allowed, or it would spin.
        U_new, E_new, LU_new, step, how = _projected_step(
            value, U, E, grad, D, caps, step, step_cap, cfg, h2,
            null_ok=resnorm <= tol_res)
        fallback_steps += how in ("euclid", "underflow")
        if how == "flat":
            converged = True
            stop_reason = "residual"
            break
        if how == "underflow":
            converged = resnorm <= tol_res
            stop_reason = "step_underflow"
            break

        drop = E - E_new
        stall = stall + 1 if drop < cfg.tol_energy * max(1.0, abs(E)) else 0
        U, E, LU = U_new, E_new, LU_new
        energies.append(E)

        if stall >= cfg.stall_window and resnorm <= tol_res:
            converged = True
            stop_reason = "residual"
            break

    final = sys0.replace_values(U)
    report = energy_total(final)
    return MinimizeResult(system=final, report=report, iters=it,
                          converged=converged, alive=alive_flags(final, cfg),
                          start_label=start_label, residual=resnorm,
                          energies=np.array(energies), stop_reason=stop_reason,
                          fallback_steps=fallback_steps, evals=evals)


def _distance_to_boundary(mask: DomainMask) -> np.ndarray:
    """Euclidean distance from each interior node to the nearest

    non-interior node, in length units."""
    dist = ndimage.distance_transform_edt(mask.interior)
    return dist[mask.interior] * mask.h


def _bump(mask: DomainMask, cap: float, lam: float) -> np.ndarray:
    d = _distance_to_boundary(mask)
    w = max(2.0 * mask.h, min(2.0 / np.sqrt(lam), float(d.max())))
    return cap * np.minimum(1.0, d / w)


def default_initializers(mask: DomainMask, fam: ScaledFamily, lam: float,
                         coupling: Coupling | None = None, kappa: float = 0.0,
                         cfg: SolverConfig | None = None, warn=None):
    """Structured and random starting systems for multistart minimization.

    Returns labeled systems: a first-species boundary-distance bump, one
    lone bump per further species, a seeded-copies start (shrunken copies
    of the bump with the first species cut off over their supports, so
    the fields are pairwise disjoint), a uniform half-cap start, and
    ``cfg.restarts`` nodewise-uniform random starts seeded ``seed + index``.
    When no placement fits a copy, the seeded start is dropped with a
    warning.
    """
    cfg = cfg or SolverConfig()
    warn = warn or (lambda msg: None)
    k = fam.k
    betas = fam.betas
    n = mask.n_interior

    def mk(stacked, label):
        fields = [DensityField(mask, stacked[i]) for i in range(k)]
        return label, SpeciesSystem(fields, fam, coupling, lam, kappa)

    starts = []
    bump = _bump(mask, betas[0], lam)
    single = np.zeros((k, n))
    single[0] = bump
    starts.append(mk(single, "single"))

    for i in range(1, k):
        lone = np.zeros((k, n))
        lone[i] = bump * (betas[i] / betas[0])
        starts.append(mk(lone, f"single-{i + 1}"))

    if k > 1:
        seeded = _seeded_copies(mask, fam, lam, bump, warn)
        if seeded is not None:
            starts.append(mk(seeded, "seeded"))

    uniform = np.repeat((betas / 2.0)[:, None], n, axis=1)
    starts.append(mk(uniform, "uniform"))

    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        rand = rng.uniform(0.0, 1.0, size=(k, n)) * betas[:, None]
        starts.append(mk(rand, f"random-{r}"))
    return starts


def _seeded_copies(mask: DomainMask, fam: ScaledFamily, lam: float,
                   bump: np.ndarray, warn):
    """Disjointly supported copy start; None when no copy fits.

    On scale-anchored two-species domains (wedge vertex, disc center) the
    copy is the anchored shrunken bump supported in eps*Omega and the
    first species is ramped to zero over the covering strip or ball.
    Elsewhere copies sit on pairwise disjoint interior balls chosen by
    the distance transform.
    """
    k = fam.k
    eps_of = lambda i: 0.5 if fam.identical else fam.eps[i - 2]

    if k == 2 and mask.kind in ("wedge", "disc"):
        eps2 = eps_of(2)
        copy = rescaled_copy(DensityField(mask, bump), eps2, k, x0=(0.0, 0.0))
        u1 = bump.copy()
        if mask.kind == "wedge":
            u1 *= cutoff_phi(mask.xs / eps2)
        else:
            radius = mask.params["radius"]
            u1 *= cutoff_phi(np.hypot(mask.xs, mask.ys) / (eps2 * radius))
        u1[copy.values > 0] = 0.0  # interpolation fringe: keep supports disjoint
        return np.stack([u1, copy.values])

    dist = _distance_to_boundary(mask)
    order = np.argsort(-dist)
    circum = float(np.max(np.hypot(mask.xs, mask.ys)))
    u1 = bump.copy()
    out = np.zeros((k, mask.n_interior))
    placed = []

    for i in range(2, k + 1):
        eps_i = eps_of(i)
        rho = eps_i * circum
        spot = None
        for a in order:
            if dist[a] < rho + 2 * mask.h:
                continue
            x, y = mask.xs[a], mask.ys[a]
            if all(np.hypot(x - px, y - py) >= rho + prho + 4 * mask.h
                   for px, py, prho in placed):
                spot = (x, y)
                break
        if spot is None:
            warn(f"no interior ball of radius {rho:.3g} fits species {i}; "
                 "seeded start dropped")
            return None
        placed.append((spot[0], spot[1], rho))
        copy = rescaled_copy(DensityField(mask, bump), eps_i, k, x0=spot)
        out[i - 1] = copy.values
        r = np.hypot(mask.xs - spot[0], mask.ys - spot[1])
        u1 *= cutoff_phi(r / max(rho, mask.h))
        u1[copy.values > 0] = 0.0  # interpolation fringe: keep supports disjoint

    out[0] = u1
    return out


def minimize_multistart(mask: DomainMask, fam: ScaledFamily, lam: float,
                        coupling: Coupling | None = None, kappa: float = 0.0,
                        cfg: SolverConfig | None = None, starts=None,
                        partition: bool = False, warn=None):
    """Run every initializer; return (best result, all results).

    The best result attains the minimum final energy over all starts.
    """
    cfg = cfg or SolverConfig()
    if lam <= 0:
        raise ValueError("growth scale lam must be positive")
    if starts is None:
        starts = default_initializers(mask, fam, lam, coupling, kappa, cfg, warn)
    results = []
    for label, sys0 in starts:
        if partition:
            results.append(minimize_partition(sys0, cfg, start_label=label))
        else:
            results.append(minimize_free(sys0, cfg, start_label=label))
    best = min(results, key=lambda r: r.energy)
    return best, results


def segregation_projection(U: np.ndarray) -> np.ndarray:
    """At each node keep the largest density (ties: lowest species index)."""
    U = np.maximum(U, 0.0)
    winner = np.argmax(U, axis=0)
    out = np.zeros_like(U)
    cols = np.arange(U.shape[1])
    out[winner, cols] = U[winner, cols]
    return out


def minimize_partition(sys0: SpeciesSystem, cfg: SolverConfig,
                       start_label: str = "custom") -> MinimizeResult:
    """Alternating descent/projection scheme for the segregated problem.

    Ignores the competition rate: each species takes one projected step
    on its own single-species energy, then the segregation projection
    restores pairwise disjoint supports.  Terminates when every species'
    step is flat or on an energy stall of the segregated total.  The output is segregated nodewise by
    construction.
    """
    mask = sys0.mask
    ops = _ops(mask)
    L, box = ops.L, ops.box_solver()
    h2 = mask.h ** 2
    fam, lam = sys0.fam, sys0.lam
    betas = fam.betas
    k = fam.k

    evals = 0

    def species_value(v, i):
        nonlocal evals
        evals += 1
        return _species_energy(v, L, h2, fam, lam, i)

    def energies_of(V):
        """Per-species energies of V and the product L @ V."""
        parts = [species_value(V[i], i) for i in range(k)]
        return np.array([e for e, _ in parts]), np.stack([Lv for _, Lv in parts])

    U = segregation_projection(np.clip(sys0.stacked(), 0.0, betas[:, None]))
    Es, LU = energies_of(U)
    E = float(Es.sum())
    if not np.isfinite(E):
        raise ValueError("non-finite energy at the initial iterate")

    shifts = _h1_shifts(fam, lam, h2)
    step0 = cfg.step0 if cfg.step0 is not None else h2 / 8.0
    steps = np.full(k, step0)
    step_cap = 1e9 * step0
    energies = [E]
    stall = 0
    fallback_steps = 0
    converged = False
    stop_reason = "max_iters"
    it = 0
    for it in range(1, cfg.max_iters + 1):
        grad = _stack_gradient(U, LU, h2, fam, lam, None, 0.0)
        D = -h2 * box.mask_solve(grad, shifts)
        flat = 0
        for i in range(k):
            value = lambda v, i=i: species_value(v, i)
            v_new, _, _, steps[i], how = _projected_step(
                value, U[i], Es[i], grad[i], D[i], betas[i], steps[i],
                step_cap, cfg, h2, null_ok=True)
            fallback_steps += how in ("euclid", "underflow")
            flat += how == "flat"
            if v_new is not None:
                U[i] = v_new
        if flat == k:   # U is unchanged, so every later iteration repeats
            converged = True
            stop_reason = "stall"
            break

        U = segregation_projection(U)
        Es, LU = energies_of(U)
        E_new = float(Es.sum())
        stall = stall + 1 if abs(E - E_new) < cfg.tol_energy * max(1.0, abs(E)) else 0
        E = E_new
        energies.append(E)
        if stall >= cfg.stall_window:
            converged = True
            stop_reason = "stall"
            break

    final = sys0.replace_values(U)
    report = energy_total(final)
    grad = _stack_gradient(U, LU, h2, fam, lam, None, 0.0)
    return MinimizeResult(system=final, report=report, iters=it,
                          converged=converged, alive=alive_flags(final, cfg),
                          start_label=start_label,
                          residual=_projected_residual(U, grad, betas),
                          energies=np.array(energies), stop_reason=stop_reason,
                          fallback_steps=fallback_steps, evals=evals)


def kappa_continuation(sys0: SpeciesSystem, kappa_schedule, cfg: SolverConfig):
    """Warm-started minimization along an increasing competition schedule.

    Returns one MinimizeResult per rate; the report's ``interaction``
    field is the raw overlap integral of the coupling at that rate.
    """
    schedule = [float(x) for x in kappa_schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("kappa schedule must be strictly increasing")
    sys = sys0
    results = []
    for kap in schedule:
        sys = SpeciesSystem([f.copy() for f in sys.fields], sys.fam,
                            sys.coupling, sys.lam, kappa=kap)
        res = minimize_free(sys, cfg, start_label=f"kappa-{kap:g}")
        results.append(res)
        sys = res.system
    return results


def merged_system(sys: SpeciesSystem) -> SpeciesSystem:
    """Move the total density into species 1 and zero the others."""
    U = sys.stacked()
    merged = np.zeros_like(U)
    merged[0] = U.sum(axis=0)
    return sys.replace_values(merged)
