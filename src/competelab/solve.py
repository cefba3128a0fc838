"""Projected truncated Newton descent, partition descent, and continuation.

Both minimizers take one kind of step (``_projected_step``) along one
kind of search direction (``_search_direction``); they differ in the
energy they descend.  The step and the direction work on a stack of
rows, each with its own energy, direction and scalars.

The direction is an inexact projected Newton direction (Bertsekas
1982).  Nodes held by a bound (at 0 with a positive gradient, at the cap
beta_i with a negative one) are fixed; on the remaining free set,
conjugate gradients from zero solve H d = -grad for the Hessian
H = L/h^2 - lam diag f_i'(u_i) + kappa Hess H(U) (a partition row, one
species alone, has no coupling term), preconditioned by
h^2 times the box solve shifted per species by the slope s_i =
|f_i'(beta_i)| of the species' law at its cap (``Objective.shifts``), to
a relative residual of NEWTON_CG_TOL or NEWTON_CG_MAXITER steps.  The
Hessian is built once per direction (``Objective.hessian``), so each CG
step costs one box solve, one stencil product for the whole stack and,
when coupled, one ``Coupling.d2H``.  A direction of non-positive
curvature ends the inner solve with the iterate so far (Steihaug 1983);
when it comes at the first step, the direction is the Sobolev gradient
d_i = -h^2 (L + s_i h^2 I)^-1 grad_i instead.  The Newton direction
captures the negative curvature -lam f_i'(u_i) that no
positive shift of the Sobolev metric can, so the stiff end of a
competition continuation takes a few steps instead of hundreds, and a
partition solve on a curved mask about a third as many as along the
Sobolev gradient.

The energy module applies the box solve matrix-free, as a DST solve on
the mask's bounding box; both minimizers use that one solve.  On
rectangles the box is the mask; on curved masks it is only a
preconditioner for the mask's operator, which CG corrects and the
Sobolev gradient does not.

The trial clip(U + t d), t = 1, 1/2, ..., to [0, beta_i] is accepted on
an Armijo test against the linear model h^2 * sum(grad * (U_new - U));
once t passes PRECOND_FLOOR the step underflows and U stays as it is.
Accepted steps therefore never increase the energy and every iterate
sits in the box [0, beta_i] (the species caps double as a priori sup
bounds).

A unit trial is flat when its model lies in (-TOL_ENERGY * max(1, |E|), 0]:
even the full step predicts a drop below the stall threshold.  A flat
step is a null step (no evaluation, no backtracking), and since it
leaves U, its gradient and its direction as they were, every later
iteration would repeat it, so the solve stops at once.  A positive
model, where the projection blocks descent, is never flat.

The free minimizer steps on the total coupled energy.  It stops on a
flat step once the projected residual is below tolerance (above it flat
steps take the full line search, which cannot spin) or on an underflow.
The partition solver alternates one step per species on its own
single-species energy with a hard segregation projection (largest
density keeps the node, ties go to the lowest index), so its output has
pairwise disjoint supports by construction; a flat or underflowing
species keeps its density, and the solve stops when no species moves or
the total energy has stalled for STALL_WINDOW iterations.

The free minimizer advances a list of systems on one mask as one
(m, k, n) stack (``minimize_free_many``; ``minimize_free`` is its
one-system case).  Each system keeps its own scalars: lam, species laws,
kappa, CG coefficients and stop, line-search t and stop reason.  So it
takes exactly the iterates it would take alone, and it leaves the stack
when its solve stops; the systems share only the numpy calls, whose
per-call cost dominates on small masks.  The partition minimizer does
the same with the m k species of m systems as the rows of one
(m k, 1, n) stack (``minimize_partition_many``; ``minimize_partition``
is its one-system case), each system with its own energy, stall counter
and stop.  A multistart hands its starts, and a sweep task all of its
groups' solves, to ``solve_starts``, which solves them in runs of at
most BATCH_VALUES stacked values, one batched call per run (criterion
7's fine disc scan thus solves one start at a time).  A batch's wall
time is split over its solves in proportion to their iterations, so a
result's ``seconds`` is a measured share, not a timing of its own.  The
records of ``minimize``, ``partition`` and ``extinction`` starts and
``system2``'s partition record carry such shares, and a sweep point sums
them.

Continuation re-minimizes along an increasing competition schedule,
warm-starting each rate from the previous minimizer; each rate is one
solve, timed alone.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .energy import (DensityField, Objective, SpeciesSystem, _ops,
                     energy_total, rescaled_copy)
from .geometry import DomainMask
from .model import Coupling, ScaledFamily, cutoff_phi

# Relative energy drop below which a step counts as stalled (and a unit
# trial whose model predicts less is flat), and the number of stalled
# steps that ends a partition solve.
TOL_ENERGY = 1e-10
STALL_WINDOW = 20
# Armijo sufficient-decrease factor and backtracking factor.
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
# Smallest trial step along the search direction; below it the step
# underflows.
PRECOND_FLOOR = 1e-3
# The free solver's inner conjugate-gradient solve of the Newton system:
# the relative residual at which it stops, and its iteration cap.
NEWTON_CG_TOL = 0.1
NEWTON_CG_MAXITER = 50


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 40000
    tol_residual: float | None = None   # None -> 1e-6 * lam
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, low in (("max_iters", 1), ("restarts", 0), ("seed", 0)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        v = self.tol_residual
        if v is not None and (isinstance(v, bool)
                              or not isinstance(v, numbers.Real)
                              or not math.isfinite(v) or v <= 0):
            raise ValueError(f"tol_residual must be a finite number > 0, "
                             f"got {v!r}")

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
    # free: residual, max_iters, step_underflow; partition: stall,
    # max_iters, step_underflow
    stop_reason: str | None = None
    evals: int = 0                  # energy evaluations (per species: partition)
    cg_iters: int = 0               # inner CG steps (all species: partition)
    seconds: float = 0.0            # wall time of the solve

    @property
    def energy(self) -> float:
        return self.report.total

    @property
    def alive_count(self) -> int:
        return int(sum(self.alive))


def alive_flags(sys: SpeciesSystem) -> list:
    """Species with L2 mass above 1e-3 * beta_i * sqrt(|Omega|)."""
    root_measure = np.sqrt(sys.mask.measure)
    return [bool(f.l2_mass() > 1e-3 * beta * root_measure)
            for f, beta in zip(sys.fields, sys.fam.betas)]


def _free_set(U, grad, caps):
    """Nodes not held by a bound (held: at 0 with grad > 0, at the cap with
    grad < 0)."""
    return ~(((U <= 0.0) & (grad > 0)) | ((U >= caps) & (grad < 0)))


def _projected_residual(U, grad, caps):
    """Sup norm of the box-projected first-order optimality residual: the
    largest |grad| on the free set."""
    return float(np.max(np.abs(np.where(_free_set(U, grad, caps), grad, 0.0))))


def _rowsum(X: np.ndarray) -> np.ndarray:
    """Sum of the entries of each row of a contiguous (m, ...) stack: for
    each row, the pairwise sum ``np.add.reduce`` gives that row alone."""
    return np.add.reduce(X.reshape(len(X), -1), axis=1)


def _clip(x: np.ndarray, cap) -> np.ndarray:
    """x clipped to the box [0, cap]: the values of ``np.clip`` at less
    per-call cost (a -0.0 entry comes out as +0.0)."""
    return np.minimum(np.maximum(x, 0.0), cap)


def _newton_direction(obj, box, U, grad, caps, shifts):
    """Truncated Newton directions for the rows of an (m, k, n) stack.

    For each row, the free set drops the nodes held by a bound: at 0 with
    grad > 0 and at the cap with grad < 0.  On it, conjugate gradients
    from zero solve H d = -grad for the Hessian H of ``obj`` at U,
    preconditioned by h^2 times the box solve with the row's H^1
    ``shifts``, until the residual falls below NEWTON_CG_TOL times its
    start or NEWTON_CG_MAXITER steps are taken.  H is built once per
    direction (``Objective.hessian``), so a CG step costs one box solve,
    one Hessian application and a few reductions for all rows at once.  A
    direction p with p.(H p) <= 0 ends a row's solve with its iterate so
    far (Steihaug); at the first step there is none, and the row is
    flagged.  Every row keeps its own CG scalars, so it takes the steps
    it would take alone, and leaves the stack when its solve ends.

    Returns (D, cg, flagged, resnorm): the directions (zero on flagged
    rows), and per row its CG step count, whether it is flagged, and its
    projected residual, the largest |grad| on its free set.
    """
    m = len(U)
    free = _free_set(U, grad, caps)
    R = np.where(free, -grad, 0.0)
    resnorm = np.abs(R).reshape(m, -1).max(axis=1).tolist()
    hess = obj.hessian(U)
    D = np.zeros_like(U)
    cg, flagged = [0] * m, [False] * m
    rr = _rowsum(R * R)
    stop = NEWTON_CG_TOL ** 2 * rr
    going = (rr > stop).tolist()
    rows = list(range(m))   # the rows still iterating; Dr holds their D
    Dr, P, rz, it = D, None, None, 0
    while True:
        if not all(going):   # rows whose solve has ended leave the stack
            keep = [j for j, g in enumerate(going) if g]
            for j, g in enumerate(going):
                if not g:
                    cg[rows[j]] = it
                    if Dr is not D:
                        D[rows[j]] = Dr[j]
            if not keep:
                return D, cg, flagged, resnorm
            rows = [rows[j] for j in keep]
            Dr, R, free, stop, shifts = (
                x[keep] for x in (Dr, R, free, stop, shifts))
            hess = hess.take(keep)
            if P is not None:
                P, rz = P[keep], rz[keep]
        if it == NEWTON_CG_MAXITER:
            break
        Z = np.where(free, obj.h2 * box.solve(R, shifts), 0.0)
        rz_new = _rowsum(R * Z)
        P = Z if P is None else Z + (rz_new / rz)[:, None, None] * P
        rz = rz_new
        it += 1
        HP = np.where(free, hess(P), 0.0)
        curv = _rowsum(P * HP)
        nonpos = curv <= 0.0
        if not any(nonpos.tolist()):
            alpha = (rz / curv)[:, None, None]
            Dr += alpha * P
            R -= alpha * HP
            going = (_rowsum(R * R) > stop).tolist()
            continue
        # rows with p.(H p) <= 0 keep their D as it is, and stop
        if it == 1:
            for j, x in enumerate(nonpos.tolist()):
                flagged[rows[j]] = x
        alpha = (rz / np.where(nonpos, 1.0, curv))[:, None, None]
        step = ~nonpos[:, None, None]
        np.add(Dr, alpha * P, out=Dr, where=step)
        np.subtract(R, alpha * HP, out=R, where=step)
        going = (~nonpos & (_rowsum(R * R) > stop)).tolist()
    for j, b in enumerate(rows):
        cg[b] = it
    if Dr is not D:
        D[rows] = Dr
    return D, cg, flagged, resnorm


def _search_direction(obj, box, U, grad, caps, shifts):
    """The search directions of both minimizers for the rows of a stack:
    each row's truncated Newton direction (``_newton_direction``), or,
    where negative curvature flags it at once, its Sobolev gradient
    direction -h^2 (L + s h^2 I)^-1 grad.  Returns (D, cg, resnorm)."""
    D, cg, flagged, resnorm = _newton_direction(obj, box, U, grad, caps, shifts)
    if any(flagged):
        f = [j for j, x in enumerate(flagged) if x]
        D[f] = -obj.h2 * box.solve(grad[f], shifts[f])
    return D, cg, resnorm


# How a row's projected step ended: a step taken, a null step, no trial passed.
STEP, FLAT, UNDERFLOW = 0, 1, 2


def _projected_step(obj, U, E, grad, D, caps, null_ok):
    """One box-projected Armijo step from each row of the stack U at its
    energy E (one per row).

    For each row, tries the search direction D from t = 1, halving t, and
    accepts clip(U + t D) once the energy falls by ARMIJO_C times the
    linear model h^2 * sum(grad * (U_new - U)) < 0.  When t passes
    PRECOND_FLOOR without an accepted trial the step underflows.  The
    rows still searching share t and one ``obj.value`` call per trial.

    Where ``null_ok`` holds (a flag per row), a flat unit trial, whose
    model lies in (-TOL_ENERGY * max(1, |E|), 0], is a null step: even the
    full step predicts a drop below the stall test's threshold, so nothing
    is evaluated.  A positive model, where the projection blocks descent,
    is never flat.

    Returns (U_new, E_new, LU_new, how, evals).  Per row, ``how`` is STEP,
    FLAT or UNDERFLOW and ``evals`` counts its energy evaluations; U_new,
    E_new and LU_new = L @ U_new hold values on the STEP rows only (U_new
    is None when no row stepped).
    """
    m = len(U)
    E = np.asarray(E)
    Es = E.tolist()
    how, evals = [UNDERFLOW] * m, [0] * m
    U_new = E_new = LU_new = None
    pend = list(range(m))   # the rows still searching
    t = 1.0
    while t >= PRECOND_FLOOR:
        Up, Dp, gp, cp = (U, D, grad, caps) if len(pend) == m else (
            x[pend] for x in (U, D, grad, caps))
        trial = _clip(Up + t * Dp, cp)
        models = [obj.h2 * x for x in _rowsum(gp * (trial - Up)).tolist()]
        tries = []
        for j, (r, model) in enumerate(zip(pend, models)):
            if (t == 1.0 and null_ok[r]
                    and -TOL_ENERGY * max(1.0, abs(Es[r])) < model <= 0):
                how[r] = FLAT
            elif model < 0:
                tries.append(j)
        if tries:
            rows = [pend[j] for j in tries]
            if len(tries) < len(pend):
                trial = trial[tries]
            Et, LUt = (obj if len(rows) == m else obj.take(rows)).value(trial)
            ok = []
            for i, (j, r, e) in enumerate(zip(tries, rows, Et.tolist())):
                evals[r] += 1
                if e <= Es[r] + ARMIJO_C * models[j]:
                    how[r] = STEP
                    ok.append(i)
            if len(ok) == m:   # every row steps at once
                return trial, Et, LUt, how, evals
            if ok:
                if U_new is None:
                    U_new, LU_new = np.empty_like(U), np.empty_like(U)
                    E_new = E.copy()
                acc = [rows[i] for i in ok]
                U_new[acc], E_new[acc], LU_new[acc] = trial[ok], Et[ok], LUt[ok]
        pend = [r for r in pend if how[r] == UNDERFLOW]
        if not pend:
            break
        t *= ARMIJO_SHRINK
    return U_new, E_new, LU_new, how, evals


def _split_wall(out, t0) -> list:
    """Give each result of a batch started at ``t0`` its share of the
    batch's wall time, in proportion to its iterations."""
    wall = time.perf_counter() - t0
    done = [res for res in out if isinstance(res, MinimizeResult)]
    total_iters = sum(res.iters for res in done)
    for res in done:
        res.seconds = wall * res.iters / total_iters
    return out


def _only(results) -> MinimizeResult:
    """The result of a one-system batch; a failed solve raises its error."""
    res, = results
    if isinstance(res, Exception):
        raise res
    return res


def minimize_free_many(systems, cfg: SolverConfig, labels=None) -> list:
    """Projected truncated Newton descent on the full coupled energy of
    each of a list of systems, advanced as one (m, k, n) stack.

    The systems share one mask, species count and base law, and the
    coupled ones (kappa > 0) one coupling.  Each keeps its own scalars:
    lam, species scales, kappa, CG coefficients and stop, line-search t
    and stop reason.  So each result is, bit for bit, the one its system
    gets alone; the systems share only the numpy calls, and a system
    leaves the stack when its solve stops.  The batch's wall time is split
    over the solves in proportion to their iterations, and a result's
    ``seconds`` is its share.

    Returns one MinimizeResult per system, in order, or for a system whose
    initial energy is not finite the ValueError that fails it alone.
    """
    t0 = time.perf_counter()
    systems = list(systems)
    labels = ["custom"] * len(systems) if labels is None else list(labels)
    # The coupled systems go first, so they stay a leading slice of the
    # stack as it shrinks (``Objective.many``).
    order = sorted(range(len(systems)), key=lambda b: not systems[b].coupled)
    ordered = [systems[b] for b in order]
    obj = Objective.many(ordered)
    box = _ops(obj.mask).box_solver()
    caps = np.stack([s.fam.betas for s in ordered])[:, :, None]
    shifts = obj.shifts()
    tol_res = [cfg.tol_residual if cfg.tol_residual is not None
               else 1e-6 * s.lam for s in ordered]
    U = np.clip(np.stack([s.stacked() for s in ordered]), 0.0, caps)
    E, LU = obj.value(U)

    B = len(systems)
    rows = list(range(B))   # the systems still iterating, by stack row
    evals, cg_iters, iters = [1] * B, [0] * B, [0] * B
    residual, converged = [np.inf] * B, [False] * B
    stop_reason, finals = ["max_iters"] * B, [None] * B
    energies = [[e] for e in E.tolist()]   # per system, its accepted iterates

    def shrink(keep):
        nonlocal rows, obj, U, E, LU, caps, shifts, tol_res
        rows, tol_res = [rows[j] for j in keep], [tol_res[j] for j in keep]
        U, E, LU, caps, shifts = (x[keep] for x in (U, E, LU, caps, shifts))
        obj = obj.take(keep)

    finite = np.isfinite(E).tolist()
    if not all(finite):
        shrink([j for j, ok in enumerate(finite) if ok])
    it = 0
    while rows and it < cfg.max_iters:
        it += 1
        grad = obj.grad(U, LU)
        D, cg, resnorm = _search_direction(obj, box, U, grad, caps, shifts)
        # A null step repeats forever, so it ends a solve at once; above the
        # residual tolerance it is not allowed, or it would spin.
        small = [r <= tol for r, tol in zip(resnorm, tol_res)]
        U_new, E_new, LU_new, how, ev = _projected_step(
            obj, U, E, grad, D, caps, null_ok=small)
        keep = []
        for j, b in enumerate(rows):
            cg_iters[b] += cg[j]
            evals[b] += ev[j]
            residual[b] = resnorm[j]
            if how[j] == STEP:
                keep.append(j)
                energies[b].append(E_new[j])
            else:
                iters[b], finals[b] = it, U[j]
                converged[b] = how[j] == FLAT or small[j]
                stop_reason[b] = ("residual" if how[j] == FLAT
                                  else "step_underflow")
        if not keep:
            rows = []
            break
        U, E, LU = U_new, E_new, LU_new
        if len(keep) < len(rows):
            shrink(keep)
    for j, b in enumerate(rows):   # these ran out of iterations
        iters[b], finals[b] = it, U[j]

    out = [None] * B
    for b, sys0 in enumerate(ordered):
        if finals[b] is None:
            out[order[b]] = ValueError(
                "non-finite energy at the initial iterate")
            continue
        final = sys0.replace_values(finals[b])
        out[order[b]] = MinimizeResult(
            system=final, report=energy_total(final), iters=iters[b],
            converged=converged[b], alive=alive_flags(final),
            start_label=labels[order[b]], residual=residual[b],
            energies=np.array(energies[b]), stop_reason=stop_reason[b],
            evals=evals[b], cg_iters=cg_iters[b])
    return _split_wall(out, t0)


def minimize_free(sys0: SpeciesSystem, cfg: SolverConfig,
                  start_label: str = "custom") -> MinimizeResult:
    """Projected truncated Newton descent on the full coupled energy: the
    one-system case of ``minimize_free_many``."""
    return _only(minimize_free_many([sys0], cfg, [start_label]))


def _distance_to_boundary(mask: DomainMask) -> np.ndarray:
    """Euclidean distance from each interior node to the nearest
    non-interior node, in length units; computed once per mask (read-only).

    The exact transform in lattice units is separable (Felzenszwalb &
    Huttenlocher, Theory of Computing 8, 2012): g is the distance to the
    nearest non-interior node along the node's column, and the squared
    distance is the minimum over row offsets s of g^2(j +- s) + s^2.  The
    grid's outer ring is non-interior, so every column has such a node,
    and offsets stop once s^2 reaches the largest squared distance left.
    Everything is integer until the one square root.
    """
    ops = _ops(mask)
    if ops.distance is None:
        inside = mask.interior
        nx, ny = inside.shape
        i = np.arange(nx, dtype=np.int32)[:, None]
        up = np.maximum.accumulate(np.where(inside, 0, i), axis=0)
        down = np.minimum.accumulate(np.where(inside, nx, i)[::-1], axis=0)[::-1]
        g = np.minimum(i - up, down - i)
        # g^2 flanked by ny columns that read more than any squared distance
        g2 = np.full((nx, 3 * ny), nx * nx + ny * ny, dtype=np.int32)
        g2[:, ny:2 * ny] = g * g
        d2 = g * g
        cand = np.empty_like(d2)
        s = 1
        while s * s < d2.max():
            np.minimum(g2[:, ny - s:2 * ny - s], g2[:, ny + s:2 * ny + s], out=cand)
            cand += s * s
            np.minimum(d2, cand, out=d2)
            s += 1
        ops.distance = np.sqrt(d2[inside]) * mask.h
        ops.distance.setflags(write=False)
    return ops.distance


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


# The most stacked values (systems x species x nodes) one batched solve
# advances together.  A stacked numpy call's cost is mostly per-call
# overhead below this size and grows linearly in it above (README,
# "Command line"), so a larger batch saves no more.
BATCH_VALUES = 2 ** 15


def batch_runs(sizes) -> list:
    """Cut items of the given stacked sizes, in order, into runs of
    consecutive indices of at most BATCH_VALUES values each; an item larger
    than that runs alone."""
    runs, used = [], 0
    for i, size in enumerate(sizes):
        if runs and used + size <= BATCH_VALUES:
            runs[-1].append(i)
            used += size
        else:
            runs.append([i])
            used = size
    return runs


def solve_starts(starts, cfg: SolverConfig, partition: bool = False) -> list:
    """Solve labeled starting systems ``(label, system)`` on one mask, in
    runs cut by ``batch_runs``, one ``minimize_free_many`` (or
    ``minimize_partition_many``) call per run.

    Returns one MinimizeResult per start, in order, or for a start whose
    initial energy is not finite the ValueError that fails it alone.  A
    result's ``seconds`` is its share of its run's wall time.
    """
    solver = minimize_partition_many if partition else minimize_free_many
    labels = [label for label, _ in starts]
    systems = [sys0 for _, sys0 in starts]
    out = []
    for run in batch_runs(s.k * s.mask.n_interior for s in systems):
        out += solver([systems[i] for i in run], cfg, [labels[i] for i in run])
    return out


def minimize_multistart(mask: DomainMask, fam: ScaledFamily, lam: float,
                        coupling: Coupling | None = None, kappa: float = 0.0,
                        cfg: SolverConfig | None = None, partition: bool = False,
                        warn=None):
    """Run every initializer; return (best result, all results).

    The starts are solved in batches (``solve_starts``), and the best is
    picked by ``best_start``.
    """
    cfg = cfg or SolverConfig()
    if lam <= 0:
        raise ValueError("growth scale lam must be positive")
    results = solve_starts(default_initializers(mask, fam, lam, coupling,
                                                kappa, cfg, warn),
                           cfg, partition)
    return best_start(results), results


def best_start(results) -> MinimizeResult:
    """The first result, in start order, that attains the minimum final
    energy; a failed start (an error among the results) raises its error."""
    for res in results:
        if isinstance(res, Exception):
            raise res
    return min(results, key=lambda r: r.energy)


def segregation_projection(U: np.ndarray) -> np.ndarray:
    """At each node keep the largest density (ties: lowest species index),
    for a (k, n) stack or for each (k, n) block of a (..., k, n) stack."""
    U = np.maximum(U, 0.0)
    winner = np.argmax(U, axis=-2)[..., None, :]
    species = np.arange(U.shape[-2])[:, None]
    return np.where(species == winner, U, 0.0)


def minimize_partition_many(systems, cfg: SolverConfig, labels=None) -> list:
    """Alternating descent/projection scheme for the segregated problem,
    for each of a list of systems, advanced as one stack.

    Ignores the competition rate: each species takes one projected step
    along its search direction (``_search_direction``) on its own
    single-species energy, then the segregation projection restores
    pairwise disjoint supports.  A solve terminates when no species moves
    (converged only when every step is flat) or on an energy stall of its
    segregated total.  The output is segregated nodewise by construction,
    and a result's ``cg_iters`` sums its species' CG steps.

    The systems share one mask, species count and base law.  The m
    systems' species are the m k rows of one (m k, 1, n) stack; each
    system keeps its own energy, stall counter, stop reason and iteration
    count, and leaves the stack when its solve stops, so each result is,
    bit for bit, the one its system gets alone.  The batch's wall time is
    split over the solves in proportion to their iterations, and a
    result's ``seconds`` is its share.

    Returns one MinimizeResult per system, in order, or for a system whose
    initial energy is not finite the ValueError that fails it alone.
    """
    t0 = time.perf_counter()
    systems = list(systems)
    labels = ["custom"] * len(systems) if labels is None else list(labels)
    B = len(systems)
    # Row b k + i of this objective is species i of system b alone, a
    # (1, n) stack: its energy is J_i, and there is no coupling.
    obj = Objective.species_of(systems)
    box = _ops(obj.mask).box_solver()
    k, n = systems[0].k, obj.mask.n_interior
    caps = np.stack([s.fam.betas for s in systems])[:, :, None]
    U = segregation_projection(np.clip(np.stack([s.stacked() for s in systems]),
                                       0.0, caps)).reshape(B * k, 1, n)
    caps = caps.reshape(B * k, 1, 1)
    shifts = obj.shifts()
    Es, LU = obj.value(U)   # per-species energies, L @ U
    E = Es.reshape(B, k).sum(axis=1).tolist()

    rows = list(range(B))   # the systems still iterating, by stack block
    evals, iters, stall, cg_iters = [k] * B, [0] * B, [0] * B, [0] * B
    energies = [[e] for e in E]
    converged, stop_reason, finals = [False] * B, ["max_iters"] * B, [None] * B

    def leave(stopped):
        """Keep the final iterate of the given blocks, which stop, and drop
        them from the stack."""
        nonlocal rows, obj, U, LU, Es, E, caps, shifts, stall
        for j in stopped:
            finals[rows[j]] = (U[j * k:(j + 1) * k], LU[j * k:(j + 1) * k])
        keep = [j for j in range(len(rows)) if j not in stopped]
        sub = [j * k + i for j in keep for i in range(k)]
        rows, E, stall = ([x[j] for j in keep] for x in (rows, E, stall))
        U, LU, Es, caps, shifts = (x[sub] for x in (U, LU, Es, caps, shifts))
        obj = obj.take(sub)

    failed = [j for j, e in enumerate(E) if not math.isfinite(e)]
    if failed:   # these never iterate
        leave(failed)
    it = 0
    while rows and it < cfg.max_iters:
        it += 1
        grad = obj.grad(U, LU)
        D, cg, _ = _search_direction(obj, box, U, grad, caps, shifts)
        U_new, _, _, how, ev = _projected_step(obj, U, Es, grad, D, caps,
                                               null_ok=[True] * len(U))
        stopped = []   # no species moved, so every later iteration repeats
        for j, b in enumerate(rows):
            block = how[j * k:(j + 1) * k]
            evals[b] += sum(ev[j * k:(j + 1) * k])
            cg_iters[b] += sum(cg[j * k:(j + 1) * k])
            if STEP not in block:
                stopped.append(j)
                iters[b], converged[b] = it, block.count(FLAT) == k
                stop_reason[b] = "stall" if converged[b] else "step_underflow"
        moved = [r for r, x in enumerate(how) if x == STEP]
        if moved:
            U[moved] = U_new[moved]
        if stopped:
            leave(stopped)
            if not rows:
                break
        U = segregation_projection(U.reshape(-1, k, n)).reshape(-1, 1, n)
        Es, LU = obj.value(U)
        stopped = []
        for j, e_new in enumerate(Es.reshape(-1, k).sum(axis=1).tolist()):
            b, e = rows[j], E[j]
            evals[b] += k
            flat = abs(e - e_new) < TOL_ENERGY * max(1.0, abs(e))
            stall[j] = stall[j] + 1 if flat else 0
            E[j] = e_new
            energies[b].append(e_new)
            if stall[j] >= STALL_WINDOW:
                stopped.append(j)
                iters[b], converged[b], stop_reason[b] = it, True, "stall"
        if stopped:
            leave(stopped)
    for b in rows:   # these ran out of iterations
        iters[b] = it
    leave(list(range(len(rows))))

    out = []
    for b, sys0 in enumerate(systems):
        if not iters[b]:   # it never iterated
            out.append(ValueError("non-finite energy at the initial iterate"))
            continue
        Ub, LUb = finals[b]
        grad = Objective.species_of([sys0]).grad(Ub, LUb)[:, 0]
        final = sys0.replace_values(Ub[:, 0])
        out.append(MinimizeResult(
            system=final, report=energy_total(final), iters=iters[b],
            converged=converged[b], alive=alive_flags(final),
            start_label=labels[b],
            residual=_projected_residual(Ub[:, 0], grad, sys0.fam.betas[:, None]),
            energies=np.array(energies[b]), stop_reason=stop_reason[b],
            evals=evals[b], cg_iters=cg_iters[b]))
    return _split_wall(out, t0)


def minimize_partition(sys0: SpeciesSystem, cfg: SolverConfig,
                       start_label: str = "custom") -> MinimizeResult:
    """Alternating descent/projection scheme for the segregated problem:
    the one-system case of ``minimize_partition_many``."""
    return _only(minimize_partition_many([sys0], cfg, [start_label]))


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
        sys = SpeciesSystem(sys.fields, sys.fam, sys.coupling, sys.lam, kap)
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
