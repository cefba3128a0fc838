"""Verification experiments, parameter sweeps, and persistent run records.

Each experiment drives the solver over a controlled configuration and
reduces the outcome to a PASS / FAIL / INCONCLUSIVE verdict plus a list
of RunRecords.  Records serialize to CSV with a fixed column schema and
floats printed at 17 significant digits, so re-running a record's inputs
reproduces its energy columns bit for bit.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .energy import (DensityField, SpeciesSystem, energy_total,
                     single_species_energy, lambda1)
from .geometry import (DomainMask, SPACE_DIM, build_disc, build_rectangle,
                       build_wedge)
from .model import ScaledFamily, coupling_quartic, cutoff_phi, identical_family, logistic
from .solve import (MinimizeResult, SolverConfig, kappa_continuation,
                    merged_system, minimize_multistart, segregation_projection)

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"

CSV_COLUMNS = [
    "experiment", "domain", "h", "k", "lam", "kappa", "eps", "seed", "start",
    "iters", "converged", "dirichlet", "potential", "interaction", "total",
    "alive", "overlap", "wall_time", "verdict",
]

MERGE_SLACK = 1e-12


def fmt(x) -> str:
    """Canonical scalar formatting: floats at 17 significant digits."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass
class RunRecord:
    experiment: str
    domain: str
    h: float
    k: int
    lam: float
    kappa: float
    eps: tuple
    seed: int
    start: str
    iters: int
    converged: bool
    dirichlet: tuple
    potential: tuple
    interaction: float
    total: float
    alive: tuple
    overlap: float
    wall_time: float
    verdict: str = ""

    def coordinate_key(self) -> str:
        eps = ";".join(fmt(float(e)) for e in self.eps)
        return "|".join([self.experiment, self.domain, fmt(float(self.h)),
                         str(self.k), fmt(float(self.lam)), fmt(float(self.kappa)),
                         eps, str(self.seed)])

    def to_row(self) -> list:
        return [
            self.experiment, self.domain, fmt(float(self.h)), str(self.k),
            fmt(float(self.lam)), fmt(float(self.kappa)),
            ";".join(fmt(float(e)) for e in self.eps), str(self.seed),
            self.start, str(self.iters), fmt(bool(self.converged)),
            ";".join(fmt(float(v)) for v in self.dirichlet),
            ";".join(fmt(float(v)) for v in self.potential),
            fmt(float(self.interaction)), fmt(float(self.total)),
            ";".join(fmt(bool(a)) for a in self.alive),
            fmt(float(self.overlap)), fmt(float(self.wall_time)), self.verdict,
        ]


@dataclass
class LabVerdict:
    experiment: str
    status: str
    details: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == PASS


def domain_label(mask: DomainMask) -> str:
    p = mask.params
    if mask.kind == "rectangle":
        return f"rectangle({p['width']:g}x{p['height']:g})"
    if mask.kind == "disc":
        return f"disc(r={p['radius']:g})"
    if mask.kind == "wedge":
        return f"wedge(m={p['m']:g})"
    return "custom"


def build_domain(spec: dict) -> DomainMask:
    """Construct a mask from a plain configuration dict."""
    kind = spec["kind"]
    h = float(spec["h"])
    if kind == "rectangle":
        return build_rectangle(float(spec.get("width", 1.0)),
                               float(spec.get("height", 1.0)), h)
    if kind == "disc":
        return build_disc(float(spec.get("radius", 1.0)), h)
    if kind == "wedge":
        return build_wedge(float(spec.get("m", 2.0)), h)
    raise ValueError(f"unknown domain kind {kind!r}")


def record_from_result(experiment: str, mask: DomainMask, res: MinimizeResult,
                       seed: int, wall_time: float, eps=(), verdict="") -> RunRecord:
    rep = res.report
    return RunRecord(
        experiment=experiment, domain=domain_label(mask), h=mask.h,
        k=res.system.k, lam=res.system.lam, kappa=res.system.kappa,
        eps=tuple(eps), seed=seed, start=res.start_label, iters=res.iters,
        converged=res.converged, dirichlet=tuple(rep.dirichlet),
        potential=tuple(rep.potential), interaction=rep.interaction,
        total=rep.total, alive=tuple(res.alive), overlap=rep.interaction,
        wall_time=wall_time, verdict=verdict,
    )


def write_records_csv(records, path) -> None:
    """Atomically (re)write a record CSV with the documented schema."""
    path = str(path)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(rec.to_row()) + "\n")
    os.replace(tmp, path)


def append_manifest(record: RunRecord, path) -> None:
    with open(str(path), "a") as fh:
        fh.write(record.coordinate_key() + f"|seed={record.seed}\n")


def append_new_manifest_keys(records, path) -> None:
    """Append the records whose coordinate key the manifest does not hold yet."""
    done = read_manifest_keys(path)
    for rec in records:
        if rec.coordinate_key() not in done:
            append_manifest(rec, path)
            done.add(rec.coordinate_key())


def read_manifest_keys(path) -> set:
    keys = set()
    if os.path.exists(str(path)):
        with open(str(path)) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    keys.add(line.rsplit("|seed=", 1)[0])
    return keys


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def merge_test(res: MinimizeResult) -> dict:
    """Energy comparison of a state against its merged single-species copy.

    Only meaningful for identical growth laws on segregated states, where
    pooling every density into species 1 can never raise the energy.
    """
    before = res.report.total
    after = energy_total(merged_system(res.system)).total
    return {"before": before, "after": after,
            "ok": bool(after <= before + MERGE_SLACK * max(1.0, abs(before)))}


def verify_extinction_identical(mask: DomainMask, k: int, lam: float,
                                cfg: SolverConfig | None = None,
                                out=None) -> LabVerdict:
    """Undifferentiated laws force extinction in best-found partitions.

    Runs the partition solver from every initializer.  PASS requires that
    every output attaining the best energy (within a small tie tolerance)
    has at most one live component and that merging never raises the
    energy on any output.
    """
    cfg = cfg or SolverConfig()
    lam1 = lambda1(mask)
    if lam <= lam1:
        raise ValueError(f"need lam > lambda1 = {lam1:.6g}")
    fam = identical_family(logistic(), k)

    t0 = time.time()
    best, results = minimize_multistart(mask, fam, lam, cfg=cfg, partition=True)
    wall = time.time() - t0

    tie_tol = 1e-6 * max(1.0, abs(best.energy))
    merge_ok = True
    best_single = True
    records = []
    for res in results:
        mt = merge_test(res)
        merge_ok &= mt["ok"]
        is_best = res.energy <= best.energy + tie_tol
        if is_best and res.alive_count > 1:
            best_single = False
        records.append(record_from_result(
            "extinction", mask, res, cfg.seed, wall / len(results),
            verdict="best" if is_best else ""))

    status = PASS if (best_single and merge_ok) else FAIL
    verdict = LabVerdict("extinction", status, details={
        "lam": lam, "k": k, "best_energy": best.energy,
        "best_alive_count": best.alive_count, "merge_ok": merge_ok,
        "best_single": best_single,
    }, records=records)
    _maybe_write(verdict, out)
    return verdict


def verify_limiti_asymptotics(mask: DomainMask, lam_list, cfg: SolverConfig | None = None,
                              out=None) -> LabVerdict:
    """Large-growth limit of the single-species minimum.

    Checks that lam^-1 * (best-found min J) stays above -alpha*|Omega|
    (1% slack), decreases monotonically along the list, and lands within
    10% of -alpha*|Omega| at the largest rate.
    """
    cfg = cfg or SolverConfig()
    lam_list = [float(x) for x in lam_list]
    if any(b <= a for a, b in zip(lam_list, lam_list[1:])):
        raise ValueError("lambda list must be increasing")
    lam1 = lambda1(mask)
    if lam_list[0] <= lam1:
        raise ValueError(f"need every lam > lambda1 = {lam1:.6g}")

    base = logistic()
    fam = ScaledFamily(base=base, k=1, eps=())
    target = -base.alpha * mask.measure
    values = []
    records = []
    for lam in lam_list:
        t0 = time.time()
        best, _ = minimize_multistart(mask, fam, lam, cfg=cfg)
        values.append(best.energy / lam)
        records.append(record_from_result("limiti", mask, best, cfg.seed,
                                          time.time() - t0))

    lower_ok = all(v >= target * 1.01 for v in values)
    mono_ok = all(b < a for a, b in zip(values, values[1:]))
    final_ok = abs(values[-1] - target) <= 0.10 * abs(target)
    status = PASS if (lower_ok and mono_ok and final_ok) else FAIL
    verdict = LabVerdict("limiti", status, details={
        "lam_list": lam_list, "values": values, "target": target,
        "lower_ok": lower_ok, "monotone_ok": mono_ok, "final_ok": final_ok,
        "final_rel_gap": abs(values[-1] - target) / abs(target),
    }, records=records)
    _maybe_write(verdict, out)
    return verdict


def estimate_lambda_zero(mask: DomainMask, k: int, cfg: SolverConfig | None = None,
                         factor: float = 1.3, max_steps: int = 25) -> dict:
    """Empirical growth threshold: smallest scanned rate at which the

    single-species minimum dips below -alpha*|Omega|*(1 - 1/(2k)),
    scanning a geometric grid from just above the principal eigenvalue.
    """
    cfg = cfg or SolverConfig()
    base = logistic()
    fam = ScaledFamily(base=base, k=1, eps=())
    lam1 = lambda1(mask)
    threshold = -base.alpha * mask.measure * (1.0 - 1.0 / (2 * k))
    lam = 1.05 * lam1
    table = []
    found = None
    for _ in range(max_steps):
        best, _ = minimize_multistart(mask, fam, lam, cfg=cfg)
        val = best.energy / lam
        table.append((lam, val))
        if val < threshold:
            found = lam
            break
        lam *= factor
    return {"lambda0": found, "lambda1": lam1, "threshold": threshold,
            "scan": table}


def wedge_bound_gamma(m: float, lam: float, gmax: float) -> float:
    """Barrier coefficient gamma = lam * gmax / (2 (m^2 (N-1) - 1)), N = 2."""
    denom = 2.0 * (m * m * (SPACE_DIM - 1) - 1.0)
    if denom <= 0:
        raise ValueError("wedge aperture must satisfy m > 1")
    return lam * gmax / denom


def check_wedge_bound(field: DensityField, m: float, lam: float,
                      gmax: float = 0.25) -> dict:
    """Pointwise corner barrier u <= gamma (x^2 - m^2 y^2) + 10 h gamma."""
    gam = wedge_bound_gamma(m, lam, gmax)
    mask = field.mask
    bound = gam * (mask.xs ** 2 - m * m * mask.ys ** 2) + 10.0 * mask.h * gam
    excess = field.values - bound
    return {"gamma": gam, "max_excess": float(excess.max()),
            "ok": bool(np.all(excess <= 0))}


def verify_wedge_bound(m: float, lam: float, h: float,
                       cfg: SolverConfig | None = None,
                       minimizer: MinimizeResult | None = None,
                       out=None) -> LabVerdict:
    """Minimize the single-species energy on a wedge and test the corner

    barrier at every interior node."""
    cfg = cfg or SolverConfig()
    base = logistic()
    fam = ScaledFamily(base=base, k=1, eps=())
    t0 = time.time()
    if minimizer is None:
        mask = build_wedge(m, h)
        minimizer, _ = minimize_multistart(mask, fam, lam, cfg=cfg)
    mask = minimizer.system.mask
    chk = check_wedge_bound(minimizer.system.fields[0], m, lam, base.gmax)
    box_ok = bool(np.all(minimizer.system.fields[0].values >= 0)
                  and np.all(minimizer.system.fields[0].values <= base.beta))
    status = PASS if (chk["ok"] and box_ok) else FAIL
    rec = record_from_result("wedge-bound", mask, minimizer, cfg.seed,
                             time.time() - t0, verdict=status)
    verdict = LabVerdict("wedge-bound", status, details={
        "m": m, "lam": lam, "h": mask.h, "gamma": chk["gamma"],
        "max_excess": chk["max_excess"], "box_ok": box_ok,
        "energy": minimizer.energy,
    }, records=[rec])
    _maybe_write(verdict, out)
    return verdict


def cutoff_competitor(field: DensityField, delta: float) -> DensityField:
    """First species with its values ramped down near the wedge vertex:

    u_delta(x) = phi(x1/delta) * u(x) with the C^2 cutoff phi."""
    vals = field.values * cutoff_phi(field.mask.xs / delta)
    return DensityField(field.mask, vals)


def verify_cutoff_scaling(m: float, lam: float, h: float, deltas,
                          cfg: SolverConfig | None = None,
                          minimizer: MinimizeResult | None = None,
                          out=None) -> LabVerdict:
    """Energy cost of clearing the vertex scales like delta^(N+2).

    Builds cutoff competitors from the computed wedge minimizer, fits the
    log-log slope of the energy increase against delta, and passes when
    the slope is at least N+1 = 3 (one below the reference exponent 4, a
    one-sided check since the bound is an upper estimate).
    """
    cfg = cfg or SolverConfig()
    deltas = sorted(float(d) for d in deltas)
    if len(deltas) < 4:
        raise ValueError("need at least 4 cutoff widths")
    if deltas[0] < 4 * h:
        raise ValueError("cutoff widths must be at least 4h")
    base = logistic()
    fam = ScaledFamily(base=base, k=1, eps=())
    t0 = time.time()
    if minimizer is None:
        mask = build_wedge(m, h)
        minimizer, _ = minimize_multistart(mask, fam, lam, cfg=cfg)
    mask = minimizer.system.mask
    u1 = minimizer.system.fields[0]
    J0 = single_species_energy(u1, 1, fam, lam)

    gaps = []
    nonpositive = []
    for d in deltas:
        Jd = single_species_energy(cutoff_competitor(u1, d), 1, fam, lam)
        gap = Jd - J0
        if gap > 0:
            gaps.append((d, gap))
        else:
            nonpositive.append((d, gap))

    details = {"m": m, "lam": lam, "h": mask.h, "J0": J0,
               "gaps": gaps, "nonpositive": nonpositive,
               "reference_exponent": SPACE_DIM + 2}
    if len(gaps) >= 2:
        ds = np.log([d for d, _ in gaps])
        gs = np.log([g for _, g in gaps])
        slope = float(np.polyfit(ds, gs, 1)[0])
        details["slope"] = slope
        status = PASS if slope >= SPACE_DIM + 1 else FAIL
    else:
        details["slope"] = None
        status = INCONCLUSIVE
    rec = record_from_result("cutoff", mask, minimizer, cfg.seed,
                             time.time() - t0, verdict=status)
    verdict = LabVerdict("cutoff", status, details=details, records=[rec])
    _maybe_write(verdict, out)
    return verdict


def scan_epsilon_threshold(mask: DomainMask, k: int, lam: float, kappa: float,
                           eps_grid, cfg: SolverConfig | None = None,
                           out=None) -> LabVerdict:
    """Sweep the density scale and locate the coexistence threshold.

    Runs the multistart free minimizer at each uniform scale eps and
    records the live-species count of the best-found state.  Returns the
    largest scanned eps with full coexistence and compares it against the
    sufficient bound eps* = sqrt(lam / (6 k^2 kappa)); the bound is
    one-sided, so PASS means threshold >= eps*.
    """
    cfg = cfg or SolverConfig()
    eps_grid = sorted(float(e) for e in eps_grid)
    if not eps_grid:
        raise ValueError("empty eps grid")
    base = logistic()
    coupling = coupling_quartic(k)
    eps_star = float(np.sqrt(lam / (6.0 * k * k * kappa))) if kappa > 0 else None

    records = []
    coexisting = []
    j1_values = []
    for eps in eps_grid:
        fam = ScaledFamily(base=base, k=k, eps=(eps,) * (k - 1))
        t0 = time.time()
        best, _ = minimize_multistart(mask, fam, lam, coupling=coupling,
                                      kappa=kappa, cfg=cfg)
        full = best.alive_count == k
        if full:
            coexisting.append(eps)
        j1_values.append(single_species_energy(best.system.fields[0], 1,
                                               fam, lam))
        rec = record_from_result("eps-threshold", mask, best, cfg.seed,
                                 time.time() - t0, eps=(eps,) * (k - 1),
                                 verdict="coexist" if full else "extinct")
        records.append(rec)

    threshold = max(coexisting) if coexisting else None
    if threshold is None:
        status = FAIL
    elif eps_star is None:
        status = PASS
    else:
        status = PASS if threshold >= eps_star else FAIL
    verdict = LabVerdict("eps-threshold", status, details={
        "lam": lam, "kappa": kappa, "k": k, "eps_grid": eps_grid,
        "coexisting": coexisting, "threshold": threshold, "eps_star": eps_star,
        "degenerate": threshold is None, "j1_values": j1_values,
    }, records=records)
    _maybe_write(verdict, out)
    return verdict


def verify_system2(mask: DomainMask, lam: float, eps2: float, kappa_schedule,
                   cfg: SolverConfig | None = None, out=None) -> LabVerdict:
    """Two-species continuation toward the segregated limit.

    PASS requires: both species alive at every competition rate; the
    overlap integral drops by at least three orders of magnitude across
    the schedule; the minimum estimates are non-decreasing and stay below
    the partition minimum (plus a 0.1% solver-slack allowance); and the
    segregation projection of the final state moves its energy by less
    than 1%.
    """
    cfg = cfg or SolverConfig()
    schedule = [float(x) for x in kappa_schedule]
    base = logistic()
    fam = ScaledFamily(base=base, k=2, eps=(eps2,))
    coupling = coupling_quartic(2)

    t0 = time.time()
    best0, _ = minimize_multistart(mask, fam, lam, coupling=coupling,
                                   kappa=schedule[0], cfg=cfg)
    results = kappa_continuation(best0.system, schedule, cfg)
    part_best, _ = minimize_multistart(mask, fam, lam, coupling=coupling,
                                       kappa=0.0, cfg=cfg, partition=True)
    wall = time.time() - t0

    c = part_best.energy
    lam_estimates = [r.energy for r in results]
    overlaps = [r.report.interaction for r in results]

    records = [record_from_result("system2", mask, r, cfg.seed,
                                  wall / (len(results) + 2), eps=(eps2,))
               for r in results]
    records.append(record_from_result("system2", mask, part_best, cfg.seed,
                                      wall / (len(results) + 2), eps=(eps2,),
                                      verdict="partition"))

    if not all(r.converged for r in results):
        failing = [s for s, r in zip(schedule, results) if not r.converged]
        verdict = LabVerdict("system2", INCONCLUSIVE, details={
            "failing_kappas": failing, "schedule": schedule,
        }, records=records)
        _maybe_write(verdict, out)
        return verdict

    alive_ok = all(r.alive_count == 2 for r in results)
    overlap_ok = overlaps[-1] <= 1e-3 * overlaps[0]
    mono_slack = 1e-8 * max(1.0, max(abs(v) for v in lam_estimates))
    mono_ok = all(b >= a - mono_slack for a, b in
                  zip(lam_estimates, lam_estimates[1:]))
    below_c = all(v <= c + 1e-3 * max(1.0, abs(c)) for v in lam_estimates)

    U = results[-1].system.stacked()
    seg = results[-1].system.replace_values(segregation_projection(U))
    e_seg = energy_total(seg).total
    gap = abs(e_seg - lam_estimates[-1])
    gap_ok = gap <= 0.01 * abs(lam_estimates[-1])

    status = PASS if (alive_ok and overlap_ok and mono_ok and below_c and gap_ok) else FAIL
    verdict = LabVerdict("system2", status, details={
        "lam": lam, "eps2": eps2, "schedule": schedule,
        "lam_estimates": lam_estimates, "overlaps": overlaps,
        "partition_minimum": c, "alive_ok": alive_ok,
        "overlap_ok": overlap_ok, "overlap_drop": overlaps[0] / max(overlaps[-1], 1e-300),
        "monotone_ok": mono_ok, "below_partition_ok": below_c,
        "projection_gap": gap, "projection_gap_ok": gap_ok,
    }, records=records)
    _maybe_write(verdict, out)
    return verdict


def verify_eigenvalue(mask: DomainMask, reference: float, rel_tol: float,
                      out=None) -> LabVerdict:
    """Principal Dirichlet eigenvalue against an analytic reference."""
    t0 = time.time()
    lam = lambda1(mask)
    rel = abs(lam - reference) / abs(reference)
    status = PASS if rel <= rel_tol else FAIL
    verdict = LabVerdict("eig", status, details={
        "lambda1": lam, "reference": reference, "rel_err": rel,
        "rel_tol": rel_tol, "wall_time": time.time() - t0,
    })
    _maybe_write(verdict, out)
    return verdict


def _maybe_write(verdict: LabVerdict, out) -> None:
    if out is None:
        return
    os.makedirs(str(out), exist_ok=True)
    if verdict.records:
        write_records_csv(verdict.records,
                          os.path.join(str(out), f"{verdict.experiment}.csv"))
        append_new_manifest_keys(verdict.records,
                                 os.path.join(str(out), "manifest.txt"))
    else:
        import json
        path = os.path.join(str(out), f"{verdict.experiment}.json")
        payload = {"experiment": verdict.experiment, "status": verdict.status,
                   "details": {k: v for k, v in verdict.details.items()
                               if isinstance(v, (int, float, str, bool))}}
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=1)
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepSpec:
    domain: dict
    k: int
    lam_grid: list
    kappa_grid: list
    eps_grid: list
    solver: SolverConfig
    outdir: str

    def __post_init__(self):
        if not (self.lam_grid and self.kappa_grid and self.eps_grid):
            raise ValueError("sweep grids must be non-empty")

    def coordinates(self):
        for lam, kappa, eps in product(self.lam_grid, self.kappa_grid,
                                       self.eps_grid):
            eps_t = tuple(eps) if isinstance(eps, (list, tuple)) \
                else (float(eps),) * (self.k - 1)
            yield float(lam), float(kappa), eps_t


def run_sweep_point(domain_spec: dict, k: int, lam: float, kappa: float,
                    eps: tuple, cfg: SolverConfig) -> RunRecord:
    """One sweep coordinate: multistart free minimization, recorded."""
    mask = build_domain(domain_spec)
    base = logistic()
    if k == 1:
        fam = ScaledFamily(base=base, k=1, eps=())
        coupling = None
    else:
        fam = ScaledFamily(base=base, k=k, eps=eps)
        coupling = coupling_quartic(k)
    t0 = time.time()
    best, _ = minimize_multistart(mask, fam, lam, coupling=coupling,
                                  kappa=kappa, cfg=cfg)
    full = best.alive_count == k
    return record_from_result("sweep", mask, best, cfg.seed, time.time() - t0,
                              eps=eps, verdict="coexist" if full else "extinct")


def run_sweep(spec: SweepSpec, jobs: int = 1, log=print) -> dict:
    """Execute a sweep grid with resume support and bounded parallelism.

    Coordinates already present in the output manifest are skipped.  The
    results CSV is atomically rewritten after every completed record, so
    an interrupted sweep never leaves a partial row.
    """
    os.makedirs(spec.outdir, exist_ok=True)
    results_path = os.path.join(spec.outdir, "results.csv")
    manifest_path = os.path.join(spec.outdir, "manifest.txt")
    done_keys = read_manifest_keys(manifest_path)
    existing = read_records_csv(results_path) if os.path.exists(results_path) else []
    records = {rec.coordinate_key(): rec for rec in existing}

    label = domain_label(build_domain(spec.domain))
    todo = []
    for lam, kappa, eps in spec.coordinates():
        probe = RunRecord("sweep", label, spec.domain["h"], spec.k, lam,
                          kappa, eps, spec.solver.seed, "", 0, False, (), (),
                          0.0, 0.0, (), 0.0, 0.0)
        if probe.coordinate_key() in done_keys:
            continue
        todo.append((lam, kappa, eps))

    def finish(rec: RunRecord):
        records[rec.coordinate_key()] = rec
        ordered = [records[k] for k in sorted(records)]
        write_records_csv(ordered, results_path)
        append_manifest(rec, manifest_path)
        log(f"sweep point lam={rec.lam:g} kappa={rec.kappa:g} "
            f"eps={rec.eps} -> {rec.verdict}")

    failures = 0
    if jobs <= 1 or len(todo) <= 1:
        for lam, kappa, eps in todo:
            try:
                finish(run_sweep_point(spec.domain, spec.k, lam, kappa, eps,
                                       spec.solver))
            except Exception as exc:
                failures += 1
                log(f"sweep point lam={lam:g} kappa={kappa:g} eps={eps} "
                    f"failed: {exc}")
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [(lam, kappa, eps,
                     pool.submit(run_sweep_point, spec.domain, spec.k,
                                 lam, kappa, eps, spec.solver))
                    for lam, kappa, eps in todo]
            for lam, kappa, eps, fut in futs:
                try:
                    finish(fut.result())
                except Exception as exc:
                    failures += 1
                    log(f"sweep point lam={lam:g} kappa={kappa:g} eps={eps} "
                        f"failed: {exc}")

    return {"completed": len(todo) - failures, "skipped": len(done_keys),
            "failed": failures, "total": len(records),
            "results_csv": results_path}


def read_records_csv(path) -> list:
    """Read back a record CSV written by write_records_csv."""
    out = []
    with open(str(path)) as fh:
        header = fh.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise ValueError("unexpected record CSV schema")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            vals = line.split(",")
            row = dict(zip(CSV_COLUMNS, vals))
            out.append(RunRecord(
                experiment=row["experiment"], domain=row["domain"],
                h=float(row["h"]), k=int(row["k"]), lam=float(row["lam"]),
                kappa=float(row["kappa"]),
                eps=tuple(float(x) for x in row["eps"].split(";") if x),
                seed=int(row["seed"]), start=row["start"],
                iters=int(row["iters"]), converged=row["converged"] == "1",
                dirichlet=tuple(float(x) for x in row["dirichlet"].split(";") if x),
                potential=tuple(float(x) for x in row["potential"].split(";") if x),
                interaction=float(row["interaction"]), total=float(row["total"]),
                alive=tuple(x == "1" for x in row["alive"].split(";") if x),
                overlap=float(row["overlap"]), wall_time=float(row["wall_time"]),
                verdict=row["verdict"],
            ))
    return out
