"""Verification experiments, parameter sweeps, and persistent run records.

Each experiment drives the solver over a controlled configuration and
reduces the outcome to a PASS / FAIL / INCONCLUSIVE verdict plus a list
of RunRecords; experiments write no files.  ``write_run`` writes a run
directory (records CSV and JSON files), and ``write_verdict``
persists a verdict through it.  RunRecord's fields are the CSV columns,
with floats printed at 17 significant digits, so re-running a record's
inputs reproduces its energy columns bit for bit; ``wall_time`` is printed
at 7, in a cell of fixed width.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import chain, product

import numpy as np

from .energy import (DensityField, SpeciesSystem, _lambda1_run, energy_total,
                     single_species_energy, lambda1)
from .geometry import (DomainMask, SPACE_DIM, build_disc, build_rectangle,
                       build_wedge)
from .model import ScaledFamily, coupling_quartic, cutoff_phi, identical_family, logistic
from .solve import (MinimizeResult, SolverConfig, batch_runs,
                    best_start, default_initializers, kappa_continuation,
                    merged_system, minimize_multistart, segregation_projection,
                    solve_starts)

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"

MERGE_SLACK = 1e-12

# The stock law, and the one-species family of every k = 1 experiment.
_LOGISTIC = logistic()
_SINGLE = ScaledFamily(base=_LOGISTIC, k=1, eps=())


def fmt(x) -> str:
    """Canonical scalar formatting: floats at 17 significant digits."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass
class RunRecord:
    """One CSV row: the fields, in order, are the columns, and the first
    eight (experiment .. seed) are the coordinate key."""

    experiment: str
    domain: str
    h: float
    k: int
    lam: float
    kappa: float
    eps: tuple[float, ...]
    seed: int
    start: str
    iters: int
    converged: bool
    dirichlet: tuple[float, ...]
    potential: tuple[float, ...]
    interaction: float
    total: float
    alive: tuple[bool, ...]
    overlap: float
    wall_time: float
    verdict: str = ""

    def __post_init__(self):
        # The wall time is kept as its CSV cell writes it, at a fixed width
        # (7 significant digits), so a row's length does not depend on the
        # clock and a record reads back equal to itself.
        self.wall_time = float(_wall_cell(self.wall_time))

    def coordinate_key(self) -> str:
        return _key(getattr(self, name) for name in CSV_COLUMNS[:_KEY_CELLS])

    def to_row(self) -> list:
        return [enc(getattr(self, name)) for name, enc, _ in _CODECS]


_SCALAR_CODECS = {"str": (str, str), "int": (str, int),
                  "float": (lambda v: fmt(float(v)), float),
                  "bool": (lambda v: fmt(bool(v)), lambda s: s == "1")}


def _codec(kind: str) -> tuple:
    """(encode, decode) of one field type; a tuple is its elements' cells
    joined by ';'."""
    if not kind.startswith("tuple["):
        return _SCALAR_CODECS[kind]
    enc, dec = _SCALAR_CODECS[kind[len("tuple["):].split(",")[0]]
    return (lambda v: ";".join(enc(x) for x in v),
            lambda s: tuple(dec(x) for x in s.split(";") if x))


def _wall_cell(x) -> str:
    return f"{float(x):.6e}"


_CODECS = [(f.name, *((_wall_cell, float) if f.name == "wall_time"
                      else _codec(f.type))) for f in fields(RunRecord)]
CSV_COLUMNS = [name for name, _, _ in _CODECS]
_KEY_CELLS = 8


def _key(values) -> str:
    """Coordinate key from a record's leading values: their cells joined by '|'."""
    return "|".join(enc(v) for (_, enc, _), v in zip(_CODECS[:_KEY_CELLS], values))


@dataclass
class LabVerdict:
    experiment: str
    status: str
    details: dict = field(default_factory=dict)
    records: list = field(default_factory=list)


# Domain kind -> (builder(h, *params), parameter defaults in builder order,
# label).  Each builder calls the geometry function through this module's
# name for it, so rebinding that name (as bench/tracing.py does) reaches it.
DOMAIN_KINDS = {
    "rectangle": (lambda h, w, ht: build_rectangle(w, ht, h),
                  {"width": 1.0, "height": 1.0}, "rectangle({width:g}x{height:g})"),
    "disc": (lambda h, r: build_disc(r, h), {"radius": 1.0}, "disc(r={radius:g})"),
    "wedge": (lambda h, m: build_wedge(m, h), {"m": 2.0}, "wedge(m={m:g})"),
}


def domain_label(mask: DomainMask) -> str:
    if mask.kind not in DOMAIN_KINDS:
        return "custom"
    return DOMAIN_KINDS[mask.kind][2].format(**mask.params)


def build_domain(spec: dict) -> DomainMask:
    """Construct a mask from a plain configuration dict."""
    if spec["kind"] not in DOMAIN_KINDS:
        raise ValueError(f"unknown domain kind {spec['kind']!r}")
    build, defaults, _ = DOMAIN_KINDS[spec["kind"]]
    return build(float(spec["h"]), *(float(spec.get(key, d))
                                     for key, d in defaults.items()))


def record_from_result(experiment: str, res: MinimizeResult, seed: int,
                       wall_time: float, eps=(), verdict="") -> RunRecord:
    rep, mask = res.report, res.system.mask
    return RunRecord(
        experiment=experiment, domain=domain_label(mask), h=mask.h,
        k=res.system.k, lam=res.system.lam, kappa=res.system.kappa,
        eps=tuple(eps), seed=seed, start=res.start_label, iters=res.iters,
        converged=res.converged, dirichlet=tuple(rep.dirichlet),
        potential=tuple(rep.potential), interaction=rep.interaction,
        total=rep.total, alive=tuple(res.alive), overlap=rep.interaction,
        wall_time=wall_time, verdict=verdict,
    )


def _write_atomic(path, chunks) -> None:
    """Replace the file at ``path`` by the text ``chunks`` atomically (write,
    then rename); a generator of chunks is written as it is produced."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(chunks)
    os.replace(tmp, str(path))


def write_records_csv(records, path) -> None:
    """Atomically (re)write a record CSV with the documented schema."""
    rows = chain([CSV_COLUMNS], (rec.to_row() for rec in records))
    _write_atomic(path, (",".join(row) + "\n" for row in rows))


def read_records_csv(path) -> list:
    """Read back a record CSV written by write_records_csv."""
    with open(str(path)) as fh:
        if fh.readline().strip().split(",") != CSV_COLUMNS:
            raise ValueError("unexpected record CSV schema")
        return [RunRecord(*(dec(cell) for (_, _, dec), cell in
                            zip(_CODECS, line.rstrip("\n").split(","), strict=True)))
                for line in fh if line.rstrip("\n")]


def write_run(out, records=(), csv_name="results.csv", texts=None) -> None:
    """Write the run directory ``out``: each ``texts`` entry (file name ->
    text) and, with records, ``csv_name`` holding them, each replaced
    atomically."""
    out = str(out)
    os.makedirs(out, exist_ok=True)
    for name, text in (texts or {}).items():
        _write_atomic(os.path.join(out, name), [text])
    if records:
        write_records_csv(records, os.path.join(out, csv_name))


def write_verdict(verdict: LabVerdict, out) -> None:
    """Persist a verdict into ``out``: ``<experiment>.json`` (status and every
    detail) and, for a verdict with records, ``<experiment>.csv``."""
    payload = {"experiment": verdict.experiment, "status": verdict.status,
               "details": verdict.details}
    write_run(out, verdict.records, f"{verdict.experiment}.csv",
              {f"{verdict.experiment}.json": json.dumps(payload, indent=1)})


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
                                cfg: SolverConfig | None = None) -> LabVerdict:
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
    fam = identical_family(_LOGISTIC, k)

    best, results = minimize_multistart(mask, fam, lam, cfg=cfg, partition=True)

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
            "extinction", res, cfg.seed, res.seconds,
            verdict="best" if is_best else ""))

    status = PASS if (best_single and merge_ok) else FAIL
    return LabVerdict("extinction", status, details={
        "lam": lam, "k": k, "best_energy": best.energy,
        "best_alive_count": best.alive_count, "merge_ok": merge_ok,
        "best_single": best_single,
    }, records=records)


def limit_fit(lams, values) -> tuple:
    """Least-squares fit of values ~ -A + B/sqrt(lam) + C/lam; returns (A, B, C).

    A is the bulk limit, B the Dirichlet boundary layer and C the corners.
    """
    lams = np.asarray(lams, dtype=float)
    X = np.column_stack([np.ones_like(lams), lams ** -0.5, 1.0 / lams])
    coef, *_ = np.linalg.lstsq(X, np.asarray(values, dtype=float), rcond=None)
    return float(-coef[0]), float(coef[1]), float(coef[2])


def verify_limiti_asymptotics(mask: DomainMask, lam_list,
                              cfg: SolverConfig | None = None) -> LabVerdict:
    """Large-growth limit of the single-species minimum.

    Checks that lam^-1 * (best-found min J) stays above -alpha*|Omega|
    (1% slack), decreases monotonically along the list, and lands within
    10% of -alpha*|Omega| at the largest rate.  With three or more rates
    the details also carry ``limit_fit``'s A, B, C and A's relative gap to
    alpha*|Omega|: the boundary layer B/sqrt(lam) keeps the raw value at
    the largest rate well short of the bulk limit, while A extrapolates it.

    The default starts of every rate go to one ``solve_starts`` call; each
    rate's best is picked by ``best_start``, and its record's time is the
    sum of its starts' ``seconds`` (each its share of its batch's time).
    """
    cfg = cfg or SolverConfig()
    lam_list = [float(x) for x in lam_list]
    if not lam_list:
        raise ValueError("empty lambda list")
    if any(b <= a for a, b in zip(lam_list, lam_list[1:])):
        raise ValueError("lambda list must be increasing")
    lam1 = lambda1(mask)
    if lam_list[0] <= lam1:
        raise ValueError(f"need every lam > lambda1 = {lam1:.6g}")

    target = -_LOGISTIC.alpha * mask.measure
    starts = [default_initializers(mask, _SINGLE, lam, cfg=cfg)
              for lam in lam_list]
    results = iter(solve_starts(list(chain.from_iterable(starts)), cfg))
    values, records = [], []
    for lam, rate_starts in zip(lam_list, starts):
        rate = [next(results) for _ in rate_starts]
        best = best_start(rate)
        values.append(best.energy / lam)
        records.append(record_from_result(
            "limiti", best, cfg.seed, sum(r.seconds for r in rate)))

    lower_ok = all(v >= target * 1.01 for v in values)
    mono_ok = all(b < a for a, b in zip(values, values[1:]))
    final_ok = abs(values[-1] - target) <= 0.10 * abs(target)
    status = PASS if (lower_ok and mono_ok and final_ok) else FAIL
    details = {
        "lam_list": lam_list, "values": values, "target": target,
        "lower_ok": lower_ok, "monotone_ok": mono_ok, "final_ok": final_ok,
        "final_rel_gap": abs(values[-1] - target) / abs(target),
    }
    if len(values) >= 3:
        A, B, C = limit_fit(lam_list, values)
        details.update(fit_A=A, fit_B=B, fit_C=C,
                       fit_A_rel_gap=abs(A + target) / abs(target))
    return LabVerdict("limiti", status, details=details, records=records)


def wedge_bound_gamma(m: float, lam: float, gmax: float) -> float:
    """Barrier coefficient gamma = lam * gmax / (2 (m^2 (N-1) - 1)), N = 2."""
    denom = 2.0 * (m * m * (SPACE_DIM - 1) - 1.0)
    if denom <= 0:
        raise ValueError("wedge aperture must satisfy m > 1")
    return lam * gmax / denom


def check_wedge_bound(field: DensityField, m: float, lam: float) -> dict:
    """Pointwise corner barrier u <= gamma (x^2 - m^2 y^2) + 10 h gamma."""
    gam = wedge_bound_gamma(m, lam, _LOGISTIC.gmax)
    mask = field.mask
    bound = gam * (mask.xs ** 2 - m * m * mask.ys ** 2) + 10.0 * mask.h * gam
    excess = field.values - bound
    return {"gamma": gam, "max_excess": float(excess.max()),
            "ok": bool(np.all(excess <= 0))}


def _wedge_minimizer(m: float, lam: float, h: float, cfg: SolverConfig,
                     minimizer: MinimizeResult | None) -> MinimizeResult:
    """The given single-species wedge minimizer, or a multistart one."""
    if minimizer is None:
        minimizer, _ = minimize_multistart(build_wedge(m, h), _SINGLE, lam, cfg=cfg)
    return minimizer


def verify_wedge_bound(m: float, lam: float, h: float,
                       cfg: SolverConfig | None = None,
                       minimizer: MinimizeResult | None = None) -> LabVerdict:
    """Minimize the single-species energy on a wedge and test the corner

    barrier at every interior node."""
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    minimizer = _wedge_minimizer(m, lam, h, cfg, minimizer)
    mask = minimizer.system.mask
    u = minimizer.system.fields[0]
    chk = check_wedge_bound(u, m, lam)
    box_ok = bool(np.all(u.values >= 0) and np.all(u.values <= _LOGISTIC.beta))
    status = PASS if (chk["ok"] and box_ok) else FAIL
    rec = record_from_result("wedge-bound", minimizer, cfg.seed,
                             time.perf_counter() - t0, verdict=status)
    return LabVerdict("wedge-bound", status, details={
        "m": m, "lam": lam, "h": mask.h, "gamma": chk["gamma"],
        "max_excess": chk["max_excess"], "box_ok": box_ok,
        "energy": minimizer.energy,
    }, records=[rec])


def cutoff_competitor(field: DensityField, delta: float) -> DensityField:
    """First species with its values ramped down near the wedge vertex:

    u_delta(x) = phi(x1/delta) * u(x) with the C^2 cutoff phi."""
    vals = field.values * cutoff_phi(field.mask.xs / delta)
    return DensityField(field.mask, vals)


def verify_cutoff_scaling(m: float, lam: float, h: float, deltas,
                          cfg: SolverConfig | None = None,
                          minimizer: MinimizeResult | None = None) -> LabVerdict:
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
    t0 = time.perf_counter()
    minimizer = _wedge_minimizer(m, lam, h, cfg, minimizer)
    mask = minimizer.system.mask
    u1 = minimizer.system.fields[0]
    J0 = single_species_energy(u1, 1, _SINGLE, lam)

    gaps = []
    nonpositive = []
    for d in deltas:
        Jd = single_species_energy(cutoff_competitor(u1, d), 1, _SINGLE, lam)
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
    rec = record_from_result("cutoff", minimizer, cfg.seed,
                             time.perf_counter() - t0, verdict=status)
    return LabVerdict("cutoff", status, details=details, records=[rec])


def scan_epsilon_threshold(mask: DomainMask, k: int, lam: float, kappa: float,
                           eps_grid, cfg: SolverConfig | None = None) -> LabVerdict:
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
    coupling = coupling_quartic(k)
    eps_star = float(np.sqrt(lam / (6.0 * k * k * kappa))) if kappa > 0 else None

    records = []
    coexisting = []
    j1_values = []
    for eps in eps_grid:
        fam = ScaledFamily(base=_LOGISTIC, k=k, eps=(eps,) * (k - 1))
        t0 = time.perf_counter()
        best, _ = minimize_multistart(mask, fam, lam, coupling=coupling,
                                      kappa=kappa, cfg=cfg)
        full = best.alive_count == k
        if full:
            coexisting.append(eps)
        j1_values.append(single_species_energy(best.system.fields[0], 1,
                                               fam, lam))
        rec = record_from_result("eps-threshold", best, cfg.seed,
                                 time.perf_counter() - t0, eps=(eps,) * (k - 1),
                                 verdict="coexist" if full else "extinct")
        records.append(rec)

    threshold = max(coexisting) if coexisting else None
    if threshold is None:
        status = FAIL
    elif eps_star is None:
        status = PASS
    else:
        status = PASS if threshold >= eps_star else FAIL
    return LabVerdict("eps-threshold", status, details={
        "lam": lam, "kappa": kappa, "k": k, "eps_grid": eps_grid,
        "coexisting": coexisting, "threshold": threshold, "eps_star": eps_star,
        "degenerate": threshold is None, "j1_values": j1_values,
    }, records=records)


def verify_system2(mask: DomainMask, lam: float, eps2: float, kappa_schedule,
                   cfg: SolverConfig | None = None) -> LabVerdict:
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
    if not schedule:
        raise ValueError("empty kappa schedule")
    fam = ScaledFamily(base=_LOGISTIC, k=2, eps=(eps2,))
    coupling = coupling_quartic(2)

    best0, _ = minimize_multistart(mask, fam, lam, coupling=coupling,
                                   kappa=schedule[0], cfg=cfg)
    results = kappa_continuation(best0.system, schedule, cfg)
    part_best, _ = minimize_multistart(mask, fam, lam, coupling=coupling,
                                       kappa=0.0, cfg=cfg, partition=True)

    c = part_best.energy
    lam_estimates = [r.energy for r in results]
    overlaps = [r.report.interaction for r in results]

    records = [record_from_result("system2", r, cfg.seed, r.seconds,
                                  eps=(eps2,))
               for r in results]
    records.append(record_from_result("system2", part_best, cfg.seed,
                                      part_best.seconds, eps=(eps2,),
                                      verdict="partition"))

    if not all(r.converged for r in results):
        failing = [s for s, r in zip(schedule, results) if not r.converged]
        return LabVerdict("system2", INCONCLUSIVE, details={
            "failing_kappas": failing, "schedule": schedule,
        }, records=records)

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
    return LabVerdict("system2", status, details={
        "lam": lam, "eps2": eps2, "schedule": schedule,
        "lam_estimates": lam_estimates, "overlaps": overlaps,
        "partition_minimum": c, "alive_ok": alive_ok,
        "overlap_ok": overlap_ok, "overlap_drop": overlaps[0] / max(overlaps[-1], 1e-300),
        "monotone_ok": mono_ok, "below_partition_ok": below_c,
        "projection_gap": gap, "projection_gap_ok": gap_ok,
    }, records=records)


def verify_eigenvalue(mask: DomainMask, reference: float,
                      rel_tol: float) -> LabVerdict:
    """Principal Dirichlet eigenvalue against an analytic reference, with
    the iteration's step count and final relative residual
    |L x - mu x| / mu.  ``reference`` and ``rel_tol`` must be finite and
    > 0."""
    for name, v in (("reference", reference), ("rel_tol", rel_tol)):
        if not 0 < v < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    t0 = time.perf_counter()
    lam = lambda1(mask)
    steps, residual = _lambda1_run(mask)
    rel = abs(lam - reference) / abs(reference)
    return LabVerdict("eig", PASS if rel <= rel_tol else FAIL, details={
        "lambda1": lam, "reference": reference, "rel_err": rel,
        "rel_tol": rel_tol, "steps": steps, "residual": residual,
        "wall_time": time.perf_counter() - t0,
    })


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
    label: str = field(init=False)
    nodes: int = field(init=False)

    def __post_init__(self):
        if not (self.lam_grid and self.kappa_grid and self.eps_grid):
            raise ValueError("sweep grids must be non-empty")
        if not all(np.isfinite(np.array((lam, kappa, *eps), dtype=float)).all()
                   for lam, kappa, eps in self.coordinates()):
            raise ValueError("sweep grid values must be finite")
        if any(lam <= 0 or kappa < 0 for lam, kappa, _ in self.coordinates()):
            raise ValueError("sweep lambdas must be positive and kappas "
                             "nonnegative")
        for eps in self.eps_grid:   # a config error, not a failed point
            ScaledFamily(base=_LOGISTIC, k=self.k, eps=self._eps(eps))
        # A repeated value names one coordinate twice: it would be solved
        # twice in a run and counted as skipped twice on a resume.
        for name, grid in (("lambdas", [float(x) for x in self.lam_grid]),
                           ("kappas", [float(x) for x in self.kappa_grid]),
                           ("epss", [self._eps(x) for x in self.eps_grid])):
            if len(set(grid)) < len(grid):
                raise ValueError(f"sweep {name} repeat a value: {grid}")
        # The domain is built once here for the records' label and the task
        # sizes, so that a domain the lab rejects is a config error before
        # any output exists.
        mask = build_domain(self.domain)
        self.label, self.nodes = domain_label(mask), mask.n_interior

    def _eps(self, eps) -> tuple:
        """An ``eps_grid`` entry as per-species scales: a list or tuple as
        given, a number for every species beyond the first."""
        return tuple(eps) if isinstance(eps, (list, tuple)) \
            else (float(eps),) * (self.k - 1)

    def coordinates(self):
        for lam, kappa, eps in product(self.lam_grid, self.kappa_grid,
                                       self.eps_grid):
            yield float(lam), float(kappa), self._eps(eps)


def _group_values(k: int, restarts: int, kappas, nodes: int) -> int:
    """Stacked values of one (lam, eps) group's solves: its lone-species
    starts once, its other starts once per kappa.  (An upper bound: a
    seeded start that does not fit is dropped.)"""
    starts = k + (k > 1) + 1 + restarts   # single[-i], seeded, uniform, random-*
    lone = starts if k == 1 else k
    return (lone + (starts - lone) * len(kappas)) * k * nodes


def sweep_tasks(groups, sizes, jobs: int) -> list:
    """Cut a sweep's groups, in grid order, into tasks: runs of whole
    groups of at most ``solve.BATCH_VALUES`` stacked values each (a larger
    group runs alone, ``batch_runs``), split further until there are at
    least min(jobs, groups)."""
    tasks = [[groups[i] for i in run] for run in batch_runs(sizes)]
    while len(tasks) < min(jobs, len(groups)):
        i = max(range(len(tasks)), key=lambda t: len(tasks[t]))
        half = len(tasks[i]) // 2
        tasks[i:i + 1] = [tasks[i][:half], tasks[i][half:]]
    return tasks


def run_sweep_task(domain_spec: dict, k: int, groups,
                   cfg: SolverConfig) -> list:
    """A run of (lam, eps) groups of one sweep grid, given as (lam, eps,
    kappas) triples.  Returns, per group, the outcome of each of its kappas
    in order: the record of its multistart free minimization, or the error
    of a solve it used.

    The mask is built once, and each group's default starts once.  A start
    with at most one nonzero species is solved once, uncoupled (kappa = 0):
    the coupling vanishes on it and the absent species stay at 0 along the
    solve, so its minimizer does not depend on kappa, and each kappa
    re-reports it under its own system: the interaction is exactly 0, so
    its report with kappa changed is the one ``energy_total`` would give,
    bit for bit.  The other starts are solved at each kappa.  Every solve
    of every group goes to one ``solve_starts`` call, which batches them
    as a multistart's, and a failed solve fails only the points that use
    it.  Results keep the start order, so ``best_start`` picks a point's
    best as a multistart's.  A point's wall time covers its own solves
    (each its share of its batch's time, ``MinimizeResult.seconds``), its
    own reporting, and the shared work it ran: the group's initializers go
    to its first point, each lone solve to the first point that used it.
    """
    mask = build_domain(domain_spec)
    coupling = coupling_quartic(k) if k > 1 else None
    task_starts, plans = [], []   # the (label, system) of every solve

    def add(system, label) -> int:
        task_starts.append((label, system))
        return len(task_starts) - 1

    for lam, eps, kappas in groups:
        t0 = time.perf_counter()
        fam = ScaledFamily(base=_LOGISTIC, k=k, eps=eps)
        starts = default_initializers(mask, fam, lam, coupling, 0.0, cfg)
        lone = {i: add(sys0, label) for i, (label, sys0) in enumerate(starts)
                if np.count_nonzero(sys0.stacked().any(axis=1)) <= 1}
        points = []   # per kappa: its system and, per start, the solve to use
        for kappa in kappas:
            at_kappa = partial(SpeciesSystem, fam=fam, coupling=coupling,
                               lam=lam, kappa=kappa)
            points.append((at_kappa(starts[0][1].fields), [
                lone[i] if i in lone else add(at_kappa(sys0.fields), label)
                for i, (label, sys0) in enumerate(starts)]))
        plans.append((eps, set(lone.values()), points,
                      time.perf_counter() - t0))

    results = solve_starts(task_starts, cfg)
    out = []
    for eps, lone_solves, points, shared in plans:
        outcomes, charged = [], set()
        for system, solves in points:
            t0 = time.perf_counter()
            wall, shared = shared, 0.0
            failed = [results[j] for j in solves
                      if isinstance(results[j], Exception)]
            if failed:
                outcomes.append(failed[0])
                continue
            found = []
            for j in solves:
                res = results[j]
                if j in lone_solves:   # re-reported under this kappa
                    final = system.replace_values(res.system.stacked())
                    res = replace(res, system=final, report=replace(
                        res.report, kappa=final.kappa))
                found.append(res)
            best = best_start(found)
            own = set(solves) - charged
            charged |= own
            wall += sum(results[j].seconds for j in own)
            outcomes.append(record_from_result(
                "sweep", best, cfg.seed, wall + time.perf_counter() - t0, eps=eps,
                verdict="coexist" if best.alive_count == k else "extinct"))
        out.append(outcomes)
    return out


def run_sweep(spec: SweepSpec, jobs: int = 1, log=print) -> dict:
    """Execute a sweep grid with resume support and bounded parallelism.

    The grid's (lam, eps) groups, each with its kappas still to compute,
    are cut into tasks by ``sweep_tasks``; a task hands its groups' solves
    to one ``solve_starts`` call (``run_sweep_task``), and the pool runs one
    task per worker at a time on min(jobs, tasks) workers.  A coordinate is
    done exactly when the results CSV holds its row.  The lone-species
    solves a group shares are uncoupled whichever kappas it computes, so a
    resumed sweep reproduces a fresh one bit for bit.  A point fails only
    when a solve it used returned an error, so a failing kappa fails alone;
    anything a task raises fails that task's points.  The results CSV is
    atomically rewritten after every task that completed a record, so an
    interrupted sweep never leaves a partial row.
    """
    os.makedirs(spec.outdir, exist_ok=True)
    results_path = os.path.join(spec.outdir, "results.csv")
    existing = read_records_csv(results_path) if os.path.exists(results_path) else []
    records = {rec.coordinate_key(): rec for rec in existing}

    todo = {}   # (lam, eps) -> the group's kappas still to compute
    skipped = 0
    for lam, kappa, eps in spec.coordinates():
        if _key(("sweep", spec.label, spec.domain["h"], spec.k, lam, kappa, eps,
                 spec.solver.seed)) in records:
            skipped += 1
        else:
            todo.setdefault((lam, eps), []).append(kappa)
    groups = [(lam, eps, kappas) for (lam, eps), kappas in todo.items()]
    tasks = sweep_tasks(groups, [
        _group_values(spec.k, spec.solver.restarts, kappas, spec.nodes)
        for _, _, kappas in groups], jobs)

    def outcomes():
        """(task, call returning its outcomes), in grid order."""
        args = (spec.domain, spec.k)
        if jobs <= 1 or len(tasks) <= 1:
            for task in tasks:
                yield task, partial(run_sweep_task, *args, task, spec.solver)
            return
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futs = [pool.submit(run_sweep_task, *args, task, spec.solver)
                    for task in tasks]
            for task, fut in zip(tasks, futs):
                yield task, fut.result

    failures = 0
    for task, result in outcomes():
        try:
            done = result()
        except Exception as exc:   # the task failed: so do all its points
            done = [[exc] * len(kappas) for _, _, kappas in task]
        new = [rec for group in done for rec in group
               if isinstance(rec, RunRecord)]
        for rec in new:
            records[rec.coordinate_key()] = rec
        if new:
            write_run(spec.outdir, [records[key] for key in sorted(records)])
        for (lam, eps, kappas), group in zip(task, done):
            for kappa, rec in zip(kappas, group):
                where = f"sweep point lam={lam:g} kappa={kappa:g} eps={eps}"
                if isinstance(rec, RunRecord):
                    log(f"{where} -> {rec.verdict}")
                else:
                    failures += 1
                    log(f"{where} failed: {rec}")

    return {"completed": sum(map(len, todo.values())) - failures,
            "skipped": skipped, "failed": failures, "total": len(records),
            "results_csv": results_path}
