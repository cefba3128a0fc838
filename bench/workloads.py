"""The four benchmark workloads: inputs from a seed, one timed operation, an oracle.

Each workload builds its inputs in ``setup`` (untimed: the timed call must
not include them, and ``setup_s`` measures them in a fresh interpreter),
runs one verdict-producing unit of work in ``run`` through the public lab
API or the CLI, and reduces the outcome to ``summarize`` entries that are
compared with the seed reference in ``reference.json``.

A summary maps an operation label to ``{"exact": ..., "upper": ...}``:
``exact`` values (statuses, flags, alive patterns, exit codes) must equal
the reference; ``upper`` values (best energies, eigenvalues) may not exceed
it by more than the workload's relative tolerance, and a lower value never
counts as worse.  None of the oracles depends on the solver seed: random
starts only add candidates to a minimum over starts that always includes
the deterministic ones the reference was taken from.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

# One BLAS thread unless the caller sets otherwise: OpenBLAS threads spin
# while they wait, which turns cpu_s into a measure of spinning, and a
# two-job sweep with two threads each oversubscribes two cores.  This runs
# before numpy loads, in the benchmark, its set-up interpreters and
# make_reference.py alike.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import competelab  # noqa: E402  (setup_s times the whole package import)
import competelab.cli as cli  # noqa: E402
from competelab import lab  # noqa: E402
from competelab.solve import SolverConfig  # noqa: E402

# ROADMAP item 3's agreement gate: new energy <= old + 1e-9 |E|.
ENERGY_TOL = 1e-9
# lambda1 stops on a 1e-8 relative change of its Rayleigh quotient.
EIG_TOL = 1e-8
# "path" values (continuation energies) are compared only when the
# "path_anchor" value (the first rate) matches its reference this closely:
# when a random start wins there, the warm starts differ.
PATH_MATCH = 1e-6

SWEEP_JOBS = 2


def _plain(obj):
    """JSON round trip, so tuples and numpy scalars compare like the stored reference."""
    return json.loads(json.dumps(obj))


class LimitiSquare:
    """Criterion 4: large-growth limit of the single-species minimum."""

    name = "limiti-square"
    tol = ENERGY_TOL
    sizes = {"full": {"h": 1 / 64}, "smoke": {"h": 1 / 24}}
    lams = [200.0, 400.0, 800.0]

    def __init__(self, size: str, ref: dict | None = None):
        self.h = self.sizes[size]["h"]

    def setup(self, seed: int, workdir: str):
        mask = lab.build_domain({"kind": "rectangle", "h": self.h,
                                 "width": 1.0, "height": 1.0})
        return mask, SolverConfig(restarts=0, max_iters=60000, seed=seed)

    def run(self, state, serial: bool = False):
        mask, cfg = state
        return lab.verify_limiti_asymptotics(mask, self.lams, cfg)

    def summarize(self, verdict) -> dict:
        d = verdict.details
        return _plain({"limiti": {
            "exact": {"status": verdict.status, "lower_ok": d["lower_ok"],
                      "monotone_ok": d["monotone_ok"], "final_ok": d["final_ok"],
                      "alive": [list(r.alive) for r in verdict.records]},
            "upper": {f"lam={lam:g}": r.total
                      for lam, r in zip(self.lams, verdict.records)},
        }})

    def reference_state(self, workdir: str):
        return self.setup(0, workdir)


class System2Wedge:
    """Criterion 9: two-species continuation toward segregation on a wedge."""

    name = "system2-wedge"
    tol = ENERGY_TOL
    sizes = {"full": {"h": 1 / 32, "kappas": [10.0, 30.0, 100.0, 300.0, 1000.0]},
             "smoke": {"h": 1 / 24, "kappas": [10.0, 30.0, 100.0]}}
    flags = ("alive_ok", "overlap_ok", "monotone_ok", "below_partition_ok",
             "projection_gap_ok")

    def __init__(self, size: str, ref: dict | None = None):
        self.h = self.sizes[size]["h"]
        self.kappas = self.sizes[size]["kappas"]

    def setup(self, seed: int, workdir: str):
        mask = lab.build_domain({"kind": "wedge", "h": self.h, "m": 2.0})
        return mask, SolverConfig(restarts=2, seed=seed)

    def run(self, state, serial: bool = False):
        mask, cfg = state
        return lab.verify_system2(mask, 200.0, 0.6, self.kappas, cfg)

    def summarize(self, verdict) -> dict:
        d = verdict.details
        cont = [r for r in verdict.records if r.verdict != "partition"]
        part = [r for r in verdict.records if r.verdict == "partition"]
        first = f"kappa={self.kappas[0]:g}"
        upper = {first: cont[0].total} if cont else {}
        if part:
            upper["partition"] = part[0].total
        return _plain({"system2": {
            "exact": {"status": verdict.status,
                      **{f: d.get(f) for f in self.flags},
                      "alive": [list(r.alive) for r in cont]},
            "upper": upper,
            "path_anchor": first,
            "path": {f"kappa={kap:g}": r.total
                     for kap, r in zip(self.kappas[1:], cont[1:])},
        }})

    def reference_state(self, workdir: str):
        # Deterministic starts only: every seed's best is at most this.
        mask, cfg = self.setup(0, workdir)
        return mask, cfg.with_(restarts=0)


class SweepDisc:
    """CLI sweep over many small two-species problems, then a resume pass."""

    name = "sweep-disc"
    tol = ENERGY_TOL
    sizes = {"full": {"h": 1 / 12, "lambdas": [60, 100, 140],
                      "kappas": [0, 50, 200, 800], "epss": [0.2, 0.4, 0.6, 0.8]},
             "smoke": {"h": 1 / 8, "lambdas": [60, 100],
                       "kappas": [0, 200], "epss": [0.4]}}

    def __init__(self, size: str, ref: dict | None = None):
        self.size = self.sizes[size]

    def setup(self, seed: int, workdir: str):
        base = tempfile.mkdtemp(dir=workdir, prefix="sweep-")
        s = self.size
        config = {"domain": {"kind": "disc", "radius": 1.0, "h": s["h"]},
                  "k": 2, "lambdas": s["lambdas"], "kappas": s["kappas"],
                  "epss": s["epss"], "solver": {"restarts": 0}}
        path = os.path.join(base, "sweep.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return path, os.path.join(base, "out"), seed

    def run(self, state, serial: bool = False):
        """Fresh pass and resume pass.  ``serial`` runs one job: worker
        processes return no spans to a tracer."""
        path, out, seed = state
        argv = ["sweep", "--config", path, "--out", out, "--seed", str(seed),
                "--jobs", "1" if serial else str(SWEEP_JOBS), "--quiet"]
        t0 = time.perf_counter()
        fresh = cli.main(argv)
        fresh_s = time.perf_counter() - t0
        before = _read_bytes(out)
        resume = cli.main(argv)
        return {"fresh": fresh, "resume": resume, "out": out, "fresh_s": fresh_s,
                "unchanged": _read_bytes(out) == before}

    def summarize(self, result) -> dict:
        csv = os.path.join(result["out"], "results.csv")
        records = lab.read_records_csv(csv) if os.path.exists(csv) else []
        ops = {}
        for rec in records:
            ops[f"lam={rec.lam:g} kappa={rec.kappa:g} eps={rec.eps[0]:g}"] = {
                "exact": {"exit": result["fresh"], "verdict": rec.verdict,
                          "alive": list(rec.alive)},
                "upper": {"total": rec.total},
            }
        ops["resume"] = {"exact": {"exit": result["resume"],
                                   "unchanged": result["unchanged"]}}
        return _plain(ops)

    def pool_busy_frac(self, result) -> float:
        """Summed per-point solve time over jobs x fresh-pass wall time."""
        records = lab.read_records_csv(os.path.join(result["out"], "results.csv"))
        return sum(r.wall_time for r in records) / (SWEEP_JOBS * result["fresh_s"])

    def reference_state(self, workdir: str):
        return self.setup(0, workdir)


class EigFine:
    """``verify eig`` on three domains: the only workload that times lambda1."""

    name = "eig-fine"
    tol = EIG_TOL
    sizes = {"full": {"square": 1 / 128, "disc": 1 / 96, "wedge": 1 / 128},
             "smoke": {"square": 1 / 32, "disc": 1 / 24, "wedge": 1 / 32}}

    def __init__(self, size: str, ref: dict | None = None):
        self.h = self.sizes[size]
        # The wedge has no closed form: its reference is the seed's lambda1.
        self.wedge_ref = ref["wedge"]["upper"]["lambda1"] if ref else None

    def domains(self):
        h = self.h
        return {"square": {"kind": "rectangle", "h": h["square"],
                           "width": 1.0, "height": 1.0},
                "disc": {"kind": "disc", "h": h["disc"], "radius": 1.0},
                "wedge": {"kind": "wedge", "h": h["wedge"], "m": 2.0}}

    def setup(self, seed: int, workdir: str):
        base = tempfile.mkdtemp(dir=workdir, prefix="eig-")
        jobs = []
        for label, domain in self.domains().items():
            config = {"domain": domain}
            if label == "wedge":
                config["reference"] = self.wedge_ref
            path = os.path.join(base, f"{label}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            jobs.append((label, path, os.path.join(base, label)))
        return jobs

    def run(self, state, serial: bool = False):
        out = {}
        for label, path, outdir in state:
            code = cli.main(["verify", "eig", "--config", path, "--out", outdir,
                             "--quiet"])
            out[label] = (code, outdir)
        return out

    def summarize(self, result) -> dict:
        ops = {}
        for label, (code, outdir) in result.items():
            with open(os.path.join(outdir, "eig.json")) as fh:
                payload = json.load(fh)
            ops[label] = {"exact": {"exit": code, "status": payload["status"]},
                          "upper": {"lambda1": payload["details"]["lambda1"]}}
        return _plain(ops)

    def reference_state(self, workdir: str):
        if self.wedge_ref is None:
            self.wedge_ref = competelab.lambda1(
                lab.build_domain(self.domains()["wedge"]))
        return self.setup(0, workdir)


WORKLOADS = {w.name: w for w in (LimitiSquare, System2Wedge, SweepDisc, EigFine)}


def _read_bytes(outdir: str) -> dict:
    out = {}
    for name in ("results.csv", "manifest.txt"):
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


class Check:
    """Compares summaries with the reference, one operation at a time."""

    def __init__(self, reference: dict, tol: float):
        self.reference = reference
        self.tol = tol
        self.attempted = 0
        self.failed = 0
        self.excess = 0.0
        self.problems = []

    def compare(self, summary: dict) -> None:
        for label, ref in self.reference.items():
            problems = []
            got = summary.get(label)
            if got is None:
                problems.append("missing")
            else:
                for key, want in ref["exact"].items():
                    if got["exact"].get(key) != want:
                        problems.append(f"{key}={got['exact'].get(key)!r}, "
                                        f"reference {want!r}")
                upper = dict(ref.get("upper", {}))
                anchor = ref.get("path_anchor")
                if anchor in got.get("upper", {}) and \
                        _rel(got["upper"][anchor], upper[anchor]) <= PATH_MATCH:
                    upper.update(ref["path"])
                for key, want in upper.items():
                    value = got.get("upper", {}).get(key, got.get("path", {}).get(key))
                    if value is None:
                        problems.append(f"{key} missing")
                        continue
                    rel = (value - want) / abs(want)
                    if not rel <= self.tol:  # also a NaN
                        problems.append(f"{key}={value!r} exceeds reference "
                                        f"{want!r} by {rel:.3g} (relative)")
                    if rel > self.excess:  # clipped at 0: lower is never worse
                        self.excess = rel
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{label}: " + "; ".join(problems))

    def fail_all(self, message: str) -> None:
        """Every operation of a unit of work that raised counts as failed."""
        self.attempted += len(self.reference)
        self.failed += len(self.reference)
        self.problems.append(message)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)
