"""Command-line entry point: minimize, partition, verify, sweep, eig.

A run is configured by a single JSON file; CLI flags override the
top-level scalars (seed, output directory, parallelism).  Configs are
validated strictly before any computation: a missing required key or an
unknown key aborts with exit code 1 and a message naming the key.

Exit codes: 0 success / verification PASS, 1 configuration error,
2 non-convergence or partial sweep, 3 verification FAIL,
4 verification INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import lab
from .energy import field_to_csv, field_to_pgm
from .geometry import DomainMask
from .model import ScaledFamily, coupling_quartic, logistic
from .solve import SolverConfig, minimize_multistart

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOCONV = 2
EXIT_FAIL = 3
EXIT_INCONCLUSIVE = 4

VERIFY_EXPERIMENTS = ("extinction", "eps-threshold", "limiti", "wedge-bound",
                      "cutoff", "system2", "eig")

_BESSEL_J01 = 2.404825557695773


class ConfigError(Exception):
    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(key, f"missing required config key \"{key}\"")
    return cfg[key]


def _check_unknown(cfg: dict, allowed, where: str):
    for key in cfg:
        if key not in allowed:
            raise ConfigError(key, f"unknown config key \"{key}\" in {where}")


_DOMAIN_KEYS = {
    "rectangle": {"kind", "h", "width", "height"},
    "disc": {"kind", "h", "radius"},
    "wedge": {"kind", "h", "m"},
}


def parse_domain(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("domain", "config key \"domain\" must be an object")
    kind = _require(cfg, "kind")
    if kind not in _DOMAIN_KEYS:
        raise ConfigError("kind", f"unknown domain kind \"{kind}\"")
    _check_unknown(cfg, _DOMAIN_KEYS[kind], "domain")
    _require(cfg, "h")
    out = {"kind": kind, "h": float(cfg["h"])}
    for key in _DOMAIN_KEYS[kind] - {"kind", "h"}:
        if key in cfg:
            out[key] = float(cfg[key])
    return out


_SOLVER_KEYS = {"max_iters", "tol_energy", "tol_residual", "step0",
                "armijo_shrink", "armijo_c", "step_growth", "restarts",
                "seed", "coexist_eta", "stall_window"}


def parse_solver(cfg, seed_override=None) -> SolverConfig:
    cfg = dict(cfg or {})
    _check_unknown(cfg, _SOLVER_KEYS, "solver")
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    try:
        return SolverConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError("solver", f"invalid solver config: {exc}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"config is not valid JSON: {exc}")


def normalize_run_config(cfg: dict) -> dict:
    """Validated, defaults-filled copy of a minimize/partition config.

    Normalization is idempotent: re-parsing a serialized normal form
    reproduces it exactly.
    """
    allowed = {"domain", "k", "lambda", "kappa", "eps", "identical",
               "coupling", "nonlinearity", "solver", "out"}
    _check_unknown(cfg, allowed, "run config")
    domain = parse_domain(_require(cfg, "domain"))
    k = int(cfg.get("k", 1))
    if k < 1:
        raise ConfigError("k", "config key \"k\" must be at least 1")
    lam = float(_require(cfg, "lambda"))
    kappa = float(cfg.get("kappa", 0.0))
    identical = bool(cfg.get("identical", False))
    eps = cfg.get("eps", [])
    if isinstance(eps, (int, float)):
        eps = [float(eps)] * (k - 1)
    eps = [float(e) for e in eps]
    if identical and eps:
        raise ConfigError("eps", "config key \"eps\" must be omitted when "
                          "\"identical\" is set")
    if not identical and len(eps) != k - 1:
        raise ConfigError("eps", f"config key \"eps\" must list {k - 1} scales")
    nl = cfg.get("nonlinearity", "logistic")
    if nl != "logistic":
        raise ConfigError("nonlinearity",
                          "only the \"logistic\" nonlinearity is configurable")
    coup = cfg.get("coupling", "quartic")
    if coup != "quartic":
        raise ConfigError("coupling", "only the \"quartic\" coupling is configurable")
    solver = dict(cfg.get("solver", {}))
    _check_unknown(solver, _SOLVER_KEYS, "solver")
    return {"domain": domain, "k": k, "lambda": lam, "kappa": kappa,
            "eps": eps, "identical": identical, "coupling": coup,
            "nonlinearity": nl, "solver": solver, "out": cfg.get("out", "runs")}


def _build_problem(norm: dict, seed_override=None):
    mask = lab.build_domain(norm["domain"])
    k = norm["k"]
    if norm["identical"]:
        fam = ScaledFamily(base=logistic(), k=k, identical=True)
    else:
        fam = ScaledFamily(base=logistic(), k=k, eps=tuple(norm["eps"]))
    coupling = coupling_quartic(k) if k > 1 else None
    solver = parse_solver(norm["solver"], seed_override)
    return mask, fam, coupling, solver


def _dump_fields(result, outdir, mask: DomainMask):
    fdir = os.path.join(outdir, "fields")
    os.makedirs(fdir, exist_ok=True)
    betas = result.system.fam.betas
    for i, f in enumerate(result.system.fields, start=1):
        field_to_csv(f, os.path.join(fdir, f"u{i}.csv"))
        field_to_pgm(f, os.path.join(fdir, f"u{i}.pgm"), cap=betas[i - 1])


def _write_run_outputs(norm, mask, best, results, outdir, dump_fields, say,
                       seed):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        json.dump(norm, fh, indent=1, sort_keys=True)
    records = []
    for res in results:
        verdict = "best" if res is best else ""
        records.append(lab.record_from_result(
            "minimize", mask, res, seed, 0.0, eps=tuple(norm["eps"]),
            verdict=verdict))
    lab.write_records_csv(records, os.path.join(outdir, "results.csv"))
    lab.append_new_manifest_keys(records, os.path.join(outdir, "manifest.txt"))
    if dump_fields:
        _dump_fields(best, outdir, mask)
    say(f"energy {lab.fmt(best.energy)}  converged {best.converged}  "
        f"alive {best.alive_count}/{best.system.k}  start {best.start_label}")


def cmd_minimize(args, partition: bool = False) -> int:
    norm = normalize_run_config(load_config(args.config))
    mask, fam, coupling, solver = _build_problem(norm, args.seed)
    say = (lambda *a: None) if args.quiet else print
    best, results = minimize_multistart(
        mask, fam, norm["lambda"], coupling=coupling,
        kappa=0.0 if partition else norm["kappa"], cfg=solver,
        partition=partition, warn=say)
    outdir = args.out or norm["out"]
    _write_run_outputs(norm, mask, best, results, outdir, args.dump_fields,
                       say, solver.seed)
    if partition:
        say(f"alive-count {best.alive_count}")
    return EXIT_OK if best.converged else EXIT_NOCONV


def cmd_partition(args) -> int:
    return cmd_minimize(args, partition=True)


def _analytic_eigenvalue(domain: dict):
    if domain["kind"] == "rectangle":
        w = domain.get("width", 1.0)
        ht = domain.get("height", 1.0)
        return np.pi ** 2 * (1.0 / w ** 2 + 1.0 / ht ** 2)
    if domain["kind"] == "disc":
        return (_BESSEL_J01 / domain.get("radius", 1.0)) ** 2
    return None


def cmd_verify(args) -> int:
    name = args.experiment
    if name not in VERIFY_EXPERIMENTS:
        print(f"unknown experiment \"{name}\"; choose from "
              + ", ".join(VERIFY_EXPERIMENTS), file=sys.stderr)
        return EXIT_CONFIG
    cfg = load_config(args.config) if args.config else {}
    outdir = args.out or cfg.get("out", "runs")
    say = (lambda *a: None) if args.quiet else print

    if name == "eig":
        allowed = {"domain", "reference", "rel_tol", "out"}
        _check_unknown(cfg, allowed, "eig config")
        domain = parse_domain(cfg.get("domain", {"kind": "rectangle", "h": 1 / 128,
                                                 "width": 1.0, "height": 1.0}))
        reference = cfg.get("reference", _analytic_eigenvalue(domain))
        if reference is None:
            raise ConfigError("reference",
                              "config key \"reference\" required for this domain")
        verdict = lab.verify_eigenvalue(lab.build_domain(domain),
                                        float(reference),
                                        float(cfg.get("rel_tol", 0.01)),
                                        out=outdir)
        say(f"lambda1 {lab.fmt(verdict.details['lambda1'])}  reference "
            f"{lab.fmt(verdict.details['reference'])}  rel_err "
            f"{lab.fmt(verdict.details['rel_err'])}")
    elif name == "extinction":
        allowed = {"domain", "k", "lambda", "solver", "out"}
        _check_unknown(cfg, allowed, "extinction config")
        verdict = lab.verify_extinction_identical(
            lab.build_domain(parse_domain(_require(cfg, "domain"))),
            int(cfg.get("k", 2)), float(_require(cfg, "lambda")),
            parse_solver(cfg.get("solver"), args.seed), out=outdir)
    elif name == "limiti":
        allowed = {"domain", "lambdas", "solver", "out"}
        _check_unknown(cfg, allowed, "limiti config")
        verdict = lab.verify_limiti_asymptotics(
            lab.build_domain(parse_domain(_require(cfg, "domain"))),
            [float(x) for x in _require(cfg, "lambdas")],
            parse_solver(cfg.get("solver"), args.seed), out=outdir)
    elif name == "wedge-bound":
        allowed = {"m", "lambda", "h", "solver", "out"}
        _check_unknown(cfg, allowed, "wedge-bound config")
        verdict = lab.verify_wedge_bound(
            float(cfg.get("m", 2.0)), float(_require(cfg, "lambda")),
            float(_require(cfg, "h")),
            parse_solver(cfg.get("solver"), args.seed), out=outdir)
    elif name == "cutoff":
        allowed = {"m", "lambda", "h", "deltas", "solver", "out"}
        _check_unknown(cfg, allowed, "cutoff config")
        verdict = lab.verify_cutoff_scaling(
            float(cfg.get("m", 2.0)), float(_require(cfg, "lambda")),
            float(_require(cfg, "h")),
            [float(d) for d in _require(cfg, "deltas")],
            parse_solver(cfg.get("solver"), args.seed), out=outdir)
    elif name == "eps-threshold":
        allowed = {"domain", "k", "lambda", "kappa", "eps_grid", "solver", "out"}
        _check_unknown(cfg, allowed, "eps-threshold config")
        verdict = lab.scan_epsilon_threshold(
            lab.build_domain(parse_domain(_require(cfg, "domain"))),
            int(cfg.get("k", 2)), float(_require(cfg, "lambda")),
            float(_require(cfg, "kappa")),
            [float(e) for e in _require(cfg, "eps_grid")],
            parse_solver(cfg.get("solver"), args.seed), out=outdir)
    else:  # system2
        allowed = {"domain", "lambda", "eps2", "kappa_schedule", "solver", "out"}
        _check_unknown(cfg, allowed, "system2 config")
        verdict = lab.verify_system2(
            lab.build_domain(parse_domain(_require(cfg, "domain"))),
            float(_require(cfg, "lambda")), float(_require(cfg, "eps2")),
            [float(x) for x in _require(cfg, "kappa_schedule")],
            parse_solver(cfg.get("solver"), args.seed), out=outdir)

    say(f"{verdict.experiment}: {verdict.status}")
    for key, val in sorted(verdict.details.items()):
        say(f"  {key} = {lab.fmt(val) if isinstance(val, float) else val}")
    return {lab.PASS: EXIT_OK, lab.FAIL: EXIT_FAIL}.get(verdict.status,
                                                        EXIT_INCONCLUSIVE)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    allowed = {"domain", "k", "lambdas", "kappas", "epss", "solver", "out"}
    _check_unknown(cfg, allowed, "sweep config")
    spec = lab.SweepSpec(
        domain=parse_domain(_require(cfg, "domain")),
        k=int(cfg.get("k", 1)),
        lam_grid=[float(x) for x in _require(cfg, "lambdas")],
        kappa_grid=[float(x) for x in _require(cfg, "kappas")],
        eps_grid=_require(cfg, "epss"),
        solver=parse_solver(cfg.get("solver"), args.seed),
        outdir=args.out or cfg.get("out", "runs"),
    )
    log = (lambda *a: None) if args.quiet else print
    expected = len(list(spec.coordinates()))
    try:
        summary = lab.run_sweep(spec, jobs=args.jobs, log=log)
    except Exception as exc:  # a failed point leaves the sweep partial
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    missing = expected - summary["total"]
    log(f"sweep complete: {summary['completed']} computed, "
        f"{summary['skipped']} skipped, {summary['total']} records")
    if missing > 0:
        print(f"sweep incomplete: {missing} points missing", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="competelab",
        description="competing-species energy minimization laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the solver seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweeps")
        p.add_argument("--dump-fields", action="store_true",
                       help="write per-species field CSV/PGM dumps")
        p.add_argument("--quiet", action="store_true")

    common(sub.add_parser("minimize", help="multistart free minimization"))
    common(sub.add_parser("partition", help="segregated partition minimization"))
    pv = sub.add_parser("verify", help="run a named verification experiment")
    pv.add_argument("experiment", help="|".join(VERIFY_EXPERIMENTS))
    common(pv, config_required=False)
    common(sub.add_parser("sweep", help="run a parameter sweep grid"))
    pe = sub.add_parser("eig", help="principal eigenvalue of a domain")
    common(pe, config_required=False)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "minimize":
            return cmd_minimize(args)
        if args.command == "partition":
            return cmd_partition(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "eig":
            args.experiment = "eig"
            return cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
