"""Command-line entry point: minimize, partition, verify, sweep.

A run is configured by a single JSON object; CLI flags override the
output directory and the solver seed.  Every command reads its config
through ``read_config``, and configs are validated strictly before any
computation: a missing required key, an unknown key or a value of the
wrong JSON type aborts with exit code 1 and a message naming the key.

Exit codes: 0 success / verification PASS, 1 configuration error,
2 non-convergence or partial sweep, 3 verification FAIL,
4 verification INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import dataclasses
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

_BESSEL_J01 = 2.404825557695773


class ConfigError(Exception):
    """A config that cannot run; the message names the key or file at fault."""


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key \"{key}\"")
    return cfg[key]


def _is_number(v) -> bool:
    """A JSON number: true and false are booleans, not 1 and 0."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


def _bad(key: str, what: str, v) -> ConfigError:
    return ConfigError(f"config key \"{key}\" must be {what}, "
                       f"got {json.dumps(v)}")


def _number(cfg: dict, key: str, default=None) -> float:
    """``cfg[key]`` as a float; a missing key takes ``default`` or, without
    one, is an error."""
    v = _require(cfg, key) if default is None else cfg.get(key, default)
    if not _is_number(v):
        raise _bad(key, "a number", v)
    return float(v)


def _numbers(cfg: dict, key: str) -> list:
    """The required ``cfg[key]`` as a list of floats."""
    v = _require(cfg, key)
    if not _is_numbers(v):
        raise _bad(key, "a list of numbers", v)
    return [float(x) for x in v]


def _integer(cfg: dict, key: str, default: int) -> int:
    v = cfg.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        raise _bad(key, "an integer", v)
    return v


def _check_unknown(cfg: dict, allowed, where: str):
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown config key \"{key}\" in {where}")


_DOMAIN_KEYS = {kind: {"kind", "h", *defaults}
                for kind, (_, defaults, _) in lab.DOMAIN_KINDS.items()}


def parse_domain(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config key \"domain\" must be an object")
    kind = _require(cfg, "kind")
    if not isinstance(kind, str) or kind not in _DOMAIN_KEYS:
        raise ConfigError(f"unknown domain kind \"{kind}\"")
    _check_unknown(cfg, _DOMAIN_KEYS[kind], "domain")
    out = {"kind": kind, "h": _number(cfg, "h")}
    for key in _DOMAIN_KEYS[kind] - {"kind", "h"}:
        if key in cfg:
            out[key] = _number(cfg, key)
    return out


_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}


def parse_solver(cfg, seed_override=None) -> SolverConfig:
    if not isinstance(cfg, dict):
        raise _bad("solver", "an object", cfg)
    _check_unknown(cfg, _SOLVER_KEYS, "solver")
    if seed_override is not None:
        cfg = {**cfg, "seed": int(seed_override)}
    try:
        return SolverConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver config: {exc}")


def read_config(args, keys, where: str):
    """A command's checked config: ``(cfg, solver, outdir)``.

    ``cfg`` is the JSON object at ``--config`` (``{}`` without one) and may
    hold only ``keys`` and "out".  ``solver`` is its "solver" object parsed
    with the ``--seed`` override when ``keys`` include "solver"; else it is
    None and ``--seed`` is an error.  ``outdir`` is ``--out`` or else "out"
    (default "runs"); both must be non-empty strings.
    """
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object, got "
                          + json.dumps(cfg))
    _check_unknown(cfg, {*keys, "out"}, where)
    outs = [cfg.get("out", "runs")] + ([] if args.out is None else [args.out])
    for out in outs:
        if not isinstance(out, str) or not out:
            raise _bad("out", "a non-empty string", out)
    if args.seed is not None and "solver" not in keys:
        raise ConfigError(f"--seed has no solver to seed in the {where}")
    solver = parse_solver(cfg.get("solver", {}), args.seed) \
        if "solver" in keys else None
    return cfg, solver, outs[-1]


_RUN_KEYS = {"domain", "k", "lambda", "kappa", "eps", "identical", "solver"}


def normalize_run_config(cfg: dict, partition: bool = False) -> dict:
    """Validated, defaults-filled copy of a minimize/partition config whose
    keys, solver and "out" ``read_config`` has checked.

    Normalization is idempotent: re-parsing a serialized normal form
    reproduces it exactly.  A partition config has no "kappa": the
    partition solver is uncoupled.
    """
    domain = parse_domain(_require(cfg, "domain"))
    k = _integer(cfg, "k", 1)
    if k < 1:
        raise ConfigError("config key \"k\" must be at least 1")
    lam = _number(cfg, "lambda")
    identical = cfg.get("identical", False)
    if not isinstance(identical, bool):
        raise _bad("identical", "true or false", identical)
    eps = cfg.get("eps", [])
    if not (_is_number(eps) or _is_numbers(eps)):
        raise _bad("eps", "a number or a list of numbers", eps)
    eps = [float(eps)] * (k - 1) if _is_number(eps) else [float(e) for e in eps]
    if identical and eps:
        raise ConfigError("config key \"eps\" must be omitted when "
                          "\"identical\" is set")
    if not identical and len(eps) != k - 1:
        raise ConfigError(f"config key \"eps\" must list {k - 1} scales")
    norm = {"domain": domain, "k": k, "lambda": lam, "eps": eps,
            "identical": identical, "solver": dict(cfg.get("solver", {})),
            "out": cfg.get("out", "runs")}
    if not partition:
        norm["kappa"] = _number(cfg, "kappa", 0.0)
    return norm


def _dump_fields(result, outdir):
    fdir = os.path.join(outdir, "fields")
    os.makedirs(fdir, exist_ok=True)
    betas = result.system.fam.betas
    for i, f in enumerate(result.system.fields, start=1):
        field_to_csv(f, os.path.join(fdir, f"u{i}.csv"))
        field_to_pgm(f, os.path.join(fdir, f"u{i}.pgm"), cap=betas[i - 1])


def cmd_minimize(args) -> int:
    partition = args.command == "partition"
    cfg, solver, outdir = read_config(
        args, _RUN_KEYS - {"kappa"} if partition else _RUN_KEYS,
        f"{args.command} config")
    # config.json records the run's directory and the solver that ran
    norm = normalize_run_config({**cfg, "out": outdir,
                                 "solver": dataclasses.asdict(solver)},
                                partition)
    mask = lab.build_domain(norm["domain"])
    k = norm["k"]
    fam = ScaledFamily(base=logistic(), k=k, eps=tuple(norm["eps"]),
                       identical=norm["identical"])
    say = (lambda *a: None) if args.quiet else print
    best, results = minimize_multistart(
        mask, fam, norm["lambda"],
        coupling=coupling_quartic(k) if k > 1 else None,
        kappa=norm.get("kappa", 0.0), cfg=solver,
        partition=partition, warn=say)
    records = [lab.record_from_result(
        args.command, res, solver.seed, res.seconds, eps=tuple(norm["eps"]),
        verdict="best" if res is best else "") for res in results]
    lab.write_run(outdir, records, texts={
        "config.json": json.dumps(norm, indent=1, sort_keys=True)})
    if args.dump_fields:
        _dump_fields(best, outdir)
    say(f"energy {lab.fmt(best.energy)}  converged {best.converged}  "
        f"alive {best.alive_count}/{best.system.k}  start {best.start_label}")
    if partition:
        say(f"alive-count {best.alive_count}")
    return EXIT_OK if best.converged else EXIT_NOCONV


def _analytic_eigenvalue(domain: dict):
    p = {**lab.DOMAIN_KINDS[domain["kind"]][1], **domain}
    if p["kind"] == "rectangle":
        return np.pi ** 2 * (1.0 / p["width"] ** 2 + 1.0 / p["height"] ** 2)
    if p["kind"] == "disc":
        return (_BESSEL_J01 / p["radius"]) ** 2
    return None


def _domain(cfg: dict) -> DomainMask:
    return lab.build_domain(parse_domain(_require(cfg, "domain")))


def _eig_args(cfg: dict) -> tuple:
    """``verify eig``'s mask, reference and tolerance: the unit square at
    h = 1/128 without a domain, its analytic eigenvalue without a
    reference.  The reference and tolerance must be finite and > 0."""
    domain = parse_domain(cfg.get("domain", {"kind": "rectangle", "h": 1 / 128,
                                             "width": 1.0, "height": 1.0}))
    reference = _number(cfg, "reference", _analytic_eigenvalue(domain))
    rel_tol = _number(cfg, "rel_tol", 0.01)
    for key, v in (("reference", reference), ("rel_tol", rel_tol)):
        if not 0 < v < np.inf:
            raise _bad(key, "a finite number above 0", v)
    return lab.build_domain(domain), reference, rel_tol


# Experiment name -> (config keys, runner(cfg, solver) -> verdict).
# The solver config is parsed only for experiments whose keys include it.
VERIFY = {
    "extinction": (
        {"domain", "k", "lambda", "solver"},
        lambda cfg, solver: lab.verify_extinction_identical(
            _domain(cfg), _integer(cfg, "k", 2), _number(cfg, "lambda"),
            solver)),
    "eps-threshold": (
        {"domain", "k", "lambda", "kappa", "eps_grid", "solver"},
        lambda cfg, solver: lab.scan_epsilon_threshold(
            _domain(cfg), _integer(cfg, "k", 2), _number(cfg, "lambda"),
            _number(cfg, "kappa"), _numbers(cfg, "eps_grid"), solver)),
    "limiti": (
        {"domain", "lambdas", "solver"},
        lambda cfg, solver: lab.verify_limiti_asymptotics(
            _domain(cfg), _numbers(cfg, "lambdas"), solver)),
    "wedge-bound": (
        {"m", "lambda", "h", "solver"},
        lambda cfg, solver: lab.verify_wedge_bound(
            _number(cfg, "m", 2.0), _number(cfg, "lambda"), _number(cfg, "h"),
            solver)),
    "cutoff": (
        {"m", "lambda", "h", "deltas", "solver"},
        lambda cfg, solver: lab.verify_cutoff_scaling(
            _number(cfg, "m", 2.0), _number(cfg, "lambda"), _number(cfg, "h"),
            _numbers(cfg, "deltas"), solver)),
    "system2": (
        {"domain", "lambda", "eps2", "kappa_schedule", "solver"},
        lambda cfg, solver: lab.verify_system2(
            _domain(cfg), _number(cfg, "lambda"), _number(cfg, "eps2"),
            _numbers(cfg, "kappa_schedule"), solver)),
    "eig": (
        {"domain", "reference", "rel_tol"},
        lambda cfg, solver: lab.verify_eigenvalue(*_eig_args(cfg))),
}


def cmd_verify(args) -> int:
    name = args.experiment
    if name not in VERIFY:
        raise ConfigError(f"unknown experiment \"{name}\"; choose from "
                          + ", ".join(VERIFY))
    keys, runner = VERIFY[name]
    cfg, solver, outdir = read_config(args, keys, f"{name} config")
    say = (lambda *a: None) if args.quiet else print
    verdict = runner(cfg, solver)
    lab.write_verdict(verdict, outdir)

    say(f"{verdict.experiment}: {verdict.status}")
    for key, val in sorted(verdict.details.items()):
        say(f"  {key} = {lab.fmt(val) if isinstance(val, float) else val}")
    return {lab.PASS: EXIT_OK, lab.FAIL: EXIT_FAIL}.get(verdict.status,
                                                        EXIT_INCONCLUSIVE)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg, solver, outdir = read_config(
        args, {"domain", "k", "lambdas", "kappas", "epss", "solver"},
        "sweep config")
    epss = _require(cfg, "epss")
    if not isinstance(epss, list) or not all(
            _is_number(e) or _is_numbers(e) for e in epss):
        raise _bad("epss", "a list of numbers or lists of numbers", epss)
    spec = lab.SweepSpec(
        domain=parse_domain(_require(cfg, "domain")),
        k=_integer(cfg, "k", 1),
        lam_grid=_numbers(cfg, "lambdas"),
        kappa_grid=_numbers(cfg, "kappas"),
        eps_grid=epss,
        solver=solver,
        outdir=outdir,
    )
    log = (lambda *a: None) if args.quiet else print
    try:
        summary = lab.run_sweep(spec, jobs=args.jobs, log=log)
    except Exception as exc:  # a failed point leaves the sweep partial
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    log(f"sweep complete: {summary['completed']} computed, "
        f"{summary['skipped']} skipped, {summary['total']} records")
    if summary["failed"]:
        print(f"sweep incomplete: {summary['failed']} points missing",
              file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="competelab",
        description="competing-species energy minimization laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, text, run, config_required=True):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=config_required,
                       help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the solver seed")
        p.add_argument("--quiet", action="store_true")
        return p

    for name, text in (("minimize", "multistart free minimization"),
                       ("partition", "segregated partition minimization")):
        command(name, text, cmd_minimize).add_argument(
            "--dump-fields", action="store_true",
            help="write per-species field CSV/PGM dumps")
    command("verify", "run a named verification experiment", cmd_verify,
            config_required=False).add_argument(
                "experiment", help="|".join(VERIFY))
    command("sweep", "run a parameter sweep grid", cmd_sweep).add_argument(
        "--jobs", type=int, default=1, help="worker processes")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
