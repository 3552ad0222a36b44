"""Command-line surface: simulate, certify, sweep, and the canned demos.

Every subcommand exits 0 on success; failures print a machine-readable
error JSON ({"error": <type>, "message": <text>}) to stdout and exit 1.
Outputs are CSV (arc samples, sweep tables) and JSON (event logs,
summaries, certification reports).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import demo as demo_mod
from .analysis import summarize_arc, sweep, transmission_comparison
from .certificates import (
    LyapunovCertificate,
    QuadraticLyapunovData,
    epsilon_star_search,
    select_analysis_parameters,
)
from .errors import EtcsimError
from .hybrid import field_keys, read_section, write_json
from .scenario import load_scenario_file
from .simulate import integrate_arc

__all__ = ["main"]


def _write_arc(arc, policy, event_tol, outdir: Path, prefix: str = "arc") -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    arc.to_csv(outdir / f"{prefix}.csv")
    arc.events_to_json(outdir / f"{prefix}_events.json")
    summary = summarize_arc(arc, policy, event_tol).to_dict()
    write_json(outdir / f"{prefix}_summary.json", summary)
    return summary


def _cmd_simulate(args) -> int:
    scenario = load_scenario_file(args.scenario)
    q0 = scenario.initial_state()
    arc = integrate_arc(scenario.plant, scenario.policy, q0, scenario.solver,
                        cert=scenario.cert, params=scenario.params)
    summary = _write_arc(arc, scenario.policy, scenario.solver.event_tol,
                         Path(args.out))
    print(json.dumps(summary))
    return 0


# A certify file is Lyapunov data plus the analysis it asks for.
_CERTIFY_KEYS = {"sigma": (float, 0.5), "mode": (str, "practical"),
                 "t_star": (float, None)}


def _cmd_certify(args) -> int:
    with open(args.lyapunov) as fh:
        cfg = read_section("Lyapunov data", json.load(fh),
                           {**field_keys(QuadraticLyapunovData), **_CERTIFY_KEYS})
    sigma, mode, t_star = (cfg.pop(key) for key in _CERTIFY_KEYS)
    cert = LyapunovCertificate.derive(QuadraticLyapunovData(**cfg))
    consts = cert.constants
    sigma = float(sigma)
    params = select_analysis_parameters(
        consts, sigma, t_star=float(t_star) if t_star is not None else None,
        mode=mode,
    )
    params = params.with_epsilon_star(epsilon_star_search(
        consts, sigma, params.mu, mode, d=params.d_weight,
        dwell_ode=params.dwell_ode))
    report = {
        "constants": consts.to_dict(),
        "dwell_bound": params.dwell_bound,
        "feasible_t_star_range": [0.0, params.dwell_bound],
        "parameters": params.to_dict(),
    }
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_json(outdir / "certificate.json", report)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario_file(args.scenario)
    with open(args.grid) as fh:
        grid = json.load(fh)
    result = sweep(scenario, grid)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result.to_csv(outdir / "sweep.csv")
    write_json(outdir / "sweep.json", result.to_dict())
    errors = sum(1 for c in result.cells if c.error is not None)
    print(json.dumps({"cells": len(result.cells), "errors": errors}))
    return 0


def _cmd_demo(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    certification = demo_mod.demo_certification()
    cert = certification.cert
    name = args.name
    if name == "compare":
        sc_a = demo_mod.demo_scenario("compare")
        sc_b = demo_mod.demo_scenario("compare_periodic")
        result, arc_a, arc_b = transmission_comparison(
            sc_a.plant, sc_a.q0.x, sc_a.q0.y, sc_a.solver.horizon,
            sc_a.policy, sc_b.policy, sc_a.solver, cert=cert)
        _write_arc(arc_a, sc_a.policy, sc_a.solver.event_tol, outdir,
                   "time_regularized")
        _write_arc(arc_b, sc_b.policy, sc_b.solver.event_tol, outdir,
                   "periodic")
        comparison = {
            "t_star": sc_a.policy.t_star,
            "jumps_time_regularized": result.jumps_a,
            "jumps_periodic": result.jumps_b,
            "final_norm_time_regularized": result.final_norm_a,
            "final_norm_periodic": result.final_norm_b,
        }
        write_json(outdir / "comparison.json", comparison)
        print(json.dumps(comparison))
        return 0
    sc = demo_mod.demo_scenario(name)
    params = certification.dwell if name == "dwell" else None
    arc = integrate_arc(sc.plant, sc.policy, sc.q0, sc.solver, cert=cert,
                        params=params)
    summary = _write_arc(arc, sc.policy, sc.solver.event_tol, outdir)
    print(json.dumps(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etcsim",
        description="Event-triggered control of two-time-scale systems: "
                    "simulation, certification, and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="derive constants and parameters")
    p.add_argument("lyapunov", help="Lyapunov data JSON file")
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--grid", required=True, help="grid JSON file")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("demo", help="run a canned linear-demo scenario")
    p.add_argument("name", choices=demo_mod.DEMO_SCENARIOS)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EtcsimError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
