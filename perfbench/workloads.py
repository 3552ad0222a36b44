"""The four benchmark workloads: generated inputs, timed jobs, output checks.

Each workload turns the workload seed into inputs, runs the program on
them one job at a time (a closed loop), and checks every output. A job is
the unit that is timed; it holds one or more operations (a sweep cell, an
arc, a certification), and each operation passes or fails its checks on
its own. Job i's inputs depend only on the workload seed and i, so the
same job can be run untraced and traced.

Set-up ends with a warm-up: one small call into each entry point the jobs
use, with its output discarded. Costs paid on a first call (lazy imports,
compilation, caches filled on first use) then land in the set-up time
instead of vanishing among the times of the jobs.

Only public entry points are called, and always through module attributes
(``certificates.trigger_slope_bound``, ``simulate.integrate_arc``,
``cli.main``) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

import etcsim.certificates as certificates
import etcsim.scenario as scenario_mod
import etcsim.simulate as simulate
from etcsim import cli, demo
from etcsim.analysis import certified_ball_radius
from etcsim.hybrid import HybridState, Termination
from etcsim.plant import PlantSpec, apply_jump
from etcsim.scenario import sample_in_ball
from etcsim.triggers import PolicyKind, TriggerPolicy

DEADZONE_EPSILON = 0.03
DEADZONE_SIGMA = 0.3
DEADZONE_RHOS = (0.02, 0.01, 0.005)
DEADZONE_HORIZON = 40.0
DEADZONE_DELTA = 1.0            # radius of the initial-state ball
DWELL_RADIUS = 1.2
# One sixteenth of the dwell demo's 50/psi horizon (about 208 of its 3331
# jumps), so that a run times a dozen arcs or more instead of one
# full-horizon arc, which filled a run on its own.
DWELL_HORIZON_FRACTION = 1 / 16
SLOPE_SAMPLES = 100_000
# certify draws its slope-bound samples in this many calls and takes the
# largest bound. trigger_slope_bound returns 1.1 times the supremum of its
# samples, so the largest of the calls is the bound over all 100k samples.
# The runner times a host probe between the calls (see run.py).
SLOPE_CHUNKS = 8
# The slope bound behind deadzone_sweep's certified floor. Set-up runs four
# times per run, cold; at 25k samples xi is within 3% of its 100k value,
# and the floor rho/xi stays orders of magnitude below the observed min_iet.
SETUP_SLOPE_SAMPLES = 25_000
VALIDATE_SAMPLES = 10_000
WARM_UP_HORIZON = 1.0           # simulated time of a warm-up arc
WARM_UP_SAMPLES = 200           # sampled points of a warm-up certification
NONLINEAR_RADIUS = 1.6
NONLINEAR_DEADZONE = dict(sigma=0.4, rho=0.01, horizon=20.0)
NONLINEAR_DWELL = dict(sigma=0.4, t_star=0.3, horizon=6.0)
Z_CONTINUITY_TOL = 1e-9


def job_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Generator for job `index` of a run seeded with `seed`."""
    return np.random.default_rng(np.random.SeedSequence([seed, index, stream]))


def draw_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _no_pause() -> None:
    pass


def _quiet_cli(argv: list[str]) -> int:
    """Run the CLI in-process, keeping its printout off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """One workload: set-up, then jobs of ops_per_job operations each."""

    name = ""
    ops_per_job = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def setup(self) -> None:
        """Generate the inputs and certify what the checks rely on."""

    def warm_up(self) -> None:
        """Call each entry point the jobs use once, on a small input."""
        raise NotImplementedError

    def prepare(self, index: int):
        """Untimed: write or build the inputs of job `index`."""
        return index

    def run(self, job, pause=_no_pause):
        """Timed: run the program on one job's inputs. A job made of
        phases calls pause() between them; the pause is not timed."""
        raise NotImplementedError

    def read(self, raw, job):
        """Untimed: parse the program's outputs for the checks."""
        return raw

    def check(self, out) -> list[Optional[str]]:
        """One entry per operation: None if its output passes, else why not."""
        raise NotImplementedError

    def corruptions(self, out) -> dict:
        """Corrupted copies of a passing output, for the self-test."""
        raise NotImplementedError

    def job_dir(self, index: int) -> Path:
        return self.workdir / f"job{index}"

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self.job_dir(index), ignore_errors=True)


# ---------------------------------------------------------------------------
# deadzone_sweep: `etcsim sweep` over seed x rho from a Delta-ball
# ---------------------------------------------------------------------------


class DeadzoneSweep(Workload):
    name = "deadzone_sweep"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        data = demo.demo_lyapunov_data()
        plant = demo.demo_plant(DEADZONE_EPSILON)
        cfg = {
            "plant": plant.to_dict(),
            "policy": {"policy": "deadzone", "sigma": DEADZONE_SIGMA,
                       "rho": DEADZONE_RHOS[0]},
            "solver": {"horizon": DEADZONE_HORIZON},
            "initial": {"ball_radius": DEADZONE_DELTA},
            "lyapunov": data.to_dict(),
        }
        self.scenario_path = self.workdir / "scenario.json"
        self.scenario_path.write_text(json.dumps(cfg, indent=2) + "\n")
        cfg["solver"]["horizon"] = WARM_UP_HORIZON
        self.warm_up_path = self.workdir / "scenario_warm_up.json"
        self.warm_up_path.write_text(json.dumps(cfg, indent=2) + "\n")

        # The certified floor rho/xi(Delta) and the certified ball radius.
        cert = certificates.LyapunovCertificate.derive(data)
        consts = cert.constants
        practical = certificates.select_analysis_parameters(
            consts, DEADZONE_SIGMA, mode="practical")
        eps_star = certificates.epsilon_star_search(
            consts, DEADZONE_SIGMA, practical.mu, "practical")
        if not DEADZONE_EPSILON <= eps_star:
            raise RuntimeError(f"eps {DEADZONE_EPSILON} is not certified "
                               f"(epsilon_star = {eps_star})")
        # xi at the largest rho covers the reachable sets of the smaller ones.
        slope_seed = draw_seeds(job_rng(self.seed, 0, stream=1), 1)[0]
        self.xi = certificates.trigger_slope_bound(
            plant.as_plant_spec(), data, consts, theta=practical.theta,
            rho=max(DEADZONE_RHOS), delta=DEADZONE_DELTA,
            n_samples=SETUP_SLOPE_SAMPLES, seed=slope_seed)
        self.floor = {rho: rho / self.xi for rho in DEADZONE_RHOS}
        self.radius_bound = {
            rho: certified_ball_radius(cert, practical, rho, DEADZONE_EPSILON)
            for rho in DEADZONE_RHOS}

    def warm_up(self) -> None:
        out = self.workdir / "warm_up"
        self.run(self._sweep_args(self.warm_up_path, out, seed=0,
                                  rho=DEADZONE_RHOS[0]))
        shutil.rmtree(out, ignore_errors=True)

    def prepare(self, index: int):
        # One cell per job: the seed axis is drawn from the workload seed,
        # and the rho axis cycles, so every run covers each rho equally.
        return self._sweep_args(
            self.scenario_path, self.job_dir(index),
            seed=draw_seeds(job_rng(self.seed, index), 1)[0],
            rho=DEADZONE_RHOS[index % len(DEADZONE_RHOS)])

    @staticmethod
    def _sweep_args(scenario: Path, out: Path, seed: int, rho: float):
        out.mkdir(parents=True, exist_ok=True)
        grid_path = out / "grid.json"
        grid_path.write_text(json.dumps({"seed": [seed], "rho": [rho]}) + "\n")
        return ["sweep", str(scenario), "--grid", str(grid_path),
                "--out", str(out)]

    def run(self, job, pause=_no_pause):
        return _quiet_cli(job)

    def read(self, rc, job):
        out = {"rc": rc, "cells": []}
        if rc == 0:
            with open(Path(job[-1]) / "sweep.json") as fh:
                out["cells"] = json.load(fh)["cells"]
        return out

    def check(self, out) -> list[Optional[str]]:
        if out["rc"] != 0:
            return [f"etcsim sweep exited {out['rc']}"] * self.ops_per_job
        reasons: list[Optional[str]] = []
        for cell in out["cells"]:
            reasons.append(self._check_cell(cell))
        missing = self.ops_per_job - len(reasons)
        reasons += ["cell missing from sweep.json"] * max(missing, 0)
        return reasons

    def _check_cell(self, cell: dict) -> Optional[str]:
        if cell.get("error") is not None:
            return f"cell error: {cell['error']}"
        rho = cell["point"]["rho"]
        s = cell["summary"]
        if s["termination"] != Termination.HORIZON.value:
            return f"termination {s['termination']}"
        # min_iet is null in JSON when the arc had fewer than two jumps.
        min_iet = math.inf if s["min_iet"] is None else s["min_iet"]
        if not min_iet >= self.floor[rho]:
            return f"min_iet {min_iet!r} below rho/xi = {self.floor[rho]!r}"
        radius = s["ball_radius_estimate"]
        if radius is None or not radius <= self.radius_bound[rho]:
            return (f"ball radius {radius!r} above the certified "
                    f"{self.radius_bound[rho]!r}")
        return None

    def corruptions(self, out) -> dict:
        def cell0(fn):
            bad = copy.deepcopy(out)
            fn(bad["cells"][0])
            return bad

        def below_floor(c):
            c["summary"]["min_iet"] = 0.5 * self.floor[c["point"]["rho"]]

        def inflated_ball(c):
            c["summary"]["ball_radius_estimate"] = (
                2.0 * self.radius_bound[c["point"]["rho"]])

        def zeno(c):
            c["summary"]["termination"] = Termination.ZENO_GUARD.value

        dropped = copy.deepcopy(out)
        dropped["cells"].pop()
        return {
            "min_iet below rho/xi": cell0(below_floor),
            "ball radius above certified": cell0(inflated_ball),
            "termination not horizon": cell0(zeno),
            "cell dropped": dropped,
            "sweep exit code 1": dict(out, rc=1),
        }


# ---------------------------------------------------------------------------
# dwell_run: `etcsim simulate` on the dwell demo from a seeded start
# ---------------------------------------------------------------------------


class DwellRun(Workload):
    name = "dwell_run"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        data = demo.demo_lyapunov_data()
        cert = certificates.LyapunovCertificate.derive(data)
        consts = cert.constants
        sigma = demo.SIGMA_DWELL
        t_star = demo.T_STAR_FRACTION * certificates.max_dwell_time(
            consts.m_err, consts.n_err, consts.gamma1_bar, consts.alpha1)
        params = certificates.select_analysis_parameters(
            consts, sigma, t_star=t_star, mode="dwell")
        eps = certificates.epsilon_star_search(
            consts, sigma, params.mu, "dwell", d=params.d_weight,
            dwell_ode=params.dwell_ode)
        # The dwell demo's plant, policy and solver settings.
        self.base_cfg = {
            "plant": demo.demo_plant(eps).to_dict(),
            "policy": {"policy": "time_regularized", "sigma": sigma,
                       "t_star": t_star},
            "solver": {"horizon": DWELL_HORIZON_FRACTION * 50.0 / params.psi,
                       "rel_tol": 1e-8,
                       "abs_tol": 1e-12, "max_step_factor": 1e15,
                       "fast_floor": 1e-12, "store_stride": 8},
            "initial": {"ball_radius": DWELL_RADIUS, "seed": 0},
            "lyapunov": data.to_dict(),
            "analysis": {"mode": "dwell", "sigma": sigma, "t_star": t_star},
        }
        loaded = scenario_mod.load_scenario(self.base_cfg)
        if loaded.params.epsilon_star != eps:
            raise RuntimeError("scenario loading re-certified another epsilon")
        self.psi = loaded.params.psi
        self.t_star = t_star
        self.event_tol = loaded.solver.event_tol

    def warm_up(self) -> None:
        out = self.workdir / "warm_up"
        cfg = copy.deepcopy(self.base_cfg)
        cfg["solver"]["horizon"] = WARM_UP_HORIZON
        self.run(self._simulate_args(cfg, out))
        shutil.rmtree(out, ignore_errors=True)

    def prepare(self, index: int):
        cfg = copy.deepcopy(self.base_cfg)
        cfg["initial"]["seed"] = draw_seeds(job_rng(self.seed, index), 1)[0]
        return self._simulate_args(cfg, self.job_dir(index))

    @staticmethod
    def _simulate_args(cfg: dict, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        path = out / "scenario.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        return ["simulate", str(path), "--out", str(out / "arc")]

    def run(self, job, pause=_no_pause):
        return _quiet_cli(job)

    def read(self, rc, job):
        out = {"rc": rc}
        if rc != 0:
            return out
        arc_dir = Path(job[-1])
        with open(arc_dir / "arc.csv") as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(arc_dir / "arc.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        col = {name: table[:, k] for k, name in enumerate(header)}
        xy = [name for name in header if name[:2] in ("x_", "y_")]
        out.update(
            t=col["t"], j=col["j"], R=col["R"], is_jump=col["is_jump"],
            xy=table[:, [header.index(n) for n in xy]],
            events=json.loads((arc_dir / "arc_events.json").read_text()),
            summary=json.loads((arc_dir / "arc_summary.json").read_text()),
        )
        return out

    def check(self, out) -> list[Optional[str]]:
        if out["rc"] != 0:
            return [f"etcsim simulate exited {out['rc']}"]
        if out["summary"]["termination"] != Termination.HORIZON.value:
            return [f"termination {out['summary']['termination']}"]
        r, tj = out["R"], out["t"] + out["j"]
        envelope = 1.05 * np.exp(-self.psi * tj) * r[0]
        if not (np.all(np.isfinite(r)) and r[0] > 0.0
                and np.all(r <= envelope)):
            bad = int(np.argmax(~(r <= envelope)))
            return [f"R row {bad} outside 1.05 exp(-psi (t+j)) R0"]
        n_jump_rows = int(out["is_jump"].sum())
        if not len(out["events"]) == n_jump_rows == int(out["j"][-1]):
            return [f"{len(out['events'])} events but {n_jump_rows} jump rows "
                    f"and final j {int(out['j'][-1])}"]
        times = np.array([ev["time"] for ev in out["events"]])
        iets = np.diff(times)
        if iets.size < 100:
            return [f"only {iets.size} inter-event times"]
        floor = self.t_star - 2.0 * self.event_tol
        if float(iets.min()) < floor:
            return [f"inter-event time {float(iets.min())!r} below {floor!r}"]
        norms = np.linalg.norm(out["xy"], axis=1)
        if not norms[-1] <= 1e-6 * norms[0]:
            return [f"final xy norm {float(norms[-1])!r} above 1e-6 of "
                    f"{float(norms[0])!r}"]
        return [None]

    def corruptions(self, out) -> dict:
        def with_(**changes):
            bad = dict(out)
            bad.update(changes)
            return bad

        # One row half again above the certified envelope at its (t, j).
        mid = len(out["R"]) // 2
        r = out["R"].copy()
        tj_mid = out["t"][mid] + out["j"][mid]
        r[mid] = 1.5 * 1.05 * math.exp(-self.psi * tj_mid) * r[0]
        events = copy.deepcopy(out["events"])
        events.pop(len(events) // 2)
        close = copy.deepcopy(out["events"])
        k = len(close) // 2
        close[k]["time"] = close[k - 1]["time"] + 0.5 * self.t_star
        xy = out["xy"].copy()
        xy[-1] = xy[0]
        return {
            "R row inflated": with_(R=r),
            "jump dropped": with_(events=events),
            "inter-event time below t_star": with_(events=close),
            "final state not contracted": with_(xy=xy),
            "simulate exit code 1": with_(rc=1),
        }


# ---------------------------------------------------------------------------
# certify: the full certificate chain with sampled checks
# ---------------------------------------------------------------------------


class Certify(Workload):
    name = "certify"

    def setup(self) -> None:
        self.data = demo.demo_lyapunov_data()
        self.spec = demo.demo_plant(DEADZONE_EPSILON).as_plant_spec()

    def warm_up(self) -> None:
        self.run(([0], 0, WARM_UP_SAMPLES, WARM_UP_SAMPLES))

    def prepare(self, index: int):
        *slope_seeds, validate_seed = draw_seeds(job_rng(self.seed, index),
                                                 SLOPE_CHUNKS + 1)
        return (slope_seeds, validate_seed, SLOPE_SAMPLES // SLOPE_CHUNKS,
                VALIDATE_SAMPLES)

    def run(self, job, pause=_no_pause):
        slope_seeds, validate_seed, chunk_samples, validate_samples = job
        cert = certificates.LyapunovCertificate.derive(self.data)
        consts = cert.constants
        practical = certificates.select_analysis_parameters(
            consts, demo.SIGMA_PRACTICAL, mode="practical")
        eps_practical = certificates.epsilon_star_search(
            consts, demo.SIGMA_PRACTICAL, practical.mu, "practical")
        dwell_bound = certificates.max_dwell_time(
            consts.m_err, consts.n_err, consts.gamma1_bar, consts.alpha1)
        dwell = certificates.select_analysis_parameters(
            consts, demo.SIGMA_DWELL, t_star=demo.T_STAR_FRACTION * dwell_bound,
            mode="dwell")
        eps_dwell = certificates.epsilon_star_search(
            consts, demo.SIGMA_DWELL, dwell.mu, "dwell", d=dwell.d_weight,
            dwell_ode=dwell.dwell_ode)
        xi = 0.0
        for slope_seed in slope_seeds:
            pause()
            xi = max(xi, certificates.trigger_slope_bound(
                self.spec, self.data, consts, theta=practical.theta,
                rho=DEADZONE_RHOS[0], delta=DEADZONE_DELTA,
                n_samples=chunk_samples, seed=slope_seed))
        pause()
        report = certificates.validate_assumptions(
            self.spec, self.data, consts, n_samples=validate_samples,
            box=10.0, seed=validate_seed)
        return {"eps_practical": eps_practical, "eps_dwell": eps_dwell,
                "t_star": dwell.t_star, "dwell_bound": dwell_bound,
                "xi": xi, "report": report}

    def check(self, out) -> list[Optional[str]]:
        report = out["report"]
        names = [f.name for f in report.families]
        if sorted(names) != sorted(certificates.FAMILY_NAMES):
            return [f"assumption families {names}"]
        failed = [f.name for f in report.families if not f.passed]
        if failed:
            return [f"assumption families fail: {failed}"]
        if report.n_samples != VALIDATE_SAMPLES:
            return [f"validated {report.n_samples} samples"]
        if not (math.isfinite(out["xi"]) and out["xi"] > 0.0):
            return [f"slope bound {out['xi']!r}"]
        if not DEADZONE_EPSILON <= out["eps_practical"]:
            return [f"practical epsilon_star {out['eps_practical']!r} "
                    f"below {DEADZONE_EPSILON}"]
        if not (0.0 < out["eps_dwell"] and math.isfinite(out["eps_dwell"])):
            return [f"dwell epsilon_star {out['eps_dwell']!r}"]
        if not 0.0 < out["t_star"] < out["dwell_bound"]:
            return [f"t_star {out['t_star']!r} outside (0, dwell bound)"]
        return [None]

    def corruptions(self, out) -> dict:
        report = out["report"]
        families = list(report.families)
        broken = replace(families[0], worst_slack=-1.0)
        return {
            "assumption family fails": dict(out, report=replace(
                report, families=(broken, *families[1:]))),
            "assumption family dropped": dict(out, report=replace(
                report, families=tuple(families[1:]))),
            "slope bound not finite": dict(out, xi=math.nan),
            "dwell epsilon zero": dict(out, eps_dwell=0.0),
        }


# ---------------------------------------------------------------------------
# nonlinear_mc: integrate_arc on a generic PlantSpec from seeded starts
# ---------------------------------------------------------------------------


def nonlinear_plant() -> PlantSpec:
    """Cubic-damped slow state driven through a first-order actuator."""
    return PlantSpec(
        n_x=1, n_z=1, n_u=1,
        f=lambda x, z, u: np.array([-x[0] ** 3 - x[0] + z[0]]),
        g=lambda x, z, u: u - z,
        h=lambda x, u: np.array([u[0]]),
        dh_dx=lambda x, u: np.zeros((1, 1)),
        k=lambda xs: np.array([-0.5 * xs[0]]),
        epsilon=0.02,
    )


class NonlinearMC(Workload):
    name = "nonlinear_mc"
    ops_per_job = 2          # one dead-zone arc and one dwell-clock arc

    def setup(self) -> None:
        self.plant = nonlinear_plant()
        data = certificates.QuadraticLyapunovData(
            p1=np.eye(1), p2=np.eye(1), alpha1_bar=1.0, alpha2=1.9,
            l_bar=1.5)
        self.cert = certificates.LyapunovCertificate.derive(data)
        dz, dw = NONLINEAR_DEADZONE, NONLINEAR_DWELL
        self.legs = (
            (TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=dz["sigma"],
                           rho=dz["rho"]),
             simulate.SolverConfig(horizon=dz["horizon"])),
            (TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED,
                           sigma=dw["sigma"], t_star=dw["t_star"]),
             simulate.SolverConfig(horizon=dw["horizon"])),
        )

    def warm_up(self) -> None:
        short = tuple((policy, replace(solver, horizon=WARM_UP_HORIZON))
                      for policy, solver in self.legs)
        self._integrate(short, self.prepare(0))

    def _integrate(self, legs, starts, pause=_no_pause):
        arcs = []
        for k, ((policy, solver), q0) in enumerate(zip(legs, starts)):
            if k:
                pause()
            try:
                arcs.append(simulate.integrate_arc(self.plant, policy, q0,
                                                   solver, cert=self.cert))
            except Exception as exc:  # one failed arc must not hide the other
                arcs.append(exc)
        return arcs

    def prepare(self, index: int):
        xy = sample_in_ball(job_rng(self.seed, index), 2, NONLINEAR_RADIUS)
        return [HybridState(x=xy[:1], y=xy[1:], e=np.zeros(1),
                            tau=0.0 if policy.requires_clock else None)
                for policy, _ in self.legs]

    def run(self, job, pause=_no_pause):
        return self._integrate(self.legs, job, pause)

    def check(self, out) -> list[Optional[str]]:
        return [self._check_arc(arc, policy, solver)
                for arc, (policy, solver) in zip(out, self.legs)]

    def _check_arc(self, arc, policy, solver) -> Optional[str]:
        if isinstance(arc, Exception):
            return f"raised {type(arc).__name__}: {arc}"
        if arc.termination is not Termination.HORIZON:
            return f"termination {arc.termination}"
        try:
            arc.check_ordering()
        except Exception as exc:
            return f"ordering: {exc}"
        if arc.jump_count != int(arc.is_jump.sum()):
            return f"{arc.jump_count} events but {int(arc.is_jump.sum())} jump rows"
        spec = self.plant
        for ev in arc.events:
            pre, post = ev.pre_state, ev.post_state
            expected = apply_jump(pre, spec)
            if not (np.array_equal(post.x, expected.x)
                    and np.array_equal(post.y, expected.y)
                    and np.array_equal(post.e, expected.e)):
                return f"jump at t={ev.t!r} differs from the jump map"
            z_pre = pre.y + spec.h(pre.x, spec.k(pre.x + pre.e))
            z_post = post.y + spec.h(post.x, spec.k(post.x))
            if not np.allclose(z_pre, z_post, rtol=0, atol=Z_CONTINUITY_TOL):
                return f"z jumps at t={ev.t!r}"
        if policy.kind is PolicyKind.TIME_REGULARIZED:
            iets = np.diff(arc.jump_times())
            floor = policy.t_star - 2.0 * solver.event_tol
            if iets.size and float(iets.min()) < floor:
                return f"inter-event time {float(iets.min())!r} below {floor!r}"
        return None

    def corruptions(self, out) -> dict:
        def corrupt(k, fn):
            bad = list(out)
            bad[k] = copy.deepcopy(out[k])
            fn(bad[k])
            return bad

        def swap_times(arc):
            arc._t[1], arc._t[2] = arc._t[2], arc._t[1]

        def nudge_jump(arc):
            ev = arc.events[0]
            post = replace(ev.post_state, y=ev.post_state.y + 1e-6)
            arc.events[0] = replace(ev, post_state=post)

        def drop_jump(arc):
            arc.events.pop()

        def close_jumps(arc):
            ev = arc.events[1]
            arc.events[1] = replace(
                ev, t=arc.events[0].t + 0.5 * NONLINEAR_DWELL["t_star"])

        return {
            "samples out of order": corrupt(0, swap_times),
            "jump map not exact": corrupt(0, nudge_jump),
            "jump dropped": corrupt(0, drop_jump),
            "dwell floor violated": corrupt(1, close_jumps),
            "arc raised": [RuntimeError("injected"), out[1]],
        }


WORKLOADS = {cls.name: cls for cls in (DeadzoneSweep, DwellRun, Certify,
                                       NonlinearMC)}
