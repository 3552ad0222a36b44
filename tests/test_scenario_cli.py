import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import etcsim
from etcsim.cli import main
from etcsim.demo import demo_certification, demo_lyapunov_data, demo_plant
from etcsim.errors import ConfigurationError
from etcsim.scenario import (
    build_initial_state,
    load_scenario,
    sample_in_ball,
)
from etcsim.triggers import PolicyKind, TriggerPolicy

TIME_REGULARIZED = {"policy": "time_regularized", "sigma": 0.15, "t_star": 0.5}


def scenario_dict(policy=None, initial=None):
    return {
        "plant": demo_plant(0.02).to_dict(),
        "policy": policy or {"policy": "deadzone", "sigma": 0.3, "rho": 0.02},
        "solver": {"horizon": 5.0},
        "initial": initial or {"x": [1.0, -0.5], "y": [0.4]},
        "lyapunov": demo_lyapunov_data().to_dict(),
    }


class TestScenarioLoading:
    def test_full_round_trip(self):
        sc = load_scenario(scenario_dict())
        assert sc.policy.kind is PolicyKind.DEADZONE
        assert sc.solver.horizon == 5.0
        assert sc.cert is not None
        q0 = sc.initial_state()
        assert np.array_equal(q0.x, [1.0, -0.5])
        assert q0.tau is None

    def test_missing_section(self):
        cfg = scenario_dict()
        del cfg["policy"]
        with pytest.raises(ConfigurationError):
            load_scenario(cfg)

    def test_ball_initial_state_deterministic(self):
        plant = demo_plant(0.02)
        policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.3, rho=0.02)
        a = build_initial_state({"ball_radius": 1.0, "seed": 5}, plant,
                                policy, seed=0)
        b = build_initial_state({"ball_radius": 1.0, "seed": 5}, plant,
                                policy, seed=99)
        assert np.array_equal(a.as_vector(), b.as_vector())
        assert np.linalg.norm(np.concatenate([a.x, a.y])) <= 1.0
        assert np.array_equal(a.e, np.zeros(2))

    def test_ball_sampler_within_radius(self, rng):
        for _ in range(100):
            v = sample_in_ball(rng, 3, 2.5)
            assert np.linalg.norm(v) <= 2.5 + 1e-12

    def test_clock_added_for_time_regularized(self):
        cfg = scenario_dict(policy={"policy": "time_regularized",
                                    "sigma": 0.15, "t_star": 0.5})
        sc = load_scenario(cfg)
        assert sc.initial_state().tau == 0.0

    def test_readme_example_loads(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = re.search(r"### Scenario files\s+```json\n(.*?)```", readme,
                          re.S).group(1)
        sc = load_scenario(json.loads(block))
        assert sc.policy.kind is PolicyKind.DEADZONE
        assert sc.solver.horizon == 40.0
        assert sc.initial_state().x.tolist() == [1.0, -0.5]

    def test_initial_tau_needs_a_clocked_policy(self):
        plant = demo_plant(0.02)
        deadzone = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.3, rho=0.02)
        dwell = TriggerPolicy.from_dict(TIME_REGULARIZED)
        initial = {"x": [1.0, -0.5], "y": [0.4], "tau": 0.25}
        assert build_initial_state(initial, plant, dwell, seed=0).tau == 0.25
        with pytest.raises(ConfigurationError, match=r"initial has unknown fields: \['tau'\]"):
            build_initial_state(initial, plant, deadzone, seed=0)

    @pytest.mark.parametrize("initial, named", [
        ({"ball_radius": 1.0, "x": [1.0, -0.5]}, "['x']"),
        ({"x": [1.0, -0.5], "y": [0.4], "seed": 3}, "['seed']"),
        ({"ball_radius": 1.0, "seed": 2.0}, "'seed'"),
        ({"ball_radius": 1.0, "seed": -1}, "seed -1"),
        ({"x": [1.0, -0.5]}, "missing fields: ['y']"),
    ])
    def test_initial_is_one_form_with_typed_keys(self, initial, named):
        policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.3, rho=0.02)
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            build_initial_state(initial, demo_plant(0.02), policy, seed=0)

    def test_analysis_sigma_has_no_fallback_under_a_periodic_policy(self):
        cfg = scenario_dict(policy={"policy": "periodic", "period": 0.3})
        cfg["analysis"] = {"mode": "practical"}
        with pytest.raises(ConfigurationError,
                           match=r"analysis is missing fields: \['sigma'\]"):
            load_scenario(cfg)
        cfg["analysis"]["sigma"] = 0.3
        assert load_scenario(cfg).params.sigma == 0.3

    def test_practical_analysis_ignores_the_policys_t_star(self):
        cfg = scenario_dict(policy=TIME_REGULARIZED)
        cfg["analysis"] = {"mode": "practical"}
        assert load_scenario(cfg).params.mode == "practical"

    def test_analysis_section_builds_params(self):
        cfg = scenario_dict(policy={"policy": "time_regularized",
                                    "sigma": 0.15, "t_star": 0.5})
        cfg["analysis"] = {"mode": "dwell", "sigma": 0.15, "t_star": 0.5}
        sc = load_scenario(cfg)
        assert sc.params is not None
        assert sc.params.t_star == 0.5
        assert sc.params.epsilon_star is not None


class TestCli:
    def test_simulate_writes_outputs(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario_dict()))
        out = tmp_path / "out"
        code = main(["simulate", str(scenario_path), "--out", str(out)])
        assert code == 0
        assert (out / "arc.csv").exists()
        assert (out / "arc_events.json").exists()
        summary = json.loads((out / "arc_summary.json").read_text())
        assert summary["termination"] == "horizon-reached"
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

    def test_certify_report(self, tmp_path, capsys):
        lyap = demo_lyapunov_data().to_dict()
        lyap.update({"sigma": 0.3, "mode": "practical"})
        path = tmp_path / "lyap.json"
        path.write_text(json.dumps(lyap))
        code = main(["certify", str(path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["mode"] == "practical"
        assert report["parameters"]["epsilon_star"] > 0.0
        assert report["constants"]["alpha1"] == pytest.approx(0.999)
        assert report["feasible_t_star_range"][1] == report["dwell_bound"]

    def test_certify_dwell_report(self, tmp_path, capsys):
        lyap = demo_lyapunov_data().to_dict()
        lyap.update({"sigma": 0.15, "mode": "dwell", "t_star": 0.5})
        path = tmp_path / "lyap.json"
        path.write_text(json.dumps(lyap))
        assert main(["certify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["psi"] > 0.0
        assert report["parameters"]["t_star"] == 0.5

    def test_sweep_outputs(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario_dict()))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"epsilon": [0.02, 0.01]}))
        out = tmp_path / "out"
        code = main(["sweep", str(scenario_path), "--grid", str(grid_path),
                     "--out", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"cells": 2, "errors": 0}

    def test_sweep_json_writes_non_finite_grid_value_as_null(self, tmp_path,
                                                             capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario_dict()))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text('{"epsilon": [NaN, 0.02]}')
        out = tmp_path / "out"
        assert main(["sweep", str(scenario_path), "--grid", str(grid_path),
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out) == {"cells": 2, "errors": 1}

        def reject(name):
            raise ValueError(f"sweep.json holds the bare constant {name}")

        result = json.loads((out / "sweep.json").read_text(),
                            parse_constant=reject)
        assert result["axes"] == {"epsilon": [None, 0.02]}
        assert [c["point"] for c in result["cells"]] == [{"epsilon": None},
                                                         {"epsilon": 0.02}]
        assert "ConfigurationError" in result["cells"][0]["error"]

    def test_demo_zeno(self, tmp_path, capsys):
        out = tmp_path / "zeno"
        assert main(["demo", "zeno", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["termination"] == "zeno-guard"
        assert summary["jump_count"] >= 1000

    def test_error_json_on_missing_file(self, capsys):
        code = main(["simulate", "/nonexistent/scenario.json", "--out", "/tmp/x"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "FileNotFoundError"

    def test_error_json_on_bad_policy(self, tmp_path, capsys):
        cfg = scenario_dict(policy={"policy": "deadzone", "sigma": 0.3,
                                    "rho": -1.0})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code = main(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigurationError"

    @pytest.mark.parametrize("section, key, value, named", [
        ("policy", "policy", "deadzon", "deadzon"),
        ("analysis", "tstar", 0.5, "tstar"),
    ])
    def test_error_json_on_unknown_kind_or_analysis_field(
            self, tmp_path, capsys, section, key, value, named):
        cfg = scenario_dict(policy={"policy": "time_regularized",
                                    "sigma": 0.15, "t_star": 0.5})
        cfg["analysis"] = {"mode": "dwell", "sigma": 0.15}
        cfg[section][key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code = main(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigurationError"
        assert named in payload["message"]

    @pytest.mark.parametrize("command, document", [
        ("certify", {**demo_lyapunov_data().to_dict(),
                     "sigma": 0.15, "mode": "practical", "t_star": 0.5}),
        ("simulate", {**scenario_dict(policy=TIME_REGULARIZED),
                      "analysis": {"mode": "practical", "sigma": 0.15, "t_star": 0.5}}),
    ], ids=["certify_file", "scenario_analysis"])
    def test_error_json_on_t_star_under_practical_analysis(self, tmp_path, capsys,
                                                           command, document):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "ConfigurationError",
                           "message": "practical analysis does not take t_star, got 0.5"}

    def test_error_json_on_missing_lyapunov_field(self, tmp_path, capsys):
        lyap = demo_lyapunov_data().to_dict()
        del lyap["p2"]
        lyap.update({"sigma": 0.3, "mode": "practical"})
        path = tmp_path / "lyap.json"
        path.write_text(json.dumps(lyap))
        assert main(["certify", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "ConfigurationError",
                           "message": "Lyapunov data is missing fields: ['p2']"}

    @pytest.mark.parametrize("l_bar", [1e300, 1e154])  # lbar**2 raises; a gain reaches inf
    def test_error_json_on_overflowing_l_bar(self, tmp_path, capsys, l_bar):
        path = tmp_path / "lyap.json"
        path.write_text(json.dumps(_lyapunov_file(l_bar=l_bar)))
        assert main(["certify", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "CertificateError"
        assert "l_bar" in payload["message"]

    def test_error_json_on_overflowing_epsilon_star_search(self, tmp_path, capsys):
        # derive_constants takes l_bar 1e100, whose beta2 (about 1e200) squares
        # past the float range; the exact minor test squares it in integers
        path = tmp_path / "lyap.json"
        path.write_text(json.dumps(_lyapunov_file(l_bar=1e100)))
        assert main(["certify", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "CertificateInfeasibleError", "message": "no eps above "
                           "1.0e-12 passes the certificate inequalities"}

    def test_dwell_certify_on_data_a_float_test_disputed_is_quiet(self, tmp_path, capsys):
        # at w = 1e4 and eps = 1e-3 a float eigenvalue test passed this flow
        # form while its exact 2x2 leading minor is negative: one exact test
        # decides, with no second opinion to report
        path = tmp_path / "lyap.json"
        path.write_text(json.dumps({
            "p1": [[1, 0], [0, 1.4707842673613751]], "p2": [[1.3461546895181316]],
            "alpha1_bar": 0.37646311209275, "alpha2": 0.6355648465488226,
            "l_bar": 1.4071239464485346, "sigma": 0.3, "mode": "dwell",
            "t_star": 0.0576252634122167}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["certify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == "CertificateInfeasibleError"
        assert (err, caught) == ("", [])

    def test_error_json_on_unknown_solver_field(self, tmp_path, capsys):
        cfg = scenario_dict()
        cfg["solver"]["force_python"] = True
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code = main(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigurationError"
        assert "force_python" in payload["message"]


def _lyapunov_file(**extra):
    return {**demo_lyapunov_data().to_dict(), "sigma": 0.3, **extra}


def _scenario(section=None, **values):
    cfg = scenario_dict()
    if section is None:
        cfg.update(values)
    else:
        cfg[section].update(values)
    return cfg


def _initial(**initial):
    return scenario_dict(initial=initial)


# Each row: command, input file, section and key the error must name. Before
# the section reader and the number rule every row exited 0 or failed untyped;
# the non-finite matrix rows failed as a DivergenceError at the first flow.
BAD_INPUTS = {
    "certify-misspelled-sigma": ("certify", _lyapunov_file(sigm=0.15),
                                 "lyapunov data", "sigm"),
    "solver-string-horizon": ("simulate", _scenario("solver", horizon="5"),
                              "solver", "horizon"),
    "initial-tau-clockless": ("simulate", _scenario("initial", tau=3.0),
                              "initial", "tau"),
    "unknown-top-level-section": ("simulate", _scenario(analysys={"mode": "dwell"}),
                                  "scenario", "analysys"),
    "unknown-initial-key": ("simulate", _scenario("initial", ee=[0.0, 0.0]),
                            "initial", "ee"),
    "unknown-plant-key": ("simulate", _scenario("plant", a13=[[0.0]]),
                          "plant", "a13"),
    "unknown-lyapunov-key": ("simulate", _scenario("lyapunov", p3=[[1.0]]),
                             "lyapunov", "p3"),
    "fractional-store-stride": ("simulate", _scenario("solver", store_stride=2.5),
                                "solver", "store_stride"),
    "string-ball-radius": ("simulate", _initial(ball_radius="1"),
                           "initial", "ball_radius"),
    "x-with-ball-radius": ("simulate", _initial(ball_radius=1.0, x=[1.0, -0.5]),
                           "initial", "x"),
    "grid-axis-not-a-list": ("sweep", {"rho": 0.01}, "sweep grid", "rho"),
    "string-x": ("simulate", _initial(x="1.0, -0.5", y=[0.4]), "initial", "x"),
    "nan-event-tol": ("simulate", _scenario("solver", event_tol=math.nan),
                      "solver", "event_tol"),
    "negative-fast-floor": ("simulate", _scenario("solver", fast_floor=-1.0),
                            "solver", "fast_floor"),
    "nan-zeno-window": ("simulate", _scenario("solver", zeno_window=math.nan),
                        "solver", "zeno_window"),
    "nan-ball-radius": ("simulate", _initial(ball_radius=math.nan), "initial", "ball_radius"),
    "nan-a11": ("simulate", _scenario("plant", a11=[[math.nan, 0.0], [0.0, -0.6]]),
                "plant", "a11"),
    "inf-k-gain": ("simulate", _scenario("plant", k_gain=[[0.0, -math.inf]]),
                   "plant", "k_gain"),
}


@pytest.mark.parametrize("command, cfg, section, key", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_input_is_a_typed_error_naming_section_and_key(
        tmp_path, capsys, command, cfg, section, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(cfg))
    if command == "sweep":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_dict()))
        argv = ["sweep", str(scenario), "--grid", str(path)]
    else:
        argv = [command, str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigurationError"
    assert section in payload["message"].lower()
    assert repr(key) in payload["message"]


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import blocked, the
    # package imports, certifies the demo and runs `etcsim certify` in dwell
    # mode, and loads no scipy module
    path = tmp_path / "lyapunov.json"
    path.write_text(json.dumps(_lyapunov_file(
        sigma=0.15, mode="dwell", t_star=demo_certification().dwell.t_star)))
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import etcsim.cli
        from etcsim import demo
        demo.demo_certification()
        assert etcsim.cli.main(["certify", {str(path)!r}]) == 0
        loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
        assert loaded == ["scipy"] and sys.modules["scipy"] is None, loaded
        """)
    src = str(Path(etcsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["parameters"]["mode"] == "dwell"
