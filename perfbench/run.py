#!/usr/bin/env python3
"""etcsim benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload deadzone_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes
    python3 perfbench/run.py --workload all --self-test

One run sets up the workload from --seed, then runs jobs one after another
(a closed loop, one process) until --seconds have passed, and checks every
output. With --trace 0 it reports the end-to-end metrics; with --trace 1
it also runs job 0 once more with spans recorded at the layer boundaries
and reports the per-layer metrics. The end-to-end times are scaled by a
host probe timed between jobs (hostspeed.py), so that they read in seconds
at the host's usual speed. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. A record with the run's
provenance, raw times and probe times is written under perfbench/out/.

The package is imported from src/ of the checkout; without it the run
exits with code 2 and prints no result.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("deadzone_sweep", "dwell_run", "certify", "nonlinear_mc")
SETUP_REPEATS = 3
DEFAULT_SEED = 1


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that each output check catches corrupted output")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once in this process and print its set-up "
                        "time (used for the cold set-up repeats)")
    return p.parse_args(argv)


def default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def import_package():
    src = ROOT / "src"
    if not (src / "etcsim" / "__init__.py").is_file():
        print(f"etcsim sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import etcsim  # noqa: F401
    import hostspeed
    import spans
    import workloads

    if Path(etcsim.__file__).resolve().parent != (src / "etcsim").resolve():
        print(f"imported etcsim from {etcsim.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return hostspeed, spans, workloads


def provenance(seed: int, backends: set) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "host": platform.node(),
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": ",".join(sorted(backends)) or "none (no arcs)",
        "seed": seed,
    }


def cold_setup(spans, workloads, name: str, seed: int, workdir: Path,
               tracer=None):
    """Set up in this process: the workload, its counter, and its warm-up.

    Returns the workload, its installed arc counter and the set-up time:
    the seconds from the start of this process's first line to the moment
    the first timed job can start. Only the set-up proper is traced; the
    warm-up is not.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    counter = spans.ArcCounter()
    counter.install()
    with tracer or contextlib.nullcontext():
        wl.setup()
    wl.warm_up()
    return wl, counter, time.perf_counter() - _T_START


def child_setup(hostspeed, name: str, seed: int) -> tuple:
    """Set-up time of a cold set-up in a fresh process, and the host speed
    around it: the mean of a probe timed here right before the process
    starts and one timed in it right after its set-up."""
    before = hostspeed.probe()
    cmd = [sys.executable, str(Path(__file__)), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"cold set-up of {name} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(result["setup_s"]), 0.5 * (before + float(result["probe_s"]))


def run_job(hostspeed, wl, counter, index: int, probes: list,
            tracer=None) -> dict:
    """Run job `index` and check its outputs. Only wl.run is timed, and
    only wl.run is traced.

    A workload whose job has several phases pauses between them; each pause
    times a host probe, appends it to `probes`, and is not part of the job's
    time.
    """
    job = wl.prepare(index)
    counter.reset()
    paused_wall = paused_cpu = 0.0

    def pause():
        nonlocal paused_wall, paused_cpu
        w0, c0 = time.perf_counter(), time.process_time()
        probes.append(hostspeed.probe())
        paused_wall += time.perf_counter() - w0
        paused_cpu += time.process_time() - c0

    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            raw = wl.run(job, pause)
        error = None
    except Exception as exc:  # a failing job is counted, not fatal
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0 - paused_wall
    cpu = time.process_time() - c0 - paused_cpu
    if error is None:
        try:
            reasons = wl.check(wl.read(raw, job))
        except Exception as exc:
            reasons = ([f"output unreadable: {type(exc).__name__}: {exc}"]
                       * wl.ops_per_job)
    else:
        reasons = [error] * wl.ops_per_job
    wl.cleanup(index)
    return {"wall": wall, "cpu": cpu, "reasons": reasons,
            "arcs": counter.arcs, "samples": counter.samples,
            "jumps": counter.jumps, "backends": set(counter.backends)}


def measure(hostspeed, spans, workloads, name: str, seed: int,
            seconds: float, trace: bool) -> int:
    workdir = OUT / f"{name}_s{seed}_t{int(trace)}"
    tracer = spans.Tracer() if trace else None
    wl, counter, _ = cold_setup(spans, workloads, name, seed, workdir, tracer)
    # setup_s comes from cold set-ups in fresh processes, one at a time,
    # before any job runs, each with the host speed around it.
    setups = [] if trace else [child_setup(hostspeed, name, seed)
                               for _ in range(SETUP_REPEATS)]

    # A host probe before the first job, after every job and between the
    # phases of a job: their mean is the host's speed over the run.
    probes = [hostspeed.probe()]
    jobs = []
    t_loop = time.perf_counter()
    while not jobs or time.perf_counter() - t_loop < seconds:
        jobs.append(run_job(hostspeed, wl, counter, len(jobs), probes))
        probes.append(hostspeed.probe())

    traced = None
    if tracer:
        first_job_span = len(tracer.start)
        traced = run_job(hostspeed, wl, counter, 0, probes, tracer)
        probes.append(hostspeed.probe())
        jobs_checked = jobs + [traced]
    else:
        jobs_checked = jobs
    counter.uninstall()

    reasons = [r for j in jobs_checked for r in j["reasons"]]
    attempted = len(reasons)
    failures = [r for r in reasons if r is not None]
    walls = [j["wall"] for j in jobs]
    probe_s = statistics.fmean(probes)
    wall_s = hostspeed.scaled(statistics.fmean(walls), probe_s)
    backends = set().union(*(j["backends"] for j in jobs_checked))

    if tracer:
        metrics, absent = spans.layer_metrics(tracer, traced["samples"],
                                              traced["jumps"])
        metrics["cpu_s"] = {"value": statistics.median(j["cpu"] for j in jobs),
                            "unit": "s"}
        metrics["tracing_overhead_s"] = {
            "value": hostspeed.scaled(traced["wall"], probe_s) - wall_s,
            "unit": "s"}
        tracer.write_csv(OUT / f"spans_{name}_s{seed}.csv")
        job_self = tracer.totals(since=first_job_span)["self_s"]
        top_spans = sorted(job_self.items(), key=lambda kv: -kv[1])[:6]
    else:
        absent, top_spans = [], []
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": hostspeed.scaled(
                statistics.fmean(s for s, _ in setups),
                statistics.fmean(p for _, p in setups)), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }

    record = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(seed, backends),
        "work": {
            "jobs": len(jobs),
            "ops_per_job": wl.ops_per_job,
            "arcs": sum(j["arcs"] for j in jobs),
            "arc.samples": sum(j["samples"] for j in jobs),
            "arc.jumps": sum(j["jumps"] for j in jobs),
        },
        "probe_nominal_s": hostspeed.NOMINAL_S,
        "setup_raw_s": [s for s, _ in setups],
        "setup_probe_s": [p for _, p in setups],
        "job_wall_raw_s": walls,
        "probe_s": probes,
        "wall_raw_s": statistics.median(walls),
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "absent_metrics": absent,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record_{name}_s{seed}_t{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"jobs {len(jobs)}  ops {attempted}")
    print("provenance " + json.dumps(record["provenance"]))
    print("work " + json.dumps(record["work"]))
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall_raw_s (median unscaled job)':48s} "
          f"{record['wall_raw_s']:.6g} s; host probe mean {probe_s:.4g} s "
          f"(nominal {hostspeed.NOMINAL_S:g} s)")
    print(f"  {'error_rate':48s} {record['error_rate']:.6g} "
          f"({len(failures)}/{attempted})")
    if top_spans:
        print("  traced job, self time by span: " + ", ".join(
            f"{span} {sec:.3g} s" for span, sec in top_spans))
    for name_absent in absent:
        print(f"  {name_absent:48s} absent (target no longer exists)")
    for reason in failures[:5]:
        print(f"  FAILED: {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def self_test(workloads, name: str, seed: int) -> bool:
    """Check one genuine job, then corrupted copies of its output."""
    workdir = OUT / f"selftest_{name}_s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    job = wl.prepare(0)
    out = wl.read(wl.run(job), job)
    genuine = wl.check(out)
    base = sum(r is not None for r in genuine) / len(genuine)
    ok = base == 0.0
    print(f"{name}: genuine output error_rate {base:g}"
          + ("" if ok else f"  FAILED: {[r for r in genuine if r]}"))
    for label, bad in wl.corruptions(out).items():
        reasons = wl.check(bad)
        rate = sum(r is not None for r in reasons) / wl.ops_per_job
        bites = rate > base
        ok = ok and bites
        first = next((r for r in reasons if r is not None), "")
        print(f"  {label:34s} error_rate {rate:.3g}  "
              f"{'caught' if bites else 'NOT CAUGHT'}  {first[:70]}")
    wl.cleanup(0)
    shutil.rmtree(workdir, ignore_errors=True)
    return ok


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                rows.append((name, trace, None))
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rows.append((name, trace, result))
    print("\nsummary (seed %d, %g s per run)" % (seed, seconds))
    for name, trace, result in rows:
        if result is None:
            print(f"  {name:15s} trace {trace}: run failed")
            continue
        rate = result["failed"] / result["attempted"]
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                          for k, m in result["metrics"].items()
                          if trace == 0 or k in ("plant.flow.s", "arc.jumps",
                                                 "simulate.integrate_arc.calls",
                                                 "tracing_overhead_s"))
        print(f"  {name:15s} trace {trace}: error_rate {rate:g} "
              f"({result['failed']}/{result['attempted']}); {shown}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    hostspeed, spans, workloads = import_package()
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if args.setup_only:
        if args.workload == "all":
            raise SystemExit("--setup-only needs one workload")
        workdir = OUT / f"{args.workload}_s{args.seed}_setup"
        wl, counter, setup_s = cold_setup(spans, workloads, args.workload,
                                          args.seed, workdir)
        counter.uninstall()
        probe_s = hostspeed.probe()
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
        return 0
    if args.self_test:
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = [self_test(workloads, n, args.seed) for n in names]
        return 0 if all(results) else 1
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return measure(hostspeed, spans, workloads, args.workload, args.seed,
                   seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
