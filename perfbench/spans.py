"""In-memory span tracing around etcsim's layer boundaries, from outside.

Each target is an attribute that the calling layer looks up at call time:
a module global (``etcsim.simulate.closed_loop_flow_vector`` is resolved by
the integrator on every call), a name another module imported (``sweep`` in
``etcsim.cli``), or a class attribute (``_PolicyEval.margin``). While a
tracer is installed, each target is replaced by a wrapper that records one
span per call: its name, its parent span, and its start and end times. No
file of the package is edited, and uninstalling restores every original.

Spans are kept in flat arrays and written out once, at the end of a run.
A target that no longer exists is listed as missing, and every metric
that depends on it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array

# (span name, module, attribute path). A name may have several targets:
# the same layer function reached through each module that imports it.
TARGETS = (
    ("plant.flow", "etcsim.simulate", "closed_loop_flow_vector"),
    ("plant.jump", "etcsim.simulate", "apply_jump"),
    ("triggers.margin", "etcsim.simulate", "_PolicyEval.margin"),
    ("simulate.locate_event", "etcsim.simulate", "locate_event"),
    ("simulate.integrate_arc", "etcsim.simulate", "integrate_arc"),
    ("simulate.integrate_arc", "etcsim.analysis", "integrate_arc"),
    ("simulate.integrate_arc", "etcsim.cli", "integrate_arc"),
    ("hybrid.state_new", "etcsim.hybrid", "HybridState.__post_init__"),
    ("hybrid.append", "etcsim.hybrid", "HybridArc.append_flow_sample"),
    ("hybrid.append", "etcsim.hybrid", "HybridArc.append_jump"),
    ("hybrid.to_csv", "etcsim.hybrid", "HybridArc.to_csv"),
    ("analysis.summarize_arc", "etcsim.analysis", "summarize_arc"),
    ("analysis.summarize_arc", "etcsim.cli", "summarize_arc"),
    ("analysis.sweep", "etcsim.cli", "sweep"),
    ("scenario.load", "etcsim.scenario", "load_scenario"),
    ("cli.write_arc", "etcsim.cli", "_write_arc"),
    ("cli.write_sweep", "etcsim.analysis", "SweepResult.to_csv"),
    ("certificates.derive", "etcsim.certificates", "LyapunovCertificate.derive"),
    ("certificates.select_analysis_parameters", "etcsim.certificates",
     "select_analysis_parameters"),
    ("certificates.select_analysis_parameters", "etcsim.scenario",
     "select_analysis_parameters"),
    ("certificates.select_analysis_parameters", "etcsim.cli",
     "select_analysis_parameters"),
    ("certificates.epsilon_star_search", "etcsim.certificates",
     "epsilon_star_search"),
    ("certificates.epsilon_star_search", "etcsim.scenario",
     "epsilon_star_search"),
    ("certificates.epsilon_star_search", "etcsim.cli", "epsilon_star_search"),
    ("certificates.trigger_slope_bound", "etcsim.certificates",
     "trigger_slope_bound"),
    ("certificates.validate_assumptions", "etcsim.certificates",
     "validate_assumptions"),
)

# Spans whose sampled work is counted, by the argument holding the count.
_SAMPLE_ARGS = {
    "certificates.trigger_slope_bound": "n_samples",
    "certificates.validate_assumptions": "n_samples",
}

_CHAIN = ("certificates.derive", "certificates.select_analysis_parameters",
          "certificates.epsilon_star_search")


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """Span recorder. Install around the traced phase, uninstall after it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.samples: dict[str, int] = {}      # span name -> sampled points
        self.bytes_written: dict[str, int] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        stack = self._stack
        clock = time.perf_counter_ns
        sample_arg = _SAMPLE_ARGS.get(name)
        signature = inspect.signature(fn) if sample_arg else None
        writes_file = name == "hybrid.to_csv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.samples[name] = (self.samples.get(name, 0)
                                          + int(bound.arguments[sample_arg]))
                if writes_file:
                    path = args[1] if len(args) > 1 else kwargs["path"]
                    self.bytes_written[name] = (
                        self.bytes_written.get(name, 0) + os.path.getsize(path))

        return wrapper

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    def write_csv(self, path) -> None:
        """One row per span: id, parent id, name, start and end in ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{names[self.name_id[i]]},"
                         f"{self.start[i]},{self.end[i]}\n")

    def totals(self, since: int = 0) -> dict:
        """Per span name: call count, seconds inside, and self seconds
        (inside minus the direct child spans), over spans from `since` on.

        Also counts margin evaluations made inside event localization and
        the certificate-chain spans that are not nested in one another.
        """
        n = len(self.start)
        names = self.names
        calls = [0] * len(names)
        inside = [0] * len(names)
        child_ns = [0] * n
        for i in range(since, n):
            dur = self.end[i] - self.start[i]
            nid = self.name_id[i]
            calls[nid] += 1
            inside[nid] += dur
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += dur
        self_ns = [0] * len(names)
        for i in range(since, n):
            self_ns[self.name_id[i]] += (self.end[i] - self.start[i]) - child_ns[i]

        margin = self._name_ids.get("triggers.margin")
        locate = self._name_ids.get("simulate.locate_event")
        bisect = 0
        if margin is not None and locate is not None:
            bisect = sum(1 for i in range(since, n)
                         if self.name_id[i] == margin
                         and self.parent[i] >= 0
                         and self.name_id[self.parent[i]] == locate)
        chain_ids = {self._name_ids[c] for c in _CHAIN if c in self._name_ids}
        chain_ns = sum(self.end[i] - self.start[i] for i in range(since, n)
                       if self.name_id[i] in chain_ids
                       and (self.parent[i] < 0
                            or self.name_id[self.parent[i]] not in chain_ids))
        summ_id = self._name_ids.get("analysis.summarize_arc")
        write_id = self._name_ids.get("cli.write_arc")
        summarize_in_write = sum(
            self.end[i] - self.start[i] for i in range(since, n)
            if self.name_id[i] == summ_id and self.parent[i] >= 0
            and self.name_id[self.parent[i]] == write_id)
        return {
            "calls": {names[k]: calls[k] for k in range(len(names))},
            "s": {names[k]: inside[k] * 1e-9 for k in range(len(names))},
            "self_s": {names[k]: self_ns[k] * 1e-9 for k in range(len(names))},
            "bisect_margin_evals": bisect,
            "chain_s": chain_ns * 1e-9,
            "summarize_in_write_s": summarize_in_write * 1e-9,
        }


_ARC_ENTRY_POINTS = (("etcsim.simulate", "integrate_arc"),
                     ("etcsim.analysis", "integrate_arc"),
                     ("etcsim.cli", "integrate_arc"))

# The integrators integrate_arc dispatches to, by the backend name reported.
# Each is looked up as a module attribute at call time, so wrapping it shows
# which one actually ran; an arc that reached none of them is "unobserved".
_BACKENDS = (("reference", "etcsim.simulate", "_integrate_python"),
             ("kernel", "etcsim._fastpath", "integrate_linear"))


class ArcCounter:
    """Counts the arcs the program returns, their samples, jumps and backend.

    Wraps only the integrate_arc entry points and the integrators behind
    them, once per arc, so it stays installed in untraced runs: the work
    counts prove that two runs did the same work.
    """

    def __init__(self):
        self.reset()
        self._ran: set[str] = set()
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.arcs = 0
        self.samples = 0
        self.jumps = 0
        self.backends: set[str] = set()

    def _wrap_entry(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._ran = set()
            arc = fn(*args, **kwargs)
            self.arcs += 1
            self.samples += len(arc)
            self.jumps += arc.jump_count
            self.backends.update(self._ran or {"unobserved"})
            return arc

        return wrapper

    def _wrap_backend(self, label: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._ran.add(label)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        targets = [(module_name, attr, self._wrap_entry)
                   for module_name, attr in _ARC_ENTRY_POINTS]
        targets += [(module_name, attr,
                     functools.partial(self._wrap_backend, label))
                    for label, module_name, attr in _BACKENDS]
        for module_name, attr, wrap in targets:
            found = _resolve(module_name, attr)
            if found is None:      # a target a refactor removed
                continue
            module, attr, raw = found
            self._undo.append((module, attr, raw))
            setattr(module, attr, wrap(raw))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, raw = self._undo.pop()
            setattr(module, attr, raw)


def layer_metrics(tracer: Tracer, samples: int, jumps: int) -> tuple[dict, list]:
    """The per-layer metrics of one traced run, and the names found absent.

    samples and jumps are the stored samples and jumps of the arcs the
    traced run produced. A per-call average over zero calls reads 0.
    """
    tot = tracer.totals()
    calls, secs = tot["calls"], tot["s"]
    missing = tracer.missing

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    def per_call_us(name):
        return s(name) / c(name) * 1e6 if c(name) else 0.0

    def rate(name):
        return tracer.samples.get(name, 0) / s(name) if s(name) > 0 else 0.0

    # metric name -> (value, unit, span names it needs)
    table = {
        "plant.flow.calls": (c("plant.flow"), "count", ["plant.flow"]),
        "plant.flow.s": (s("plant.flow"), "s", ["plant.flow"]),
        "plant.flow.us_per_call": (per_call_us("plant.flow"), "us",
                                   ["plant.flow"]),
        "plant.flow_evals_per_sample": (
            c("plant.flow") / samples if samples else 0.0, "ratio",
            ["plant.flow"]),
        "plant.jump.calls": (c("plant.jump"), "count", ["plant.jump"]),
        "plant.jump.s": (s("plant.jump"), "s", ["plant.jump"]),
        "triggers.margin.calls": (c("triggers.margin"), "count",
                                  ["triggers.margin"]),
        "triggers.margin.s": (s("triggers.margin"), "s", ["triggers.margin"]),
        "triggers.margin.us_per_call": (per_call_us("triggers.margin"), "us",
                                        ["triggers.margin"]),
        "simulate.integrate_arc.calls": (c("simulate.integrate_arc"), "count",
                                         ["simulate.integrate_arc"]),
        "simulate.integrate_arc.s": (s("simulate.integrate_arc"), "s",
                                     ["simulate.integrate_arc"]),
        "simulate.self_s": (tot["self_s"].get("simulate.integrate_arc", 0.0),
                            "s", ["simulate.integrate_arc", "plant.flow",
                                  "plant.jump", "triggers.margin",
                                  "simulate.locate_event", "hybrid.state_new",
                                  "hybrid.append"]),
        "simulate.locate_event.calls": (c("simulate.locate_event"), "count",
                                        ["simulate.locate_event"]),
        "simulate.locate_event.s": (s("simulate.locate_event"), "s",
                                    ["simulate.locate_event"]),
        "simulate.bisect_margin_evals": (
            tot["bisect_margin_evals"], "count",
            ["simulate.locate_event", "triggers.margin"]),
        "hybrid.state_new.calls": (c("hybrid.state_new"), "count",
                                   ["hybrid.state_new"]),
        "hybrid.state_new.s": (s("hybrid.state_new"), "s",
                               ["hybrid.state_new"]),
        "hybrid.append.calls": (c("hybrid.append"), "count", ["hybrid.append"]),
        "hybrid.append.s": (s("hybrid.append"), "s", ["hybrid.append"]),
        "hybrid.to_csv.s": (s("hybrid.to_csv"), "s", ["hybrid.to_csv"]),
        "hybrid.to_csv.bytes": (tracer.bytes_written.get("hybrid.to_csv", 0),
                                "bytes", ["hybrid.to_csv"]),
        "arc.samples": (samples, "count", []),
        "arc.jumps": (jumps, "count", []),
        "certificates.chain.s": (tot["chain_s"], "s", list(_CHAIN)),
        "certificates.epsilon_star_search.s": (
            s("certificates.epsilon_star_search"), "s",
            ["certificates.epsilon_star_search"]),
        "certificates.trigger_slope_bound.s": (
            s("certificates.trigger_slope_bound"), "s",
            ["certificates.trigger_slope_bound"]),
        "certificates.trigger_slope_bound.samples_per_s": (
            rate("certificates.trigger_slope_bound"), "1/s",
            ["certificates.trigger_slope_bound"]),
        "certificates.validate_assumptions.s": (
            s("certificates.validate_assumptions"), "s",
            ["certificates.validate_assumptions"]),
        "certificates.validate_assumptions.samples_per_s": (
            rate("certificates.validate_assumptions"), "1/s",
            ["certificates.validate_assumptions"]),
        "analysis.summarize_arc.calls": (c("analysis.summarize_arc"), "count",
                                         ["analysis.summarize_arc"]),
        "analysis.summarize_arc.s": (s("analysis.summarize_arc"), "s",
                                     ["analysis.summarize_arc"]),
        "analysis.sweep.s": (s("analysis.sweep"), "s", ["analysis.sweep"]),
        "scenario.load.s": (s("scenario.load"), "s", ["scenario.load"]),
        "cli.io.s": (s("cli.write_arc") - tot["summarize_in_write_s"]
                     + s("cli.write_sweep"), "s",
                     ["cli.write_arc", "cli.write_sweep"]),
    }
    metrics, absent = {}, []
    for name, (value, unit, needs) in table.items():
        if any(n in missing for n in needs):
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
