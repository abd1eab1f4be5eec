"""Span tracing of magnomech's layers, installed from outside the program.

Each traced function is wrapped and every module attribute bound to it is
rebound to the wrapper, so calls made through aliases (``cli.parse_config``,
``analysis.solve_steady_state``, ``oracle.pmap``, ...) are seen too.  A
wrapper opens a span (name, start, end, parent, job id), calls through with
``*args, **kwargs`` and records counts from the result.  A function that
no longer exists is reported as absent, never as an error.

Spans of one job are kept in memory and folded into per-layer totals when
the job ends.  A layer's self time is the duration of its spans minus the
part of each span that its child spans cover.  Single-threaded use only:
the benchmark removes ``MAGNOMECH_THREADS``, so ``pmap`` runs inline.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "params", "presets", "steady_state", "response", "oracle",
          "analysis", "csvio", "util")

#: Hook spans time the tracer's own bookkeeping; they count as covered
#: time of their parent but belong to no layer.
HOOK = "trace.hook"


def _ladder_points(t, args, kwargs, result):
    delta = args[2] if len(args) > 2 else kwargs.get("delta")
    t.counts["response.ladder_points"] += int(np.size(delta))


def _steady_iterations(t, args, kwargs, result):
    iterations = getattr(result, "iterations", None)
    if isinstance(iterations, int):
        t.counts["steady_state.iterations"] += iterations


def _oracle_residual(t, args, kwargs, result):
    t.maxima["oracle.max_residual"] = max(t.maxima["oracle.max_residual"],
                                          float(result.residual))


def _cross_validate(t, args, kwargs, result):
    t.maxima["oracle.max_rel_dev"] = max(t.maxima["oracle.max_rel_dev"],
                                         float(result.max_rel_dev))
    t.counts["oracle.failed"] += len(result.failures)


def _crossings(t, args, kwargs, result):
    t.counts["analysis.crossings_found"] += len(result.crossings)
    t.counts["analysis.brackets_invalid"] += len(result.invalid)
    t.counts["analysis.crossing_samples"] += len(result.samples)


def _windows(t, args, kwargs, result):
    t.counts["analysis.windows_found"] += int(result.count)


def _csv_written(t, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")[1:]
    t.counts["csvio.rows"] += sum(1 for ln in lines
                                  if ln and not ln.startswith(b"#"))
    t.counts["csvio.bytes"] += len(data)


# (span name, module, attribute path, hook, rebind every alias)
TARGETS = (
    ("params.parse_config", "params", "parse_config", None, True),
    ("params.apply_override", "params", "apply_override", None, True),
    ("params.serialize_config", "params", "serialize_config", None, True),
    ("params.validate", "params", "SystemParams.__post_init__", None, False),
    # dataclasses.replace as analysis reaches it: one SystemParams rebuild
    # per swept coupling value
    ("params.replace", "analysis", "replace", None, False),
    ("presets.get_preset", "presets", "get_preset", None, True),
    ("presets.resolve", "presets", "Preset.resolve", None, False),
    ("steady_state.solve", "steady_state", "solve_steady_state",
     _steady_iterations, True),
    ("steady_state.sweep", "steady_state", "magnon_number_sweep", None, True),
    ("response.ladder", "response", "ladder_coefficients", _ladder_points,
     True),
    ("response.probe_response", "response", "probe_response", None, True),
    ("response.transmission", "response", "transmission", None, True),
    ("response.group_delay", "response", "group_delay_result", None, True),
    ("response.evaluate_spectrum", "response", "evaluate_spectrum", None,
     True),
    ("oracle.cross_validate", "oracle", "cross_validate", _cross_validate,
     True),
    ("oracle.build", "oracle", "build_fluctuation_matrix", None, True),
    ("oracle.solve", "oracle", "solve_fluctuations", _oracle_residual, True),
    ("analysis.crossings", "analysis", "delay_sign_crossings", _crossings,
     True),
    ("analysis.tau_at", "analysis", "_tau_at", None, True),
    ("analysis.find_windows", "analysis", "find_windows", _windows, True),
    ("analysis.sweep_spectrum", "analysis", "sweep_spectrum", None, True),
    ("csvio.write_csv", "csvio", "write_csv", _csv_written, True),
    ("util.pmap", "util", "pmap", None, True),
    ("util.thread_count", "util", "thread_count", None, True),
)

#: Wrappers each workload reaches at the recorded commit (when the function
#: still exists): one that is never reached is bound to a dead alias, or
#: its function is no longer called.
EXPECTED = {
    "spectra": ("params.parse_config", "params.apply_override",
                "params.serialize_config", "params.validate",
                "presets.get_preset", "presets.resolve", "steady_state.solve",
                "response.ladder", "response.probe_response",
                "response.transmission", "response.group_delay",
                "response.evaluate_spectrum", "analysis.find_windows",
                "analysis.sweep_spectrum", "csvio.write_csv"),
    "validate": ("params.parse_config", "params.serialize_config",
                 "params.validate", "steady_state.solve",
                 "response.ladder", "response.probe_response",
                 "oracle.cross_validate", "oracle.build", "oracle.solve",
                 "util.pmap", "util.thread_count", "csvio.write_csv"),
    "coupling_sweeps": ("params.parse_config", "params.apply_override",
                        "params.replace", "params.validate",
                        "presets.get_preset", "presets.resolve",
                        "steady_state.solve", "steady_state.sweep",
                        "response.ladder", "response.probe_response",
                        "response.transmission", "response.group_delay",
                        "analysis.crossings", "analysis.tau_at",
                        "csvio.write_csv"),
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - _covered(children.get(i, ()), s[1], s[2])
            for i, s in enumerate(spans)]


class Tracer:
    """Wrap the TARGETS, collect spans per job and fold them into totals."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, job, error]
        self._stack: list[int] = []
        self.job = None
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.hook_errors: Counter = Counter()
        self.ladder_job_points = 0
        self.absent: list[str] = []
        self._sites = []               # (owner, attribute, original, wrapper)
        self._bind()

    # -- spans --------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job,
                           None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: BaseException | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if error is not None:
            span[5] = type(error).__name__
        self._stack.pop()

    def _hook(self, name, hook, args, kwargs, result) -> None:
        idx = self.open(HOOK)
        try:
            hook(self, args, kwargs, result)
        except Exception:   # a changed return type must not stop the run
            self.hook_errors[name] += 1
        finally:
            self.close(idx)

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, name, fn, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.close(idx)
                        return
                    except BaseException as exc:
                        tracer.close(idx, exc)
                        raise
                    tracer.close(idx)
                    tracer.counts[name + ".items"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, exc)
                raise
            tracer.close(idx)
            if hook is not None:
                tracer._hook(name, hook, args, kwargs, result)
            return result
        return wrapper

    def _bind(self) -> None:
        modules = {}
        for _, module, _, _, _ in TARGETS:
            try:
                modules[module] = importlib.import_module("magnomech." + module)
            except ImportError:
                modules[module] = None
        for name, module, path, hook, scan in TARGETS:
            owner = modules[module]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, hook)
            sites = [(owner, attr)]
            if scan:
                sites += [(m, a) for m in _package_modules()
                          for a, v in list(vars(m).items())
                          if v is fn and (m, a) != (owner, attr)]
            self._sites += [(o, a, fn, wrapper) for o, a in sites]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    # -- folding ------------------------------------------------------------
    def fold(self, job_points: int, spans_out=None) -> None:
        """Add the finished job's spans to the totals and drop them."""
        spans = self.spans
        for i, own in enumerate(self_times(spans)):
            name = spans[i][0]
            if name != HOOK:
                self.self_s[layer_of(name)] += own
        # inclusive time counts a span only when no ancestor has its name
        # (per function) or its layer (per layer)
        for s in spans:
            name, layer = s[0], layer_of(s[0])
            nested_name = nested_layer = False
            parent = s[3]
            while parent is not None:
                above = spans[parent][0]
                nested_name |= above == name
                nested_layer |= layer_of(above) == layer
                parent = spans[parent][3]
            if not nested_name:
                self.inclusive[name] += s[2] - s[1]
            if not nested_layer and name != HOOK:
                self.inclusive[layer] += s[2] - s[1]
            self.calls[name] += 1
            if s[5] is not None:
                self.errors[(s[0], s[5])] += 1
        if any(s[0] == "response.ladder" for s in spans):
            self.ladder_job_points += job_points
        if spans_out is not None:
            for s in spans:
                spans_out.write(json.dumps(
                    {"name": s[0], "start": s[1], "end": s[2],
                     "parent": s[3], "job": s[4], "error": s[5]}) + "\n")
        self.spans = []

    def unreached(self, workload: str) -> list[str]:
        return [n for n in EXPECTED[workload]
                if n not in self.absent and self.calls[n] == 0]

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, per round of the job list."""
        def per(x):
            return x / rounds

        c, inc = self.counts, self.inclusive
        tau_evals = self.calls["analysis.tau_at"]
        m = {f"{layer}.self_s": per(self.self_s[layer]) for layer in LAYERS}
        m.update({
            "csvio.s": per(inc["csvio.write_csv"]),
            "csvio.rows": per(c["csvio.rows"]),
            "csvio.bytes": per(c["csvio.bytes"]),
            "csvio.rows_per_s": _ratio(c["csvio.rows"], self.self_s["csvio"]),
            "response.ladder_calls": per(self.calls["response.ladder"]),
            "response.ladder_points": per(c["response.ladder_points"]),
            "response.ladder_s": per(inc["response.ladder"]),
            "response.group_delay.s": per(inc["response.group_delay"]),
            "response.evaluate_spectrum.s":
                per(inc["response.evaluate_spectrum"]),
            "response.ladder_points_per_output":
                _ratio(c["response.ladder_points"], self.ladder_job_points),
            "oracle.cross_validate.s": per(inc["oracle.cross_validate"]),
            "oracle.solves": per(self.calls["oracle.solve"]),
            "oracle.build_s": per(inc["oracle.build"]),
            "oracle.solve_s": per(inc["oracle.solve"]),
            "oracle.failed": per(c["oracle.failed"]),
            "oracle.max_rel_dev": self.maxima["oracle.max_rel_dev"],
            "oracle.max_residual": self.maxima["oracle.max_residual"],
            "params.parse_config.calls": per(self.calls["params.parse_config"]),
            "params.parse_config.s": per(inc["params.parse_config"]),
            "params.records_built": per(self.calls["params.validate"]),
            "params.validate_s": per(inc["params.validate"]),
            "params.apply_override.calls":
                per(self.calls["params.apply_override"]),
            "params.apply_override.s": per(inc["params.apply_override"]),
            "steady_state.solves": per(self.calls["steady_state.solve"]),
            "steady_state.s": per(inc["steady_state"]),
            "steady_state.iterations": per(c["steady_state.iterations"]),
            "steady_state.failed":
                per(self.errors[("steady_state.solve", "ConvergenceError")]),
            "analysis.crossings.s": per(inc["analysis.crossings"]),
            "analysis.tau_evals": per(tau_evals),
            "analysis.bisection_evals":
                per(max(tau_evals - c["analysis.crossing_samples"], 0)
                    if tau_evals else 0),
            "analysis.brackets_invalid": per(c["analysis.brackets_invalid"]),
            "analysis.crossings_found": per(c["analysis.crossings_found"]),
            "analysis.find_windows.s": per(inc["analysis.find_windows"]),
            "analysis.windows_found": per(c["analysis.windows_found"]),
            "analysis.sweep_spectrum.combos":
                per(c["analysis.sweep_spectrum.items"]),
            "util.pmap.calls": per(self.calls["util.pmap"]),
            "util.pmap.s": per(inc["util.pmap"]),
        })
        return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "magnomech"
                                  or n.startswith("magnomech."))]
