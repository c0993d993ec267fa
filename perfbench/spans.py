"""In-memory span recording around calls into loctrack's layers, and the
per-layer figures derived from the spans.

A traced campaign wraps each public function of a layer on every module
attribute that names it, so the wrapper is what callers look up.  Each
call records one span: name, start, end, parent span and run id.  Runs
are delimited by the top-level trajectory draw that starts each one.  A
name the package no longer defines is skipped and reads as zero calls.
"""

from __future__ import annotations

import sys
import threading
import time

# Layer -> public functions on the campaign path.  Span names are
# "<layer>.<function>".
TARGETS = {
    "scenario": (
        "load_scenario",
        "random_walk_trajectory",
        "prior_model",
        "sample_trajectory_ensemble",
    ),
    "channel": ("channel_jacobian",),
    "fim": ("measurement_fim", "measurement_blocks_at", "prior_fim", "assemble_efim"),
    "coupling": ("split_d_a", "build_ptpm", "eoc_report", "hitting_probabilities"),
    "recursive": ("run_recursion", "recursive_step", "constant_inputs", "stationary_point"),
    "harness": ("run_experiment", "write_outputs"),
}
LAYERS = tuple(TARGETS)
ROOT_SPAN = "harness.run_experiment"
RUN_START_SPAN = "scenario.random_walk_trajectory"

# Fields of one recorded span.
NAME, START, END, PARENT, RUN = range(5)


class Recorder:
    """Collects spans from wrapped functions.

    ``observers`` maps a span name to ``fn(args, kwargs, result, run)``,
    called after the span ends, for counts and captured values.
    """

    def __init__(self, observers=None):
        self.names: list = []
        self.spans: list = []
        self.observers = dict(observers or {})
        self.run = -1
        self._root = None
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observer = self.observers.get(name)
        is_root = name == ROOT_SPAN
        starts_run = name == RUN_START_SPAN

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # Pool workers start with an empty stack; their calls
                # belong to the campaign span of the main thread.
                parent = self._root
                if starts_run:
                    self.run += 1
            span = [name_id, 0.0, 0.0, parent, self.run]
            index = len(self.spans)
            self.spans.append(span)
            if is_root:
                self._root = index
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
            if observer is not None:
                observer(args, kwargs, result, span[RUN])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target on each ``loctrack`` module that binds it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "loctrack" or key.startswith("loctrack."))
        ]
        for layer, functions in TARGETS.items():
            home = sys.modules.get(f"loctrack.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, count)``; below 20 samples no percentile
    qualifies and the median is returned with its percentile, 50.
    """
    n = len(values)
    for q in TAIL_CANDIDATES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return percentile(values, q), q, n
    return percentile(values, 50.0), 50.0, n


def analyse(dump: dict) -> dict:
    """Per-name calls, durations and self times, per-run durations, and
    per-layer self time, from one traced campaign."""
    names = dump["names"]
    spans = dump["spans"]
    children: dict = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)

    per_name = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
                for name in names}
    for index, span in enumerate(spans):
        dur = span[END] - span[START]
        kids = children.get(index, ())
        own = dur - _covered((spans[c][START], spans[c][END]) for c in kids)
        entry = per_name[names[span[NAME]]]
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += own
        entry["durations"].append(dur)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in per_name.items():
        layer = name.split(".", 1)[0]
        if name == ROOT_SPAN:
            layer_self["harness"] += entry["self_s"]
        elif layer != "harness":
            layer_self[layer] += entry["self_s"]

    # Run r lasts from its trajectory draw to the next run's draw; the last
    # run ends with its last span.
    run_start: dict = {}
    run_end: dict = {}
    start_id = names.index(RUN_START_SPAN) if RUN_START_SPAN in names else None
    for span in spans:
        run = span[RUN]
        if run < 0:
            continue
        if span[NAME] == start_id and run not in run_start:
            run_start[run] = span[START]
        run_end[run] = max(run_end.get(run, span[END]), span[END])
    runs = sorted(run_start)
    run_durations = []
    for i, run in enumerate(runs):
        end = run_start[runs[i + 1]] if i + 1 < len(runs) else run_end[run]
        run_durations.append(end - run_start[run])

    return {
        "per_name": per_name,
        "layer_self_s": layer_self,
        "run_durations": run_durations,
    }
