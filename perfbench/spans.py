"""Layer probes: timed wrappers around the program's public functions.

The benchmark measures every layer from outside.  :class:`Probe` replaces
a public function or method by a wrapper that times the call, counts the
work it did and, while tracing, records a span (kind, start, end, parent).
Methods are wrapped on their class and module functions under every name
they are imported as, so references bound before the wrapping still reach
the wrapper.

Two groups of wrappers exist.  The *measurement* group (platform
measurements and module simulations) stays on in every run: it yields the
latency samples and the counts the end-to-end metrics and the determinism
fingerprint need.  The *layer* group is installed only for traced rounds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
@dataclass
class Span:
    kind: str
    start: float
    end: float
    parent: int
    """Index of the enclosing span in the span list, -1 for a root."""


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[index]
        ]
        covered = covered_length((s, e) for s, e in clipped if e > s)
        out.append((span.end - span.start) - covered)
    return out


def self_time_table(spans) -> dict:
    """``kind -> (calls, total_s, self_s)`` over all spans."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total, self_s = table.get(span.kind, (0, 0.0, 0.0))
        table[span.kind] = (calls + 1, total + span.end - span.start,
                            self_s + own)
    return table


def format_self_time_table(table: dict, rounds: int) -> str:
    """The table per traced round, largest self time first."""
    wall = sum(total for kind, (_c, total, _s) in table.items()
               if kind == ROUND_SPAN)
    lines = [f"{'span kind':<28}{'calls':>8}{'total s':>10}{'self s':>10}"
             f"{'self %':>8}"]
    for kind, (calls, total, self_s) in sorted(
        table.items(), key=lambda item: -item[1][2]
    ):
        share = 100.0 * self_s / wall if wall else 0.0
        label = "(unexplained) " + kind if kind == ROUND_SPAN else kind
        lines.append(f"{label:<28}{calls / rounds:>8.0f}{total / rounds:>10.3f}"
                     f"{self_s / rounds:>10.3f}{share:>8.1f}")
    return "\n".join(lines)


#: The span around one traced round; its self time is the part of the
#: round no layer span explains.
ROUND_SPAN = "round"


# ----------------------------------------------------------------------
# The probe
# ----------------------------------------------------------------------
class _Call:
    __slots__ = ("fn", "args", "kwargs", "token")

    def __init__(self, fn, args, kwargs):
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.token = None


@dataclass(frozen=True)
class _Hook:
    module: str
    qualname: str
    kind: str
    before: str | None = None
    after: str | None = None
    error: str | None = None


class Probe:
    """Counts, times and (while tracing) spans at each layer boundary."""

    MEASUREMENT_HOOKS = (
        _Hook("repro.core.platform", "MeasurementPlatform.measure_program",
              "platform.measure", "_before_measure", "_after_measure",
              "_measure_failed"),
        _Hook("repro.core.platform", "MeasurementPlatform.measure_programs",
              "platform.measure", "_before_measure", "_after_measure",
              "_measure_failed"),
        _Hook("repro.core.platform", "MeasurementPlatform.measure_current",
              "platform.measure", "_before_measure", "_after_measure",
              "_measure_failed"),
        _Hook("repro.uarch.module", "ModuleSimulator.run", "uarch.module_run",
              after="_after_module_run"),
    )

    LAYER_HOOKS = (
        _Hook("repro.core.resonance", "find_resonance", "resonance.sweep",
              after="_after_resonance"),
        _Hook("repro.core.ga", "GeneticAlgorithm.run", "ga.run",
              before="_before_ga", after="_after_ga", error="_ga_failed"),
        _Hook("repro.core.engine", "EvaluationEngine.evaluate_many",
              "engine.evaluate_many", before="_before_engine",
              after="_after_engine"),
        _Hook("repro.core.qualify", "StressmarkQualifier.qualify_program",
              "qualify.program", after="_after_qualify"),
        _Hook("repro.measure.failure", "voltage_at_failure", "failure.search",
              before="_before_failure", after="_after_timed"),
        _Hook("repro.pipeline.stages", "CompileStage.run", "pipeline.compile",
              after="_after_counted"),
        _Hook("repro.pipeline.stages", "ActivityStage.run", "pipeline.activity",
              before="_before_activity", after="_after_activity"),
        _Hook("repro.pipeline.stages", "PdnStage.run", "pipeline.pdn",
              after="_after_counted"),
        _Hook("repro.pipeline.stages", "AnalyzeStage.run", "pipeline.analyze",
              after="_after_counted"),
        _Hook("repro.uarch.chip", "ChipSimulator.run_module",
              "uarch.run_module", after="_after_counted"),
        _Hook("repro.pdn.transient", "TransientSolver.steady_state_periodic",
              "pdn.solver", after="_after_solver"),
        _Hook("repro.pdn.transient", "TransientSolver.simulate", "pdn.solver",
              after="_after_solver"),
        _Hook("repro.workloads.runner", "run_workload", "workloads.run",
              after="_after_workload"),
    )

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.tracing = False
        self._patched: list[tuple] = []
        self._layer_patches = 0
        self.origin = time.perf_counter()
        self.reset_round()

    # -- round bookkeeping ----------------------------------------------
    def reset_round(self) -> None:
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.latencies_ms: list[float] = []
        self.failed = 0
        self._ga_depth = 0

    def open(self, kind: str) -> int:
        index = -1
        if self.tracing:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(kind, time.perf_counter(), 0.0, parent))
            self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if index >= 0:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    # -- installation ---------------------------------------------------
    def install_measurement_hooks(self) -> None:
        for hook in self.MEASUREMENT_HOOKS:
            self._install(hook)

    def start_tracing(self) -> None:
        """Install the layer wrappers and record spans until stopped."""
        mark = len(self._patched)
        for hook in self.LAYER_HOOKS:
            self._install(hook)
        self._layer_patches = len(self._patched) - mark
        self.tracing = True

    def stop_tracing(self) -> None:
        self.tracing = False
        for _ in range(self._layer_patches):
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._layer_patches = 0

    def uninstall(self) -> None:
        self.stop_tracing()
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _install(self, hook: _Hook) -> None:
        owner = importlib.import_module(hook.module)
        *path, attr = hook.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if path else getattr(owner, attr)
        wrapper = self._wrap(original, hook)
        if path:
            self._patch(owner, attr, original, wrapper)
            return
        # A module function: patch every module that imported it by name.
        for module in list(sys.modules.values()):
            if getattr(module, attr, None) is original:
                self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _wrap(self, fn, hook: _Hook):
        probe = self
        before = getattr(self, hook.before) if hook.before else None
        after = getattr(self, hook.after) if hook.after else None
        error = getattr(self, hook.error) if hook.error else None
        kind = hook.kind

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = _Call(fn, args, kwargs)
            if before is not None:
                before(call)
            index = probe.open(kind)
            start = time.perf_counter()
            try:
                result = fn(*call.args, **call.kwargs)
            except BaseException:
                probe.close(index)
                if error is not None:
                    error(call)
                raise
            elapsed = time.perf_counter() - start
            probe.close(index)
            if after is not None:
                after(kind, call, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- measurement group ----------------------------------------------
    def _before_measure(self, call: _Call) -> None:
        requests = call.args[1] if len(call.args) > 1 else call.kwargs.get(
            "requests", ())
        call.token = len(requests) if isinstance(requests, (list, tuple)) else 1

    def _after_measure(self, kind, call, result, elapsed) -> None:
        n = call.token
        self.counts["platform.measurements"] += n
        self.times["platform.measure_s"] += elapsed
        self.latencies_ms.extend([elapsed * 1e3 / n] * n)
        if self._ga_depth:
            self.times["ga.measure_s"] += elapsed

    def _measure_failed(self, call: _Call) -> None:
        self.failed += call.token

    def _after_module_run(self, kind, call, result, elapsed) -> None:
        programs = call.args[1] if len(call.args) > 1 else call.kwargs["programs"]
        self.counts["uarch.runs"] += 1
        self.counts["uarch.smt_runs"] += len(programs) > 1
        self.counts["uarch.cycles"] += result.cycles
        self.counts["uarch.instructions"] += result.stats.decoded_instructions
        self.times["uarch.s"] += elapsed

    # -- layer group ----------------------------------------------------
    def _after_timed(self, kind, call, result, elapsed) -> None:
        self.times[kind] += elapsed

    def _after_counted(self, kind, call, result, elapsed) -> None:
        self.counts[kind] += 1
        self.times[kind] += elapsed

    def _after_resonance(self, kind, call, result, elapsed) -> None:
        self.times[kind] += elapsed
        self.counts["resonance.probes"] += len(result.points)

    def _before_ga(self, call: _Call) -> None:
        self._ga_depth += 1

    def _ga_failed(self, call: _Call) -> None:
        self._ga_depth -= 1

    def _after_ga(self, kind, call, result, elapsed) -> None:
        self._ga_depth -= 1
        self.times[kind] += elapsed
        self.counts["ga.evaluations"] += result.evaluations

    def _before_engine(self, call: _Call) -> None:
        call.token = call.args[0].cache_hits

    def _after_engine(self, kind, call, result, elapsed) -> None:
        if self._ga_depth:
            self.counts["engine.cache_hits"] += (
                call.args[0].cache_hits - call.token
            )

    def _after_qualify(self, kind, call, result, elapsed) -> None:
        self.times[kind] += elapsed
        self.counts["qualify.perturbations"] += result.evaluations

    def _before_failure(self, call: _Call) -> None:
        run_at = call.args[0]
        counts = self.counts

        def counted_run_at(supply_v):
            counts["failure.steps"] += 1
            return run_at(supply_v)

        call.args = (counted_run_at,) + tuple(call.args[1:])

    def _before_activity(self, call: _Call) -> None:
        call.token = call.args[0].cache.hits

    def _after_activity(self, kind, call, result, elapsed) -> None:
        self.counts[kind] += 1
        self.times[kind] += elapsed
        self.counts["activity.profile_hits"] += (
            call.args[0].cache.hits > call.token
        )
        self.counts[f"pdn.path.{result.path}"] += 1

    def _after_solver(self, kind, call, result, elapsed) -> None:
        self.counts[kind] += 1
        self.times[kind] += elapsed
        self.counts["pdn.solver.samples"] += len(result.samples)

    def _after_workload(self, kind, call, result, elapsed) -> None:
        bound = inspect.signature(call.fn).bind(*call.args, **call.kwargs)
        bound.apply_defaults()
        self.counts[kind] += 1
        self.times[kind] += elapsed
        self.counts["workloads.thread_cycles"] += (
            bound.arguments["threads"] * bound.arguments["duration_cycles"]
        )

    # -- results --------------------------------------------------------
    def layer_metrics(self) -> dict:
        """This round's per-layer metrics (the setup and trace entries are
        filled in by the caller)."""
        c, t = self.counts, self.times

        def rate(num, den):
            return num / den if den > 0 else 0.0

        return {
            "resonance.sweep_s": t["resonance.sweep"],
            "resonance.probes": c["resonance.probes"],
            "ga.search_s": t["ga.run"],
            "ga.evaluations": c["ga.evaluations"],
            "ga.evals_per_s": rate(c["ga.evaluations"], t["ga.run"]),
            "engine.cache_hits": c["engine.cache_hits"],
            "engine.overhead_s": t["ga.run"] - t["ga.measure_s"],
            "qualify.s": t["qualify.program"],
            "qualify.perturbations": c["qualify.perturbations"],
            "failure.search_s": t["failure.search"],
            "failure.steps": c["failure.steps"],
            "platform.measurements": c["platform.measurements"],
            "platform.measure_s": t["platform.measure_s"],
            "compile.calls": c["pipeline.compile"],
            "compile.s": t["pipeline.compile"],
            "compile.us_per_call": 1e6 * rate(t["pipeline.compile"],
                                              c["pipeline.compile"]),
            "activity.calls": c["pipeline.activity"],
            "activity.s": t["pipeline.activity"],
            "activity.profile_hits": c["activity.profile_hits"],
            "activity.hit_ratio": rate(c["activity.profile_hits"],
                                       c["pipeline.activity"]),
            "pdn.calls": c["pipeline.pdn"],
            "pdn.s": t["pipeline.pdn"],
            "pdn.path.periodic": c["pdn.path.periodic"],
            "pdn.path.jittered": c["pdn.path.jittered"],
            "pdn.path.transient": c["pdn.path.transient"],
            "analyze.s": t["pipeline.analyze"],
            "uarch.runs": c["uarch.runs"],
            "uarch.smt_runs": c["uarch.smt_runs"],
            "uarch.trace_hits": c["uarch.run_module"] - c["uarch.runs"],
            "uarch.s": t["uarch.s"],
            "uarch.cycles": c["uarch.cycles"],
            "uarch.instructions": c["uarch.instructions"],
            "uarch.cycles_per_s": rate(c["uarch.cycles"], t["uarch.s"]),
            "uarch.instructions_per_s": rate(c["uarch.instructions"],
                                             t["uarch.s"]),
            "pdn.solver.solves": c["pdn.solver"],
            "pdn.solver.samples": c["pdn.solver.samples"],
            "pdn.solver.s": t["pdn.solver"],
            "pdn.solver.samples_per_s": rate(c["pdn.solver.samples"],
                                             t["pdn.solver"]),
            "workloads.runs": c["workloads.run"],
            "workloads.s": t["workloads.run"],
            "workloads.thread_cycles_per_s": rate(
                c["workloads.thread_cycles"], t["workloads.run"]),
        }

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "kind": span.kind,
                    "start_s": span.start - self.origin,
                    "end_s": span.end - self.origin,
                    "parent": span.parent,
                }) + "\n")
