"""One benchmark run in a fresh interpreter; started by ``run.py``.

Prints one JSON line when the testbed is ready (its ``time.monotonic()``
stamp lets the parent time set-up from before the interpreter started),
then, unless ``--probe``, runs whole rounds of the workload while the
next one is expected to end within ``--seconds`` (always at least one)
and prints one JSON line with the results.
With ``--trace 1`` rounds alternate untraced and traced, so the tracing
overhead is measured within the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import time
import traceback

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def fingerprint(measurements: int, cycles: int, outcome) -> str:
    """Digest of what must repeat bit for bit in every run of a seed."""
    payload = json.dumps([
        measurements,
        cycles,
        outcome.ga_evaluations,
        [float(v).hex() for v in outcome.droops],
    ])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_rounds(workload: str, seed: int, seconds: float, trace: bool,
               probe, run_round, round_span: str) -> list[dict]:
    rounds: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        # The previous round's garbage is collected now, not in this round.
        gc.collect()
        probe.reset_round()
        if traced:
            probe.start_tracing()
            root = probe.open(round_span)
        start = time.perf_counter()
        outcome, error = None, None
        try:
            outcome = run_round(workload, seed)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        if traced:
            probe.close(root)
            probe.stop_tracing()
        record = {
            "traced": traced,
            "wall_s": wall,
            "measurements": probe.counts["platform.measurements"],
            "failed": probe.failed,
            "error": error,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if outcome is not None:
            record["checks_passed"] = outcome.checker.passed
            record["check_failures"] = outcome.checker.failures
            record["fingerprint"] = fingerprint(
                probe.counts["platform.measurements"],
                probe.counts["uarch.cycles"], outcome)
        if traced:
            record["layers"] = probe.layer_metrics()
        else:
            record["latencies_ms"] = probe.latencies_ms
        rounds.append(record)
        if error is not None:
            break
        if trace and len(rounds) % 2 == 1:
            continue
        # Stop before a round that would end past the deadline: a run holds
        # whole rounds, so only a single round longer than --seconds
        # makes it overrun.
        mean_wall = statistics.fmean(r["wall_s"] for r in rounds)
        per_step = mean_wall * (2 if trace else 1)
        if time.perf_counter() + per_step > deadline:
            break
    return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, report readiness and exit")
    args = parser.parse_args()

    import_start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - import_start
    testbed_start = time.perf_counter()
    workloads.ready_testbed()
    testbed_s = time.perf_counter() - testbed_start
    emit({"ready": time.monotonic(), "import_s": import_s,
          "testbed_s": testbed_s})
    if args.probe:
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    from spans import ROUND_SPAN, Probe, format_self_time_table, self_time_table

    probe = Probe()
    probe.install_measurement_hooks()
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            bool(args.trace), probe, workloads.run_round,
                            ROUND_SPAN)
    finally:
        probe.uninstall()
    result = {
        "rounds": rounds,
        "import_s": import_s,
        "testbed_s": testbed_s,
    }
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        if traced and untraced:
            table = self_time_table(probe.spans)
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            probe.write_spans(spans_path)
            result["spans_path"] = spans_path
            result["self_time_table"] = format_self_time_table(
                table, len(traced))
            result["unexplained_s"] = table[ROUND_SPAN][2] / len(traced)
            result["trace_overhead"] = (
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in untraced)
            )
    emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
