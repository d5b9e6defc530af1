"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-4t --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout of the repository and needs no build:
the program is imported from ``src/``.  Each run starts fresh
single-threaded interpreters (``worker.py``): one runs whole rounds of the
workload for ``--seconds``; set-up time is the median over it and
``SETUP_PROBES`` more interpreters that only set up.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of traced rounds with ``--trace 1``.  The metric names
and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import percentile, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Interpreters started only to time set-up, besides the measuring one.
SETUP_PROBES = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_limit_s(seconds: int) -> float:
    """How long all processes of one run may take: the measured rounds, as
    much again (at least a minute) for the round that ends past them and
    for set-up, and half a minute per set-up probe."""
    return seconds + max(seconds, 60) + SETUP_PROBES * 30


class RunError(Exception):
    pass


def worker_env() -> dict:
    """Fixed hash seed, one BLAS/OpenMP thread, the program on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    return env


def start_worker(args, deadline: float, *, probe: bool) -> tuple[float, list]:
    """Run one worker; return its set-up time and its JSON lines."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        command.append("--probe")
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines()
             if line.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise RunError("worker never reported a ready testbed")
    return lines[0]["ready"] - spawned, lines


def end_to_end(rounds: list[dict], setup_s: float):
    """The end-to-end metrics of the untraced rounds, plus the tail's
    percentile and sample count."""
    rounds = [r for r in rounds if not r["traced"]]
    # Peak memory by the end of the first round: later rounds repeat its
    # work, and how many fit in a run depends on the machine's speed.
    peak_rss_mb = rounds[0]["peak_rss_mb"]
    latencies = [ms for r in rounds for ms in r["latencies_ms"]]
    # The percentile is chosen from one round's count, which every run of
    # the workload shares, so runs of different lengths report the same one.
    pct = tail_percentile(rounds[0]["measurements"])
    wall = sum(r["wall_s"] for r in rounds)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "measurements_per_s": sum(r["measurements"] for r in rounds) / wall,
        "measure_ms_p50": percentile(latencies, 50),
        "measure_ms_tail": percentile(latencies, pct),
        "peak_rss_mb": peak_rss_mb,
    }
    return values, pct, len(latencies)


def per_layer(result: dict, names) -> dict:
    rounds = [r for r in result["rounds"] if r["traced"]]
    values = {}
    for name in names:
        if name in rounds[0]["layers"]:
            values[name] = statistics.fmean(r["layers"][name] for r in rounds)
    values["setup.import_s"] = result["import_s"]
    values["setup.testbed_s"] = result["testbed_s"]
    values["trace.unexplained_s"] = result["unexplained_s"]
    values["trace.overhead"] = result["trace_overhead"]
    return values


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + run_limit_s(args.seconds)
    try:
        setup_main, lines = start_worker(args, deadline, probe=False)
        setup = [setup_main] + [
            start_worker(args, deadline, probe=True)[0]
            for _ in range(SETUP_PROBES)
        ]
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if len(lines) < 2:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    result = lines[-1]
    rounds = result["rounds"]
    failed = sum(r["failed"] for r in rounds)
    attempted = sum(r["measurements"] for r in rounds) + failed
    errors = [r["error"] for r in rounds if r["error"]]
    check_failures = [f for r in rounds for f in r.get("check_failures", ())]
    prints = {r.get("fingerprint") for r in rounds}
    correct = not errors and not check_failures and len(prints) == 1
    setup_s = statistics.median(setup)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} measurements attempted, {failed} failed")
    print(f"checks passed: {sum(r.get('checks_passed', 0) for r in rounds)}, "
          f"failed: {len(check_failures)}")
    for message in check_failures[:20] + errors:
        print(f"  FAIL {message}")
    print(f"fingerprint {','.join(sorted(str(p) for p in prints))}"
          + ("" if len(prints) == 1 else "  (rounds differ: not deterministic)"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    if args.trace:
        values = per_layer(result, units)
        print(result["self_time_table"])
        print(f"spans written to {os.path.relpath(result['spans_path'], ROOT)}")
    else:
        values, pct, samples = end_to_end(rounds, setup_s)
        print(f"setup_s over {len(setup)} fresh interpreters: "
              + ", ".join(f"{s:.3f}" for s in setup))
        print(f"measure_ms_tail is p{pct:g} of {samples} samples")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
