"""Steadiness check: two sets of runs of one commit, compared.

    python3 perfbench/steady.py --seeds 10

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed, for
seeds 1..N, then the same runs again as a second set.  For each workload
and end-to-end metric it prints both sets' medians and quartiles, each
set's spread (inter-quartile distance over the median), how much the
second median is worse than the first, and whether the two agree within the bound ``BENCHMARK.json`` gives
the metric: every spread but set-up time's within the bound, and the
second median not worse than the first by more than it.  It also requires
every seed's fingerprint (measurement count, simulated cycles, GA
evaluations and every checked droop) and failed share to be identical in
both sets.  Per-run values are saved to ``--out``
(``perfbench/out/steady.json``).
Exits 1 if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from metrics import quartiles, spread, worsening
from run import HERE, ROOT, load_spec, run_limit_s


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
        timeout=run_limit_s(seconds) + 30,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["fingerprint"] = next(
        (line.split()[1] for line in lines if line.startswith("fingerprint ")),
        None,
    )
    return result


def collect(spec: dict, seeds: int) -> dict:
    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict = {w: [[], []] for w in workloads}
    for index in range(2):
        for workload in workloads:
            for seed in range(1, seeds + 1):
                result = one_run(workload, seed, spec["run_seconds"])
                result["seed"] = seed
                runs[workload][index].append(result)
                values = ", ".join(
                    f"{name} {m['value']:.4g}"
                    for name, m in result["metrics"].items()
                )
                print(f"set {'AB'[index]} {workload} seed {seed}: {values}",
                      flush=True)
    return runs


def report(spec: dict, runs: dict) -> bool:
    ok = True
    for workload, sets in runs.items():
        print(f"\n{workload} ({len(sets[0])} seeds per set)\n")
        print("| metric | set A median [q1, q3] | spread A | "
              "set B median [q1, q3] | spread B | B worse by | bound | agree |")
        print("|---|---|---|---|---|---|---|---|")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, spreads, medians = [], [], []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
                spreads.append(spread(values))
                medians.append(median)
            worse = worsening(medians[0], medians[1], metric["better"])
            agree = worse <= bound and (
                name == "setup_s" or max(spreads) <= bound)
            ok &= agree
            print(f"| {name} ({metric['unit']}) | {cells[0]} | "
                  f"{spreads[0]:.1%} | {cells[1]} | {spreads[1]:.1%} | "
                  f"{worse:+.1%} | {bound:.0%} | {'yes' if agree else 'NO'} |")
        for a, b in zip(*sets):
            same = (a["fingerprint"] == b["fingerprint"]
                    and a["failed"] * b["attempted"] == b["failed"] * a["attempted"]
                    and a["correct"] and b["correct"])
            if not same:
                ok = False
                print(f"seed {a['seed']}: sets differ or a check failed: "
                      f"fingerprints {a['fingerprint']} / {b['fingerprint']}, "
                      f"failed {a['failed']}/{a['attempted']} and "
                      f"{b['failed']}/{b['attempted']}, correct "
                      f"{a['correct']} / {b['correct']}")
    print("\nall agree" if ok else "\nDISAGREEMENT")
    return ok


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(HERE, "out", "steady.json"),
                        help="where to save the per-run values")
    args = parser.parse_args()
    runs = collect(spec, args.seeds)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(runs, handle)
    return 0 if report(spec, runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
