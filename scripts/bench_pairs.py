"""Run the benchmark on two checkouts in alternated pairs and compare them.

Usage:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload rename-heavy \
        --pairs 10 --first-seed 101 --out BENCH_11.json

Pair ``i`` (from 1) runs ``perfbench/run.py --trace 0`` once in each
checkout, both on seed ``first_seed + i - 1``; the parent runs first on odd
pairs and the change first on even ones, so a drift of machine speed
within a pair does not favour one side.  Each run's JSON result line is
appended to ``--out`` with the side, workload, seed and pair added.  At the
end every end-to-end metric is printed with each side's median and
quartiles, the number of pairs the change won (ties count for neither
side), and the gap between the medians beside the parent's quartile
spread.  The run length (``run_seconds``) and which direction is better
come from ``BENCHMARK.json`` in the change checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``checkout``; its final JSON line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark failed in {checkout} "
                         f"(exit {done.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs: list[dict], lower: dict[str, bool]) -> None:
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    names = sorted({name for run in runs for name in run["metrics"]})
    bad = [run for run in runs if not run["correct"] or run["failed"]]
    print(f"{len(pairs)} pairs; runs incorrect or with failed commands: "
          f"{len(bad)}")
    for name in names:
        values = {side: [p[side]["metrics"][name]["value"]
                         for p in pairs.values()] for side in SIDES}
        sign = 1 if lower.get(name, True) else -1
        won = sum(1 for p in pairs.values()
                  if sign * p["change"]["metrics"][name]["value"]
                  < sign * p["parent"]["metrics"][name]["value"])
        unit = runs[0]["metrics"][name]["unit"]
        q = {side: quartiles(values[side]) for side in SIDES}
        cells = [f"{side} {q[side][1]:.4f} ({q[side][0]:.4f}-"
                 f"{q[side][2]:.4f})" for side in SIDES]
        print(f"{name} [{unit}]: {'; '.join(cells)}; "
              f"change won {won}/{len(pairs)}; median gap "
              f"{abs(q['change'][1] - q['parent'][1]):.4f}, parent quartile "
              f"spread {q['parent'][2] - q['parent'][0]:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON-lines file the runs are appended to")
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, seed,
                              spec["run_seconds"])
            run = {"side": side, "workload": args.workload, "seed": seed,
                   "pair": pair, **result}
            with args.out.open("a") as out:
                out.write(json.dumps(run) + "\n")
            runs.append(run)
            print(f"pair {pair} seed {seed} {side}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()),
                flush=True)
    summarize(runs, lower)
    return 0


if __name__ == "__main__":
    sys.exit(main())
