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
spread.  Beside them it prints the median of the per-pair ratios
change/parent and a bootstrap 95% interval of that median (the pairs
resampled with replacement, from a fixed seed); when the interval holds
1.0, the line says that no change is detectable at that number of pairs.
Each run record also keeps, under ``max_rss_mb``, the ``max rss`` that
``perfbench/run.py`` prints for each command, and the summary ends with
their medians per side, so a memory change shows which command sets
``peak_rss_mb``.  The run length (``run_seconds``) and which direction is
better come from ``BENCHMARK.json`` in the change checkout.

The script exits with a message before any run when the two checkouts'
resolved paths differ in length, since the length of the path a program is
run from moves its peak RSS by about 0.2 MB on its own, or when either
holds a ``__pycache__`` under ``src/``, since a side that reads cached
bytecode skips the compiling that ``perfbench/run.py`` times.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# a per-command line of perfbench/run.py, e.g.
# "check: median 0.24 s wall, ...; max rss 20.3 MB"
COMMAND_RSS = re.compile(r"^(\S+): median .*; max rss ([0-9.]+) MB$",
                         re.MULTILINE)
# resamples of the pairs behind each ratio interval, and their seed
BOOTSTRAP_DRAWS = 2000
BOOTSTRAP_SEED = 0


def command_rss(stdout: str) -> dict[str, float]:
    """The ``max rss`` of each command in ``perfbench/run.py``'s output,
    in MB, by command label."""
    return {label: float(mb) for label, mb in COMMAND_RSS.findall(stdout)}


def checkouts(parent: Path, change: Path) -> dict[str, Path]:
    """Each side's checkout, resolved; exits when the two paths differ in
    length or either holds bytecode caches under ``src/``."""
    paths = {"parent": parent.resolve(), "change": change.resolve()}
    if len(str(paths["parent"])) != len(str(paths["change"])):
        raise SystemExit(
            f"checkout paths differ in length: {paths['parent']} and "
            f"{paths['change']}; that alone moves peak_rss_mb by about "
            "0.2 MB, so use paths of equal length")
    for side, path in paths.items():
        caches = sorted((path / "src").rglob("__pycache__"))
        if caches:
            raise SystemExit(
                f"the {side} checkout holds bytecode caches ({caches[0]}); "
                "a side that reads them skips compiling and runs faster, "
                "so remove every __pycache__ under src/")
    return paths


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``checkout``: its final JSON line, with the
    ``max rss`` of each command added as ``max_rss_mb``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark failed in {checkout} "
                         f"(exit {done.returncode})")
    return {**json.loads(lines[-1]), "max_rss_mb": command_rss(done.stdout)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def ratio_interval(ratios: list[float]) -> tuple[float, float, float]:
    """The median of ``ratios`` and a seeded bootstrap 95% interval of it:
    the 2.5th and 97.5th percentiles of the medians of ``BOOTSTRAP_DRAWS``
    resamples of ``ratios`` drawn with replacement."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_DRAWS))
    return (statistics.median(ratios), medians[BOOTSTRAP_DRAWS // 40],
            medians[BOOTSTRAP_DRAWS - 1 - BOOTSTRAP_DRAWS // 40])


def compare(runs: list[dict], lower: dict[str, bool]) -> list[dict]:
    """One row per metric of ``runs``: each side's quartiles, the pairs the
    change won (ties count for neither side; ``lower`` says whether lower
    is better, default yes), the gap between the medians, the parent's
    quartile spread, and the median change/parent ratio with its interval
    (:func:`ratio_interval`)."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    rows = []
    for name in sorted({name for run in runs for name in run["metrics"]}):
        values = {side: [p[side]["metrics"][name]["value"]
                         for p in pairs.values()] for side in SIDES}
        sign = 1 if lower.get(name, True) else -1
        won = sum(1 for p in pairs.values()
                  if sign * p["change"]["metrics"][name]["value"]
                  < sign * p["parent"]["metrics"][name]["value"])
        q = {side: quartiles(values[side]) for side in SIDES}
        ratios = [change / parent for parent, change
                  in zip(values["parent"], values["change"])]
        rows.append({"name": name, "unit": runs[0]["metrics"][name]["unit"],
                     **q, "won": won, "pairs": len(pairs),
                     "gap": abs(q["change"][1] - q["parent"][1]),
                     "spread": q["parent"][2] - q["parent"][0],
                     "ratio": ratio_interval(ratios)})
    return rows


def rss_medians(runs: list[dict]) -> dict[str, dict[str, float]]:
    """The median ``max rss`` of each command on each side, in MB; runs
    recorded without ``max_rss_mb`` count for no command."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for label, mb in run.get("max_rss_mb", {}).items():
            values.setdefault(label, {}).setdefault(run["side"], []).append(mb)
    return {label: {side: statistics.median(v) for side, v in sides.items()}
            for label, sides in sorted(values.items())}


def summarize(runs: list[dict], lower: dict[str, bool]) -> None:
    bad = [run for run in runs if not run["correct"] or run["failed"]]
    rows = compare(runs, lower)
    print(f"{len({run['pair'] for run in runs})} pairs; runs incorrect or "
          f"with failed commands: {len(bad)}")
    for row in rows:
        cells = [f"{side} {row[side][1]:.4f} ({row[side][0]:.4f}-"
                 f"{row[side][2]:.4f})" for side in SIDES]
        print(f"{row['name']} [{row['unit']}]: {'; '.join(cells)}; "
              f"change won {row['won']}/{row['pairs']}; median gap "
              f"{row['gap']:.4f}, parent quartile spread {row['spread']:.4f}"
              f"{_ratio_text(row)}")
    for label, medians in rss_medians(runs).items():
        cells = [f"{side} {medians[side]:.2f}" for side in SIDES
                 if side in medians]
        print(f"max rss of {label} [MB], median: {'; '.join(cells)}")


def _ratio_text(row: dict) -> str:
    median, low, high = row["ratio"]
    text = (f"; change/parent median {median:.4f}, 95% interval "
            f"{low:.4f}-{high:.4f}")
    if low <= 1.0 <= high:
        text += f": no change detectable at {row['pairs']} pairs"
    return text


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

    sides = checkouts(args.parent, args.change)
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    runs = []
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            result = run_once(sides[side], args.workload, seed,
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
