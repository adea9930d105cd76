"""scripts/bench_pairs.py compares parent and change runs as its text says."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.0, 2.0, 3.0, 4.0, 5.0]
CHANGE = [0.5, 2.0, 2.5, 3.5, 6.0]   # better, tied, better, better, worse


def _runs(parent=PARENT, change=CHANGE, name="check_s"):
    runs = []
    for pair, values in enumerate(zip(parent, change), start=1):
        for side, value in zip(("parent", "change"), values):
            runs.append({"side": side, "pair": pair, "correct": True,
                         "failed": 0,
                         "metrics": {name: {"value": value, "unit": "s"}}})
    return runs


def test_wins_count_pairs_and_ties_count_for_neither_side(bench_pairs):
    [row] = bench_pairs.compare(_runs(), {"check_s": True})
    assert (row["name"], row["unit"], row["won"], row["pairs"]) == \
        ("check_s", "s", 3, 5)


def test_a_higher_is_better_metric_counts_its_wins_the_other_way(
        bench_pairs):
    [row] = bench_pairs.compare(_runs(name="ratio"), {"ratio": False})
    assert row["won"] == 1


def test_a_metric_missing_from_the_benchmark_counts_lower_as_better(
        bench_pairs):
    assert bench_pairs.compare(_runs(), {})[0]["won"] == 3


def test_median_gap_and_parent_quartile_spread(bench_pairs):
    [row] = bench_pairs.compare(_runs(), {"check_s": True})
    # statistics.quantiles(n=4) of 1..5 is 1.5, 3.0, 4.5
    assert row["parent"] == (1.5, 3.0, 4.5)
    assert row["change"][1] == 2.5
    assert row["gap"] == pytest.approx(0.5)
    assert row["spread"] == pytest.approx(3.0)
    # the gap is a distance: a slower change has a positive gap too
    [slower] = bench_pairs.compare(_runs(CHANGE, PARENT), {"check_s": True})
    assert slower["gap"] == pytest.approx(0.5)
    assert slower["won"] == 1


def test_summary_prints_each_metric_on_one_line(bench_pairs, capsys):
    runs = _runs()
    runs[0]["failed"] = 1
    bench_pairs.summarize(runs, {"check_s": True})
    assert capsys.readouterr().out.splitlines() == [
        "5 pairs; runs incorrect or with failed commands: 1",
        "check_s [s]: parent 3.0000 (1.5000-4.5000); change 2.5000 "
        "(1.2500-4.7500); change won 3/5; median gap 0.5000, parent "
        "quartile spread 3.0000; change/parent median 0.8750, 95% interval "
        "0.5000-1.2000: no change detectable at 5 pairs",
    ]


def _noisy(shift: float, noise: float, pairs: int = 10) -> list[dict]:
    rng = random.Random(7)
    parent = [1.0 + rng.gauss(0, noise) for _ in range(pairs)]
    change = [shift * (1.0 + rng.gauss(0, noise)) for _ in range(pairs)]
    return _runs(parent, change)


def test_identical_sides_report_no_change(bench_pairs, capsys):
    [row] = bench_pairs.compare(_runs(PARENT, PARENT), {"check_s": True})
    assert row["ratio"] == (1.0, 1.0, 1.0)
    bench_pairs.summarize(_runs(PARENT, PARENT), {"check_s": True})
    assert capsys.readouterr().out.splitlines()[1].endswith(
        "; change/parent median 1.0000, 95% interval 1.0000-1.0000: "
        "no change detectable at 5 pairs")


def test_a_5_percent_shift_under_1_percent_noise_shows_at_10_pairs(
        bench_pairs, capsys):
    runs = _noisy(1.05, 0.01)
    [row] = bench_pairs.compare(runs, {"check_s": True})
    median, low, high = row["ratio"]
    assert 1.0 < low <= median <= high
    assert median == pytest.approx(1.05, abs=0.01)
    bench_pairs.summarize(runs, {"check_s": True})
    assert "no change detectable" not in capsys.readouterr().out
    # the same noise with no shift is not read as a change
    [row] = bench_pairs.compare(_noisy(1.0, 0.01), {"check_s": True})
    assert row["ratio"][1] <= 1.0 <= row["ratio"][2]


RUN_STDOUT = """\
python 3.11.7 at /usr/bin/python3; 2 cpus
rounds: 12; reference process median 0.0210 s
check: median 0.2410 s wall, 0.2048 s scaled, over 12 runs; p8 0.2600 s \
wall (10 of 12 runs beyond); max rss 20.3 MB
sync_model_wins: median 0.2891 s wall, 0.2477 s scaled, over 12 runs; \
tail needs at least 11 runs; max rss 22.3 MB
gen: median 0.1467 s wall, 0.1289 s scaled, over 12 runs; tail needs at \
least 11 runs; max rss 15.8 MB
setup: median 0.2100 s wall over 3
{"correct": true, "attempted": 36, "failed": 0, "metrics": {}}
"""


def test_command_rss_reads_each_command_line(bench_pairs):
    assert bench_pairs.command_rss(RUN_STDOUT) == {
        "check": 20.3, "sync_model_wins": 22.3, "gen": 15.8}
    assert bench_pairs.command_rss("setup: median 0.2 s wall over 3\n") == {}


def test_summary_ends_with_each_command_s_median_rss_per_side(
        bench_pairs, capsys):
    runs = _runs()
    for run, check in zip(runs, [20.0, 19.0, 21.0, 18.0, 22.0, 17.0,
                                 20.5, 18.5, 20.0, 19.5]):
        run["max_rss_mb"] = {"check": check, "gen": 15.5}
    bench_pairs.summarize(runs, {"check_s": True})
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "max rss of check [MB], median: parent 20.50; change 18.50",
        "max rss of gen [MB], median: parent 15.50; change 15.50",
    ]


def test_checkouts_resolve_paths_of_equal_length(bench_pairs, tmp_path,
                                                 monkeypatch):
    for name in ("par", "chg", "change"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)
    root = tmp_path.resolve()
    assert bench_pairs.checkouts(Path("par"), Path("./chg")) == {
        "parent": root / "par", "change": root / "chg"}


def test_checkouts_of_unequal_path_length_exit_with_a_message(
        bench_pairs, tmp_path, monkeypatch):
    for name in ("par", "change"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.checkouts(Path("par"), Path("change"))
    root = tmp_path.resolve()
    assert str(exit_.value) == (
        f"checkout paths differ in length: {root / 'par'} and "
        f"{root / 'change'}; that alone moves peak_rss_mb by about 0.2 MB, "
        "so use paths of equal length")


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_checkout_holding_bytecode_caches_stops_the_script_before_any_run(
        bench_pairs, tmp_path, monkeypatch, side):
    for name in ("par", "chg"):
        (tmp_path / name / "src" / "pkg").mkdir(parents=True)
    cache = tmp_path / {"parent": "par", "change": "chg"}[side] / "src" / \
        "pkg" / "__pycache__"
    cache.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", pytest.fail)
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "par", "chg", "--workload", "fixtures",
        "--first-seed", "1", "--out", "runs.json"])
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main()
    assert str(exit_.value) == (
        f"the {side} checkout holds bytecode caches ({cache.resolve()}); a "
        "side that reads them skips compiling and runs faster, so remove "
        "every __pycache__ under src/")
    assert not (tmp_path / "runs.json").exists()


def test_unequal_checkout_paths_stop_the_script_before_any_run(
        bench_pairs, tmp_path, monkeypatch):
    for name in ("par", "change"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", pytest.fail)
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "par", "change", "--workload", "fixtures",
        "--first-seed", "1", "--out", "runs.json"])
    with pytest.raises(SystemExit, match="differ in length"):
        bench_pairs.main()
    assert not (tmp_path / "runs.json").exists()
