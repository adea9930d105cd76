"""Benchmark of the modelsync CLI: check, sync and gen on seeded inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rename-heavy --seed 1 \
        --seconds 30 --trace 0

With ``--trace 0`` every command runs as a child process,
``python -m modelsync.cli`` with ``PYTHONPATH=src``, one at a time (one
closed-loop client), the workload's commands interleaved round-robin.  A
time is wall seconds from spawn to exit, scaled by a reference process run
around it (see REFERENCE below).  With ``--trace 1`` the commands
run in this process under timing wrappers (see ``spans.py``) and the
per-layer metrics are printed instead.

Every output is checked against a known answer (see ``gates.py``); the
first run of each command is checked in full, later runs must repeat its
bytes.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the checkout must stay as it was

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import gates
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"   # git-ignored
SETUPS = 3           # set-ups per run; setup_s is their median
LAUNCHER_TIMEOUT = 130  # seconds to wait for the launcher to stop
START_SAMPLES = 5    # child runs behind each interpreter/import figure

# Machine speed drifts by up to a third, in phases of seconds to minutes.
# Each timed run therefore sits between two runs of this reference process,
# which uses only the interpreter and its standard library.  End-to-end
# times are the median ratio to the mean of the two, times
# REFERENCE_SECONDS, a round figure near the reference's wall time on the
# machine of the baseline in README.md.  They read as wall seconds on a
# machine where the reference takes REFERENCE_SECONDS.
REFERENCE = ("import argparse, copy, dataclasses, email.message, enum, "
             "hashlib, http.client, json, pathlib, re")
REFERENCE_SECONDS = 0.12


class Command:
    def __init__(self, label: str, argv: list[str], exit_code: int,
                 outputs: tuple[str, ...], gate):
        self.label = label
        self.argv = argv
        self.exit_code = exit_code
        self.outputs = outputs
        self.gate = gate
        self.accepted: str | None = None   # digest of the gated first run
        self.times: list[float] = []    # wall seconds
        self.ratios: list[float] = []   # wall / the reference runs around
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def make_commands(inputs: workloads.Inputs) -> list[Command]:
    def gate_check(stdout, base):
        return gates.findings_match(stdout, inputs.expected_findings)

    def gate_sync(winner, out_dir):
        def gate(stdout, base):
            out_model = (base / out_dir / "model.puml").read_text()
            out_code = (base / out_dir / "code.py").read_text()
            model_in = inputs.files["model.puml"]
            code_in = inputs.files["code.py"]
            try:
                if winner == "model":
                    problems = gates.winner_kept(gates.read_model(model_in),
                                                 gates.read_code(out_code))
                    kept = out_model == model_in
                else:
                    problems = gates.winner_kept(gates.read_code(code_in),
                                                 gates.read_model(out_model))
                    kept = out_code == code_in
            except SyntaxError as exc:
                return [f"output code does not parse: {exc}"]
            if not kept:
                problems.append(f"the {winner} side was rewritten")
            return problems
        return gate

    def gate_gen(stdout, base):
        try:
            gates.read_code((base / "out-gen" / "code.py").read_text())
        except SyntaxError as exc:
            return [f"generated code does not parse: {exc}"]
        return gates.findings_match(stdout, inputs.expected_gen_findings)

    check_exit = 1 if inputs.expected_findings else 0
    return [
        Command("check", ["check", "model.puml", "code.py", "--json"],
                check_exit, (), gate_check),
        Command("sync_model_wins",
                ["sync", "model.puml", "code.py", "--policy", "model-wins",
                 "--out-dir", "out-mw"], 0,
                ("out-mw/model.puml", "out-mw/code.py"),
                gate_sync("model", "out-mw")),
        Command("sync_code_wins",
                ["sync", "model.puml", "code.py", "--policy", "code-wins",
                 "--out-dir", "out-cw"], 0,
                ("out-cw/model.puml", "out-cw/code.py"),
                gate_sync("code", "out-cw")),
        Command("gen",
                ["gen", "problem.txt", "--what", "both", "--transport",
                 "fixtures", "--fixtures-dir", "llm", "--out-dir", "out-gen",
                 "--json"], 0,
                ("out-gen/model.puml", "out-gen/code.py"), gate_gen),
    ]


class Children:
    """Runs child processes through ``launcher.py`` in a pinned
    environment; start it before this process grows."""

    def __init__(self):
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", "-B", str(Path(__file__).parent /
                                              "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env: dict[str, str] = {}
        self.reference_times: list[float] = []

    def pin(self, home: Path) -> None:
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "HOME": str(home),
            "LC_ALL": "C.UTF-8",
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONNOUSERSITE": "1",
            "PYTHONHASHSEED": "0",
        }

    def run(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path):
        """Run ``python argv``; returns (wall seconds, exit code, max RSS
        in KB)."""
        request = {"argv": [sys.executable] + argv, "cwd": str(cwd),
                   "env": self.env, "stdout": str(stdout),
                   "stderr": str(stderr)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        reply = json.loads(reply)
        return reply["wall"], reply["code"], reply["rss_kb"]

    def reference(self, cwd: Path) -> float:
        """Wall seconds of one run of the reference process."""
        wall, code, _ = self.run(["-c", REFERENCE], cwd, cwd / "ref.out",
                                 cwd / "ref.err")
        if code != 0:
            raise RuntimeError("the reference process failed")
        self.reference_times.append(wall)
        return wall

    def close(self) -> None:
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=LAUNCHER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()


def fingerprint(exit_code: int, stdout: str, base: Path,
                outputs: tuple[str, ...]) -> str:
    h = hashlib.sha256(f"{exit_code}\0{stdout}".encode())
    for rel in outputs:
        path = base / rel
        h.update(b"\0" + (path.read_bytes() if path.exists() else b"-"))
    return h.hexdigest()


def judge(cmd: Command, exit_code: int, stdout: str, base: Path) -> bool:
    """Gate one run of ``cmd``; the first run is checked in full and
    later runs must repeat its bytes."""
    cmd.attempted += 1
    digest = fingerprint(exit_code, stdout, base, cmd.outputs)
    if digest == cmd.accepted:
        return True
    problems = []
    if exit_code != cmd.exit_code:
        problems.append(f"exit {exit_code}, expected {cmd.exit_code}")
    elif cmd.accepted is not None:
        problems.append("output differs from the first run")
    else:
        try:
            problems = cmd.gate(stdout, base)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    if problems:
        cmd.failed += 1
        cmd.problems.extend(problems[:3])
        return False
    cmd.accepted = digest
    return True


def exec_child(cmd: Command, base: Path, children) -> tuple[float, int]:
    wall, code, rss = children.run(["-m", "modelsync.cli"] + cmd.argv, base,
                                   base / f"{cmd.label}.out",
                                   base / f"{cmd.label}.err")
    stdout = (base / f"{cmd.label}.out").read_text()
    judge(cmd, code, stdout, base)
    return wall, rss


def set_up(workload: str, seed: int, work: Path, children) -> tuple:
    """Generate and write the inputs, then run one untimed check.
    Returns (seconds, inputs, directory)."""
    start = time.perf_counter()
    inputs = workloads.build(workload, seed, ROOT)
    base = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    inputs.write(base)
    children.run(["-m", "modelsync.cli", "check", "model.puml", "code.py",
                  "--json"], base, base / "warmup.out", base / "warmup.err")
    return time.perf_counter() - start, inputs, base


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it:
    (percentile, value, samples)."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1], len(ordered)


def measure_children(commands, base: Path, children, seconds: float) -> int:
    """Round-robin child runs, each between two runs of the reference
    process, until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    before = children.reference(base)
    while rounds == 0 or time.perf_counter() < deadline:
        for cmd in commands:
            wall, rss = exec_child(cmd, base, children)
            after = children.reference(base)
            cmd.times.append(wall)
            cmd.ratios.append(wall / ((before + after) / 2))
            cmd.rss_kb = max(cmd.rss_kb, rss)
            before = after
        rounds += 1
    return rounds


def scaled(ratios: list[float]) -> float:
    """Median ratio to the reference, in seconds at REFERENCE_SECONDS."""
    return statistics.median(ratios) * REFERENCE_SECONDS


def end_to_end(args, work: Path, children) -> dict:
    setups, setup_ratios = [], []
    before = children.reference(work)
    for _ in range(SETUPS):
        setups.append(set_up(args.workload, args.seed, work, children))
        after = children.reference(work)
        setup_ratios.append(setups[-1][0] / ((before + after) / 2))
        before = after
    inputs, base = setups[-1][1:]
    ledgers = {json.dumps(s[1].ledger(), sort_keys=True) for s in setups}
    report_inputs(inputs)
    commands = make_commands(inputs)
    rounds = measure_children(commands, base, children, args.seconds)

    print(f"rounds: {rounds}; reference process median "
          f"{statistics.median(children.reference_times):.4f} s")
    for cmd in commands:
        line = (f"{cmd.label}: median {statistics.median(cmd.times):.4f} s "
                f"wall, {scaled(cmd.ratios):.4f} s scaled, "
                f"over {len(cmd.times)} runs")
        t = tail(cmd.times)
        line += (f"; p{t[0]:.0f} {t[1]:.4f} s wall (10 of {t[2]} runs "
                 f"beyond)" if t else "; tail needs at least 11 runs")
        print(line + f"; max rss {cmd.rss_kb / 1024:.1f} MB")
    print(f"setup: median {statistics.median(s[0] for s in setups):.4f} s "
          f"wall over {SETUPS}")
    attempted = sum(c.attempted for c in commands)
    failed = sum(c.failed for c in commands)
    print(f"fail_ratio: {failed / attempted:.4f} ({failed}/{attempted})")
    report_problems(commands)

    by_label = {c.label: c for c in commands}
    metrics = {f"{label}_s": (scaled(by_label[label].ratios), "s")
               for label in ("check", "sync_model_wins", "sync_code_wins",
                             "gen")}
    metrics["peak_rss_mb"] = (max(c.rss_kb for c in commands) / 1024, "MB")
    metrics["setup_s"] = (scaled(setup_ratios), "s")
    return result(len(ledgers) == 1, attempted, failed, metrics)


def report_inputs(inputs: workloads.Inputs) -> None:
    for row in inputs.ledger():
        print("input {file}: sha256 {sha256} bytes {bytes} classes "
              "{classes} members {members}".format(**row))
    print(f"expected findings: {len(inputs.expected_findings)}")


def report_problems(commands) -> None:
    for cmd in commands:
        for problem in cmd.problems[:5]:
            print(f"FAILED {cmd.label}: {problem}", file=sys.stderr)


def result(correct: bool, attempted: int, failed: int, metrics) -> dict:
    return {"correct": correct and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


# --- traced run ------------------------------------------------------------

def start_costs(base: Path, children) -> dict:
    """Interpreter start, CLI import and the llm module's import time."""
    def median_wall(argv):
        return statistics.median(
            children.run(argv, base, base / "start.out",
                         base / "start.err")[0]
            for _ in range(START_SAMPLES))

    interpreter = median_wall(["-c", "pass"])
    cli_import = median_wall(["-c", "import modelsync.cli"])
    llm = []
    for _ in range(START_SAMPLES):
        children.run(["-X", "importtime", "-c",
                      "import modelsync.cli, modelsync.llm"],
                     base, base / "start.out", base / "start.err")
        llm.append(_cumulative_us((base / "start.err").read_text(),
                                  "modelsync.llm") / 1e6)
    return {"cli.interpreter_start_s": interpreter,
            "cli.import_s": cli_import - interpreter,
            "cli.import_llm_s": statistics.median(llm)}


def _cumulative_us(importtime: str, module: str) -> float:
    for line in importtime.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$",
                     line)
        if m and m.group(2) == module:
            return float(m.group(1))
    raise ValueError(f"{module} missing from -X importtime output")


def load_modules() -> dict:
    """Every module of the modelsync package, by short name."""
    sys.path.insert(0, str(ROOT / "src"))
    names = sorted(p.stem for p in (ROOT / "src" / "modelsync").glob("*.py")
                   if not p.stem.startswith("_"))
    return {n: importlib.import_module(f"modelsync.{n}") for n in names}


def run_in_process(modules, commands, base: Path) -> None:
    """One round of the workload's commands through ``cli.main``."""
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = modules["cli"].main(list(cmd.argv))
        judge(cmd, code, out.getvalue(), base)


def traced(args, work: Path, children) -> dict:
    _, inputs, base = set_up(args.workload, args.seed, work, children)
    report_inputs(inputs)
    commands = make_commands(inputs)
    for cmd in commands:   # gated child runs, which in-process runs repeat
        exec_child(cmd, base, children)
    metrics = start_costs(base, children)

    modules = load_modules()
    tracer = spans.Tracer(modules)
    cwd = os.getcwd()
    os.chdir(base)
    try:
        run_in_process(modules, commands, base)   # warm-up
        plain, with_spans, rounds = [], [], []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            start = time.perf_counter()
            run_in_process(modules, commands, base)
            plain.append(time.perf_counter() - start)

            first = len(tracer.spans)
            tracer.counts.clear()
            tracer.install()
            start = time.perf_counter()
            try:
                for i, cmd in enumerate(commands):
                    tracer.command = len(rounds) * len(commands) + i
                    run_in_process(modules, [cmd], base)
            finally:
                tracer.uninstall()
            with_spans.append(time.perf_counter() - start)
            rounds.append(tracer.layer_totals(first))
        peak = spans.alloc_peak(
            modules, lambda: run_in_process(modules, commands, base))
    finally:
        os.chdir(cwd)

    trace_path = WORK_ROOT / \
        f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_path, {
        r * len(commands) + i: cmd.argv
        for r in range(len(rounds)) for i, cmd in enumerate(commands)})
    print(f"traced rounds: {len(rounds)}; spans written to {trace_path}")
    for name in sorted(tracer.missing):
        print(f"not traced, absent from the program: {name}")

    layer = {k: statistics.median(r.get(k, 0.0) for r in rounds)
             for k in set().union(*rounds)}
    metrics.update(per_layer(layer))
    metrics["correction.apply_alloc_peak_mb"] = peak
    metrics["trace.overhead_ratio"] = \
        statistics.median(with_spans) / statistics.median(plain)
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {unit(name)}")
    attempted = sum(c.attempted for c in commands)
    failed = sum(c.failed for c in commands)
    report_problems(commands)
    return result(True, attempted, failed,
                  {k: (v, unit(k)) for k, v in metrics.items()})


# per-layer metrics taken as they are from the traced rounds
LAYER_VALUES = [
    "cli.main_s",
    "consistency.levenshtein_calls", "consistency.levenshtein_s",
    "consistency.annotated_findings_calls", "consistency.annotated_findings_s",
    "consistency.match_models_s", "consistency.fingerprint_text_s",
    "consistency.findings", "model.normalize_name_calls",
    "plantuml.parse_plantuml_s", "plantuml.parse_plantuml_calls",
    "pycode.parse_code_s", "pycode.parse_code_calls",
    "correction.apply_s", "correction.propose_s", "correction.resolve_s",
    "correction.edits_model", "correction.edits_code",
    "pycode.apply_code_edits_s", "pycode.code_edits",
    "pycode.lines_calls", "pycode.lines_s",
    "plantuml.render_plantuml_s", "plantuml.render_plantuml_calls",
    "llm.fixture_load_s", "llm.gen_model_s", "llm.gen_code_s",
]


def per_layer(layer: dict) -> dict:
    """Per round (one run of each command) medians, plus derived ratios.
    A layer the program no longer has reads 0."""
    def ratio(a, b):
        return layer.get(a, 0.0) / layer[b] if layer.get(b) else 0.0
    out = {k: layer.get(k, 0.0) for k in LAYER_VALUES}
    out["consistency.rename_accept_ratio"] = ratio(
        "consistency.renames", "consistency.levenshtein_calls")
    out["plantuml.parse_mb_per_s"] = ratio(
        "plantuml.parse_bytes", "plantuml.parse_plantuml_s") / 1e6
    out["pycode.parse_mb_per_s"] = ratio(
        "pycode.parse_bytes", "pycode.parse_code_s") / 1e6
    return out


def unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# --- entry point -----------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/modelsync/cli.py", workloads.FIXTURE_CODE)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a modelsync checkout: {', '.join(missing)} missing",
              file=sys.stderr)
        return 2

    children = Children()   # first, while this process is small
    try:
        return measure(args, children)
    finally:
        children.close()


def measure(args, children: Children) -> int:
    pycache = any((ROOT / "src").rglob("__pycache__"))
    print(f"python {sys.version.split()[0]} at {sys.executable}; "
          f"src bytecode cache present: {pycache}; "
          f"cpus: {os.cpu_count()}")
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    children.pin(work)
    print("child env: " + " ".join(f"{k}={v}" for k, v in
                                   sorted(children.env.items())
                                   if k.startswith(("PYTHON", "LC_"))))
    try:
        out = (traced if args.trace else end_to_end)(args, work, children)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
