"""Properties of ``sync``, over every golden sync pair, the 600 pairs of
the mutation suite and 800 pairs drifted on both sides, under each policy.

(a) Exit 0 means the written pair re-checks with no error finding; exit 1
    names each finding that remains and writes nothing; nothing raises.
(b) A second ``sync`` of a converged output chooses no correction and
    writes the same bytes.
(c) The static half: no function of the written code reads a name that
    nothing binds.  The exec half: with its imports and classes run, each
    class constructs from None for each parameter, and each method that
    takes only ``self`` returns.  The few outputs that fail either are
    pinned by name.

The command runs in process, ``cli.cmd_sync`` itself, with its file reads
and its write served from a dict, so that some 8,000 runs take seconds.  An
exception that ``main`` would turn into an exit status fails the test.
"""

from __future__ import annotations

import ast
import builtins
import contextlib
import inspect
import io
import re
import symtable

import pytest

from modelsync import cli

from conftest import fixture_text
from helpers import drift_pairs, mutation_pairs
from test_golden import PAIRS

POLICIES = ("model-wins", "code-wins", "union")
MODEL, CODE = "in/m.puml", "in/c.py"
OUT_MODEL, OUT_CODE = "out/m.puml", "out/c.py"
_PARSER = cli._build_parser()
_REMAIN = re.compile(r"synchronization did not converge: (\d+) finding\(s\) "
                     r"remain\n((?:  - .*\n)+)nothing written\n")

# the seeds whose stacked pair does not converge, by policy: each leaves
# constructor parameters typed differently on the two sides
_STACKED_CTOR_PARAMS = {
    20005, 20015, 20051, 20077, 20081, 20107, 20125, 20135, 20143, 20149,
    20171, 20175, 20183, 20207, 20249, 20265, 20271, 20283, 20285, 20289,
    20303, 20311, 20321, 20333, 20345, 20349}
UNCONVERGED = {"model-wins": _STACKED_CTOR_PARAMS, "code-wins": set(),
               "union": _STACKED_CTOR_PARAMS}
# the drift seeds that do not converge under model-wins and union after
# 2 and after 4 rounds; each leaves one constructor parameter typed
# differently on the two sides
_DRIFT_2 = {50012, 50015, 50066, 50076, 50085, 50159, 50168, 50193, 50205,
            50208, 50214, 50224, 50232, 50242, 50246, 50283, 50317, 50364,
            50377, 50387, 50396}
_DRIFT_4 = _DRIFT_2 | {50029, 50052, 50067, 50069, 50110, 50145, 50149,
                       50160, 50188, 50238, 50249, 50273, 50274, 50346,
                       50351, 50357}
_DRIFT_CTOR_PARAMS = ({(seed, 2) for seed in _DRIFT_2}
                      | {(seed, 4) for seed in _DRIFT_4})
DRIFT_UNCONVERGED = {"model-wins": _DRIFT_CTOR_PARAMS, "code-wins": set(),
                     "union": _DRIFT_CTOR_PARAMS}
# the names a function of a converged golden output reads that nothing
# binds: a constructor still assigns from parameters its new signature
# dropped, with no new parameter named for the attribute (ROADMAP item 1)
_V1_UNBOUND = {"User.__init__: userCard"}
_CROSS_UNBOUND = {"Book.__init__: author", "User.__init__: phone"}
GOLDEN_UNBOUND = {("v1", "model-wins"): _V1_UNBOUND,
                  ("v1", "union"): _V1_UNBOUND,
                  ("cross", "model-wins"): _CROSS_UNBOUND,
                  ("cross", "union"): _CROSS_UNBOUND}
# the calls that raise in those outputs, by ``failing_calls``: each
# constructor that reads an unbound name
_V1_FAILING = {"User.__init__: NameError"}
_CROSS_FAILING = {"Book.__init__: NameError", "User.__init__: NameError"}
GOLDEN_FAILING = {("v1", "model-wins"): _V1_FAILING,
                  ("v1", "union"): _V1_FAILING,
                  ("cross", "model-wins"): _CROSS_FAILING,
                  ("cross", "union"): _CROSS_FAILING}


@pytest.fixture
def files(monkeypatch) -> dict[str, bytes]:
    """The files ``cmd_sync`` reads and writes, by path."""
    files: dict[str, bytes] = {}

    def read(path: str) -> tuple[bytes, str]:
        return files[path], files[path].decode("utf-8")

    def write(outputs: list[tuple[str, bytes]]) -> None:
        files.update(outputs)

    monkeypatch.setattr(cli, "_read_file", read)
    monkeypatch.setattr(cli, "write_atomically", write)
    return files


def _sync(files: dict[str, bytes], model: bytes, code: bytes,
          policy: str) -> tuple[int, str, str]:
    """``sync`` of ``model`` and ``code`` into ``out/``: its exit status,
    stdout and stderr."""
    files.clear()
    files.update({MODEL: model, CODE: code})
    args = _PARSER.parse_args(["sync", MODEL, CODE, "--policy", policy,
                               "--out-dir", "out"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.cmd_sync(args)
    return status, out.getvalue(), err.getvalue()


def unbound_reads(code: str) -> set[str]:
    """``FUNCTION: NAME`` for each name that a function of ``code`` reads
    and that nothing binds: no local or parameter of it or of a function
    around it, no module-level name and no builtin.  FUNCTION is
    qualified by the classes around it."""
    top = symtable.symtable(code, "<sync output>", "exec")
    bound = {s.get_name() for s in top.get_symbols()
             if s.is_assigned() or s.is_imported()} | set(vars(builtins))
    found = set()
    pending = [(table, "") for table in top.get_children()]
    while pending:
        table, outer = pending.pop()
        name = outer + table.get_name()
        pending += [(child, name + ".") for child in table.get_children()]
        if table.get_type() == "function":
            found |= {f"{name}: {s.get_name()}" for s in table.get_symbols()
                      if s.is_referenced() and s.is_global()
                      and s.get_name() not in bound}
    return found


def failing_calls(code: str) -> set[str]:
    """``CLASS.METHOD: ERROR`` for each call that raises when only the
    imports and class definitions of ``code`` run, in a fresh namespace
    with stdout captured: each class constructed with None for each of its
    constructor's parameters, then each method that takes only ``self``
    called on the instance; a class that does not construct has no method
    called."""
    tree = ast.parse(code)
    tree.body = [n for n in tree.body if isinstance(
        n, (ast.Import, ast.ImportFrom, ast.ClassDef))]
    namespace: dict = {}
    found = set()
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(tree, "<sync output>", "exec"), namespace)
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = namespace[node.name]
            init = vars(cls).get("__init__")
            try:
                instance = cls(*[None] * (init.__code__.co_argcount - 1
                                          if init else 0))
            except Exception as exc:
                found.add(f"{node.name}.__init__: {type(exc).__name__}")
                continue
            for name, f in vars(cls).items():
                if (inspect.isfunction(f) and f is not init
                        and f.__code__.co_argcount == 1):
                    try:
                        getattr(instance, name)()
                    except Exception as exc:
                        found.add(f"{node.name}.{name}: "
                                  f"{type(exc).__name__}")
    return found


def _holds(files: dict[str, bytes], model: str, code: str, policy: str
           ) -> tuple[list[str] | None, set[str], set[str]]:
    """Check (a) and (b) on one pair: the details of the findings that
    remain, or None when the pair converges; and, for (c), what
    ``unbound_reads`` and ``failing_calls`` find in the written code."""
    status, _, err = _sync(files, model.encode(), code.encode(), policy)
    if status == 1:
        m = _REMAIN.fullmatch(err)
        assert m is not None, err
        details = [line[4:] for line in m[2].splitlines()]
        assert int(m[1]) == len(details) > 0
        assert OUT_MODEL not in files and OUT_CODE not in files
        return details, set(), set()
    assert status == 0 and err == "", err
    written = files[OUT_MODEL], files[OUT_CODE]
    # the second run checks the written pair: this line says that it has
    # no error finding and that no correction was chosen
    status, out, err = _sync(files, *written, policy)
    assert (status, err) == (0, "")
    assert out.startswith("already synchronized; artifacts unchanged\n")
    assert (files[OUT_MODEL], files[OUT_CODE]) == written
    text = written[1].decode("utf-8")
    return None, unbound_reads(text), failing_calls(text)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_golden_pairs_converge_and_resync_unchanged(files, pair, policy):
    model, code = (fixture_text(path.removeprefix("fixtures/"))
                   for path in PAIRS[pair])
    assert _holds(files, model, code, policy) == (
        None, GOLDEN_UNBOUND.get((pair, policy), set()),
        GOLDEN_FAILING.get((pair, policy), set()))


def _unconverged_and_failing(files, pairs, policy):
    """The details of what remains for each pair that does not converge,
    by its key; and the ``unbound_reads`` and the ``failing_calls`` of
    each converged one that has any, by its key."""
    unconverged, unbound, failing = {}, {}, {}
    for key, model, code in pairs:
        remains, names, calls = _holds(files, model, code, policy)
        if remains is not None:
            unconverged[key] = remains
        if names:
            unbound[key] = names
        if calls:
            failing[key] = calls
    return unconverged, unbound, failing


@pytest.mark.parametrize("policy", POLICIES)
def test_mutation_pairs_converge_or_name_what_remains(files, policy):
    unconverged, unbound, failing = _unconverged_and_failing(
        files, (((seed, stacked), model, code)
                for seed, stacked, model, code in mutation_pairs(300)),
        policy)
    assert set(unconverged) == {(seed, True) for seed in UNCONVERGED[policy]}
    for details in unconverged.values():
        assert all(d.startswith("constructor parameter ") for d in details)
    assert unbound == {}
    assert failing == {}


@pytest.mark.parametrize("policy", POLICIES)
def test_drift_on_both_sides_converges_or_names_what_remains(files, policy):
    unconverged, unbound, failing = _unconverged_and_failing(
        files, (((seed, k), model, code)
                for seed, k, model, code in drift_pairs()), policy)
    assert set(unconverged) == DRIFT_UNCONVERGED[policy]
    for details in unconverged.values():
        assert len(details) == 1
        assert details[0].startswith("constructor parameter ")
    assert unbound == {}
    assert failing == {}
