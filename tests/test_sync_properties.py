"""Two properties of ``sync``, over every golden sync pair and the 600
pairs of the mutation suite, under each policy.

(a) Exit 0 means the written pair re-checks with no error finding; exit 1
    names each finding that remains and writes nothing; nothing raises.
(b) A second ``sync`` of a converged output chooses no correction and
    writes the same bytes.

The command runs in process, ``cli.cmd_sync`` itself, with its file reads
and its write served from a dict, so that some 3,600 runs take seconds.  An
exception that ``main`` would turn into an exit status fails the test.
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest

from modelsync import cli

from conftest import fixture_text
from helpers import mutation_pairs
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


def _holds(files: dict[str, bytes], model: str, code: str,
           policy: str) -> list[str] | None:
    """Check (a) and (b) on one pair; the details of the findings that
    remain, or None when the pair converges."""
    status, _, err = _sync(files, model.encode(), code.encode(), policy)
    if status == 1:
        m = _REMAIN.fullmatch(err)
        assert m is not None, err
        details = [line[4:] for line in m[2].splitlines()]
        assert int(m[1]) == len(details) > 0
        assert OUT_MODEL not in files and OUT_CODE not in files
        return details
    assert status == 0 and err == "", err
    written = files[OUT_MODEL], files[OUT_CODE]
    # the second run checks the written pair: this line says that it has
    # no error finding and that no correction was chosen
    status, out, err = _sync(files, *written, policy)
    assert (status, err) == (0, "")
    assert out.startswith("already synchronized; artifacts unchanged\n")
    assert (files[OUT_MODEL], files[OUT_CODE]) == written
    return None


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_golden_pairs_converge_and_resync_unchanged(files, pair, policy):
    model, code = (fixture_text(path.removeprefix("fixtures/"))
                   for path in PAIRS[pair])
    assert _holds(files, model, code, policy) is None


@pytest.mark.parametrize("policy", POLICIES)
def test_mutation_pairs_converge_or_name_what_remains(files, policy):
    unconverged = {}
    for seed, stacked, model, code in mutation_pairs(300):
        remains = _holds(files, model, code, policy)
        if remains is not None:
            unconverged[seed, stacked] = remains
    assert set(unconverged) == {(seed, True) for seed in UNCONVERGED[policy]}
    for details in unconverged.values():
        assert all(d.startswith("constructor parameter ") for d in details)
