"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

from modelsync.cli import main
from modelsync.consistency import FindingKind, check
from modelsync.correction import Policy, apply, propose, resolve
from modelsync.model import model_equal
from modelsync.plantuml import parse_plantuml, render_plantuml
from modelsync.pycode import parse_code, render_code_skeleton

from modelgen import OPERATORS, make_code_model, make_plantuml_model, mutate
from helpers import class_named


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    print(f"\n[acceptance] {name}: PASS")


def _checked(model_text: str, code_text: str):
    design = parse_plantuml(model_text).model
    code_doc = parse_code(code_text)
    report = check(design, code_doc.model)
    return design, code_doc, report


def test_criterion_1_drift_reproduction(drifted_model_text,
                                        drifted_code_text):
    with criterion("1 drift-reproduction"):
        started = time.perf_counter()
        design, code_doc, report = _checked(drifted_model_text,
                                            drifted_code_text)
        elapsed = time.perf_counter() - started
        errors = report.error_findings()

        categories = {f.kind for f in errors}
        assert categories == {
            FindingKind.CONSTRUCTOR_ARITY_MISMATCH,
            FindingKind.PROBABLE_RENAME,
            FindingKind.PARAM_TYPE_MISMATCH,
            FindingKind.ATTRIBUTE_TYPE_MISMATCH,
        }, f"unexpected categories {categories}"

        arity = [f for f in errors
                 if f.kind is FindingKind.CONSTRUCTOR_ARITY_MISMATCH]
        assert len(arity) == 1
        assert arity[0].model_loc.class_name == "User"
        assert "takes 1 parameter(s) in the design model but 2" in \
            arity[0].detail

        renames = [f for f in errors
                   if f.kind is FindingKind.PROBABLE_RENAME]
        assert any(f.model_loc.member == "getNamae" and
                   f.code_loc.member == "getName" for f in renames)

        param = [f for f in errors
                 if f.kind is FindingKind.PARAM_TYPE_MISMATCH]
        assert len(param) == 1
        assert param[0].model_loc.class_name == "UserCard"
        assert "'String'" in param[0].detail and "'int'" in param[0].detail

        attr = [f for f in errors
                if f.kind is FindingKind.ATTRIBUTE_TYPE_MISMATCH]
        assert len(attr) == 1
        assert attr[0].model_loc.member == "userID"

        assert elapsed < 1.0, f"check took {elapsed:.3f}s"


def test_criterion_2_correction_duality(drifted_model_text,
                                        drifted_code_text):
    with criterion("2 correction-duality"):
        design, code_doc, report = _checked(drifted_model_text,
                                            drifted_code_text)
        sets = propose(report, design, code_doc)
        param_set = next(s for s in sets if s.finding_kind is
                         FindingKind.PARAM_TYPE_MISMATCH)

        model_alt = param_set.side("model")
        code_alt = param_set.side("code")
        assert model_alt is not None and code_alt is not None
        assert "'int'" in model_alt.description
        assert "'str'" in code_alt.description

        for alt in (model_alt, code_alt):
            new_model, new_code = apply(design, code_doc, [alt])
            re_report = check(parse_plantuml(
                render_plantuml(new_model)).model,
                parse_code(new_code).model)
            assert param_set.finding_id not in \
                {f.id for f in re_report.findings}, \
                f"{alt.side} alternative did not clear the finding"

        # the code-side alternative produces the annotated constructor
        _, new_code = apply(design, code_doc, [code_alt])
        assert "def __init__(self, userID: str):" in new_code


def test_criterion_3_detailed_pair_sync(v2_model_text, v2_code_text):
    with criterion("3 detailed-pair-sync"):
        started = time.perf_counter()
        design, code_doc, report = _checked(v2_model_text, v2_code_text)
        errors = report.error_findings()

        missing_classes = {f.model_loc.class_name for f in errors
                           if f.kind is FindingKind.MISSING_CLASS_IN_CODE}
        assert missing_classes == {"UserCard", "CounterStaff",
                                   "LendingInformation"}

        missing_methods = {(f.model_loc.class_name, f.model_loc.member)
                           for f in errors
                           if f.kind is FindingKind.MISSING_METHOD_IN_CODE}
        assert missing_methods >= {
            ("User", "selectBook"), ("User", "returnBook"),
            ("Book", "getBookInfo"),
            ("Library", "openShelf"), ("Library", "closeShelf")}

        missing_in_model = {f.code_loc.member for f in errors
                            if f.kind is
                            FindingKind.MISSING_METHOD_IN_MODEL}
        assert missing_in_model == {"add_book", "add_user", "lend_book",
                                    "return_book", "check_overdue_books"}

        sets = propose(report, design, code_doc)
        chosen = resolve(sets, Policy.UNION)
        new_model, new_code = apply(design, code_doc, chosen)
        out_model = render_plantuml(new_model)

        library = class_named(new_model, "Library")
        assert {"addBook", "addUser", "lendBook", "returnBook",
                "checkOverdueBooks"} <= {m.name for m in library.methods}
        merged_code = parse_code(new_code)
        assert {"UserCard", "CounterStaff", "LendingInformation"} <= \
            {c.name for c in merged_code.model.classes}

        re_report = check(parse_plantuml(out_model).model,
                          merged_code.model)
        assert re_report.error_findings() == ()

        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"check+sync took {elapsed:.3f}s"


def test_criterion_4_round_trip_suite(v1_model_text, drifted_model_text,
                                      v2_model_text, merged_model_text,
                                      v1_code_text, drifted_code_text,
                                      v2_code_text, merged_code_text):
    with criterion("4 round-trip-suite"):
        model_fixtures = (v1_model_text, drifted_model_text, v2_model_text,
                          merged_model_text)
        for text in model_fixtures:
            model = parse_plantuml(text).model
            assert model_equal(parse_plantuml(render_plantuml(model)).model,
                               model)

        code_fixtures = (v1_code_text, drifted_code_text, v2_code_text,
                         merged_code_text)
        for text in code_fixtures:
            model = parse_code(text).model
            assert model_equal(
                parse_code(render_code_skeleton(model)).model, model)

        passed = 0
        for seed in range(200):
            model = make_plantuml_model(random.Random(seed))
            assert model_equal(parse_plantuml(render_plantuml(model)).model,
                               model), f"diagram round trip, seed {seed}"
            passed += 1
        assert passed == 200

        passed = 0
        for seed in range(200):
            model = make_code_model(random.Random(10_000 + seed))
            assert model_equal(
                parse_code(render_code_skeleton(model)).model, model), \
                f"code round trip, seed {seed}"
            passed += 1
        assert passed == 200


def test_criterion_5_mutation_oracle_suite():
    with criterion("5 mutation-oracle-suite"):
        detected = 0
        converged = 0
        seed = 0
        while detected < 300:
            seed += 1
            rng = random.Random(20_000 + seed)
            base = make_code_model(rng)
            op = OPERATORS[seed % len(OPERATORS)]
            side = "model" if seed % 2 else "code"
            mutation = mutate(rng, base, op, side)
            if mutation is None:
                continue
            if side == "model":
                model_text = render_plantuml(mutation.mutated)
                code_text = render_code_skeleton(base)
            else:
                model_text = render_plantuml(base)
                code_text = render_code_skeleton(mutation.mutated)

            design, code_doc, report = _checked(model_text, code_text)
            errors = report.error_findings()
            assert errors, f"seed {seed} {op}/{side}: not detected"
            assert errors[0].kind is mutation.expected, \
                f"seed {seed} {op}/{side}: top kind {errors[0].kind}"
            detected += 1

            sets = propose(report, design, code_doc)
            for policy in (Policy.MODEL_WINS, Policy.CODE_WINS,
                           Policy.UNION):
                chosen = resolve(sets, policy)
                new_model, new_code = apply(design, code_doc, chosen)
                re_report = check(
                    parse_plantuml(render_plantuml(new_model)).model,
                    parse_code(new_code).model)
                assert re_report.error_findings() == (), \
                    f"seed {seed} {op}/{side} {policy.value}: no convergence"
            converged += 1
        assert detected >= 300 and converged >= 300


def test_criterion_6_offline_pipeline(capsys, monkeypatch, tmp_path,
                                      fixtures_dir, llm_fixtures_dir,
                                      v2_model_text):
    with criterion("6 offline-pipeline"):
        def no_network(*args, **kwargs):
            raise AssertionError("network access attempted")
        monkeypatch.setattr("socket.socket.connect", no_network)

        status = main(["gen", str(fixtures_dir / "library_problem.txt"),
                       "--what", "both", "--transport", "fixtures",
                       "--fixtures-dir", str(llm_fixtures_dir),
                       "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert status == 0

        generated = parse_plantuml(
            (tmp_path / "model.puml").read_text(encoding="utf-8")).model
        assert model_equal(generated, parse_plantuml(v2_model_text).model)
        code_model = parse_code(
            (tmp_path / "code.py").read_text(encoding="utf-8")).model
        assert len(code_model.classes) >= 3


def test_criterion_7_determinism(capsys, tmp_path, drifted_model_text,
                                 drifted_code_text, fixtures_dir,
                                 llm_fixtures_dir):
    with criterion("7 determinism"):
        model = tmp_path / "model.puml"
        code = tmp_path / "code.py"
        model.write_text(drifted_model_text, encoding="utf-8")
        code.write_text(drifted_code_text, encoding="utf-8")

        reports = []
        for _ in range(2):
            status = main(["check", str(model), str(code), "--json"])
            assert status == 1
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        json.loads(reports[0])  # well-formed

        artifacts = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            status = main(["sync", str(model), str(code),
                           "--policy", "code-wins",
                           "--out-dir", str(out_dir)])
            capsys.readouterr()
            assert status == 0
            artifacts.append(((out_dir / "model.puml").read_bytes(),
                              (out_dir / "code.py").read_bytes()))
        assert artifacts[0] == artifacts[1]

        gens = []
        gen_dir = tmp_path / "gen"
        for _ in range(2):
            status = main(["gen", str(fixtures_dir / "library_problem.txt"),
                           "--what", "both", "--transport", "fixtures",
                           "--fixtures-dir", str(llm_fixtures_dir),
                           "--out-dir", str(gen_dir), "--json"])
            out = capsys.readouterr().out
            assert status == 0
            gens.append(((gen_dir / "model.puml").read_bytes(),
                         (gen_dir / "code.py").read_bytes(),
                         out[out.index("{"):]))
        assert gens[0] == gens[1]
