"""Differential tests of the q-gram indexed rename matcher against the
all-pairs one it replaced, kept in ``tests/rename_reference.py``."""

from __future__ import annotations

import random

from hypothesis import example, given, strategies as st

from modelsync import consistency
from modelsync.consistency import MatchOptions, check
from modelsync.model import ClassDef, ClassModel, Method, Parameter

from modelgen import drifted_names, make_code_model, perturbed
from rename_reference import reference_pair_renames

THRESHOLDS = (0, 0.1, 0.29, 0.3, 0.35, 0.6, 1.0, 2.0, float("nan"), -0.1)
NAME_MODES = ("canonical", "exact")


def _shape(result):
    renames, model_only, code_only = result
    return ([(id(r.model), id(r.code), r.distance, r.longest)
             for r in renames],
            [id(m) for m in model_only], [id(c) for c in code_only])


def _assert_same(model_left, code_left, opts, require_arity):
    got = consistency._pair_renames(list(model_left), list(code_left), opts,
                                    require_arity=require_arity)
    want = reference_pair_renames(model_left, code_left, opts,
                                  require_arity=require_arity)
    assert _shape(got) == _shape(want), (opts, require_arity)
    return len(want[0])


def test_indexed_matcher_matches_reference_on_seeded_pairs():
    renames = 0
    for seed in range(60):
        rng = random.Random(seed)
        design = make_code_model(rng)
        code = drifted_names(rng, design)
        for mode in NAME_MODES:
            for threshold in THRESHOLDS:
                opts = MatchOptions(name_mode=mode,
                                    rename_threshold=threshold)
                for mc, cc in zip(design.classes, code.classes):
                    m_left, c_left = consistency._pair_by_name(
                        [m for m in mc.methods if not m.is_constructor],
                        [m for m in cc.methods if not m.is_constructor],
                        opts, [])
                    a_left, b_left = consistency._pair_by_name(
                        mc.attributes, cc.attributes, opts, [])
                    for require_arity in (True, False):
                        renames += _assert_same(m_left, c_left, opts,
                                                require_arity)
                    renames += _assert_same(a_left, b_left, opts, False)
    assert renames > 1000


_names = st.text("abA_", min_size=1, max_size=5).filter(
    lambda s: s.replace("_", ""))
_members = st.lists(st.tuples(_names, st.integers(0, 2)), max_size=8)


def _methods(members):
    return [Method(name, [Parameter(f"p{k}") for k in range(arity)])
            for name, arity in members]


@given(_members, _members, st.sampled_from(THRESHOLDS),
       st.sampled_from(NAME_MODES), st.booleans())
@example([("aaab", 1), ("ab", 0)], [("aaaa", 1), ("aaab", 2), ("b", 0)],
         0.3, "exact", True)
@example([("aaab", 1), ("a", 0)], [("aaab", 2), ("b", 0), ("bb", 1)],
         0.35, "canonical", False)
# within the threshold yet sharing no padded bigram
@example([("a", 0)], [("b", 0)], 1.0, "exact", True)
@example([("ababa", 0)], [("bbbbb", 0)], 0.6, "exact", True)
def test_indexed_matcher_matches_reference_on_short_names(
        model, code, threshold, mode, require_arity):
    opts = MatchOptions(name_mode=mode, rename_threshold=threshold)
    _assert_same(_methods(model), _methods(code), opts, require_arity)


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("bdfgklmnprstvz") + rng.choice("aeiou")
                   for _ in range(rng.randint(2, 3)))


def _deep_pair(seed: int, classes: int = 5, methods: int = 200):
    """``classes`` classes of ``methods`` methods with two-word names;
    the code side renames every other method by one to five character
    edits."""
    rng = random.Random(seed)
    design, code = ClassModel(), ClassModel()
    for k in range(classes):
        names: dict[str, None] = {}
        while len(names) < methods:
            names[f"{_word(rng)}_{_word(rng)}"] = None
        members = [(name, rng.randint(0, 3)) for name in names]
        design.classes.append(ClassDef(f"C{k}", [], _methods(members)))
        code.classes.append(ClassDef(f"C{k}", [], _methods(
            [(perturbed(rng, name) if i % 2 else name, arity)
             for i, (name, arity) in enumerate(members)])))
    return design, code


def test_indexed_matcher_measures_few_pairs(monkeypatch):
    design, code = _deep_pair(1)
    pairs = 0
    indexed = consistency._pair_renames

    def counting_pairs(model_left, code_left, opts, *, require_arity):
        nonlocal pairs
        pairs += sum(not require_arity or m.arity == c.arity
                     for m in model_left for c in code_left)
        return indexed(model_left, code_left, opts,
                       require_arity=require_arity)

    calls = 0
    levenshtein = consistency.levenshtein

    def counting_levenshtein(a, b, limit=None):
        nonlocal calls
        calls += 1
        return levenshtein(a, b, limit)

    monkeypatch.setattr(consistency, "_pair_renames", counting_pairs)
    monkeypatch.setattr(consistency, "levenshtein", counting_levenshtein)
    got = check(design, code).findings
    assert pairs > 10_000
    assert calls < 0.1 * pairs, (calls, pairs)

    monkeypatch.setattr(consistency, "_pair_renames", reference_pair_renames)
    monkeypatch.setattr(consistency, "levenshtein", levenshtein)
    want = check(design, code).findings
    assert [(f.id, f.kind, f.detail) for f in got] == \
        [(f.id, f.kind, f.detail) for f in want]
