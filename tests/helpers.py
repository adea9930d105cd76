"""Lookups the tests use to inspect models, rename distances and def
lines, the drifted pairs of the mutation suite, and pairs drifted on both
sides."""

from __future__ import annotations

import functools
import random

from modelsync.consistency import levenshtein
from modelsync.model import ClassDef, ClassModel
from modelsync.plantuml import render_plantuml
from modelsync.pycode import render_code_skeleton

import defline_reference
from modelgen import OPERATORS, make_code_model, mutate


def class_named(model: ClassModel, name: str) -> ClassDef | None:
    for c in model.classes:
        if c.name == name:
            return c
    return None


def relative_distance(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def reference_accepts_non_python(line: str) -> bool:
    """True when the old def-line scanner (``defline_reference``) accepts a
    header that is not Python: an ``=`` with no default after it, or a
    return type holding a colon.  The scanner now rejects both."""
    layout = defline_reference.scan_def_line(line)
    return layout is not None and (
        ":" in (layout.ret or "")
        or any(p.default == "" for p in layout.params))


@functools.cache
def mutation_pairs(mutations: int) -> tuple[tuple[int, bool, str, str], ...]:
    """(seed, stacked, model text, code text) for the mutation suite's
    first ``mutations`` seeds that mutate, as ``test_acceptance`` draws
    them, each followed by the same seed with three further mutations
    stacked on the same side; ``seed`` is the ``random.Random`` seed, and
    ``stacked`` tells the second pair from the first.  Made once per
    pytest process and shared by the tests that ask."""
    pairs = []
    seed = 0
    found = 0
    while found < mutations:
        seed += 1
        rng = random.Random(20_000 + seed)
        base = make_code_model(rng)
        side = "model" if seed % 2 else "code"
        mutation = mutate(rng, base, OPERATORS[seed % len(OPERATORS)], side)
        if mutation is None:
            continue
        found += 1
        mutated = [mutation.mutated]
        stacked = mutation.mutated
        for _ in range(3):
            if not stacked.classes:
                break
            more = mutate(rng, stacked, rng.choice(OPERATORS), side)
            stacked = more.mutated if more is not None else stacked
        mutated.append(stacked)
        for is_stacked, model in zip((False, True), mutated):
            model_side, code_side = ((model, base) if side == "model"
                                     else (base, model))
            pairs.append((20_000 + seed, is_stacked,
                          render_plantuml(model_side),
                          render_code_skeleton(code_side)))
    return tuple(pairs)


@functools.cache
def drift_pairs(seeds: range = range(50_001, 50_401),
                rounds: tuple[int, ...] = (2, 4)
                ) -> tuple[tuple[int, int, str, str], ...]:
    """(seed, k, model text, code text) for two-sided drift: a
    ``make_code_model`` base drawn from ``random.Random(seed)`` on both
    sides, then k rounds that each mutate a side the same ``rng`` picks,
    while it has classes; a mutation that does not apply leaves its side
    as it was.  The first j rounds of a k-round walk are the j-round walk,
    so one walk per seed yields the pair for every k in ``rounds``."""
    pairs = []
    for seed in seeds:
        rng = random.Random(seed)
        base = make_code_model(rng)
        sides = {"model": base, "code": base}
        for done in range(1, max(rounds) + 1):
            side = rng.choice(("model", "code"))
            if sides[side].classes:
                mutation = mutate(rng, sides[side], rng.choice(OPERATORS),
                                  side)
                if mutation is not None:
                    sides[side] = mutation.mutated
            if done in rounds:
                pairs.append((seed, done, render_plantuml(sides["model"]),
                              render_code_skeleton(sides["code"])))
    return tuple(pairs)
