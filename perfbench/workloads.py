"""Seeded inputs for the benchmark, each with a ledger of its drift.

The generator writes PlantUML and Python text itself rather than through
the program's renderers, so a change to a renderer cannot change the
inputs.  Every drifted method is recorded in the ledger as the finding
``modelsync check`` must report for it; the correctness gate compares the
two.

Names are random consonant-vowel words.  Within a class every model-only
name and every code-only name that should not pair as a rename stays
above the checker's rename threshold (relative edit distance 0.3), so the
ledger is exact; a class that draws a closer pair is drawn again.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

RENAME_THRESHOLD = 0.3  # the checker's default rename threshold
RENAME_SUFFIX = "_v2"
CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"

# (model spelling, code spelling); pairs the checker treats as equal types
SCALAR_TYPES = [("String", "str"), ("int", "int"), ("boolean", "bool"),
                ("float", "float")]

# the bundled drifted pair and the gen replay, read from the repository
FIXTURE_MODEL = "fixtures/library_v1_drifted_model.puml"
FIXTURE_CODE = "fixtures/library_v1_drifted_code.py"
FIXTURE_PROBLEM = "fixtures/library_problem.txt"
FIXTURE_LLM_DIR = "fixtures/llm"


@dataclass(frozen=True)
class Shape:
    classes: int
    methods: int
    attributes: int
    drift: float             # share of each class's methods that drift
    kinds: tuple[str, ...]   # drift kinds, in equal numbers


SHAPES = {
    # all-pairs rename matching dominates; parse, apply and render are small
    "rename-heavy": Shape(classes=3, methods=100, attributes=2, drift=0.5,
                          kinds=("rename",)),
    # parse, apply and render dominate; matching stays linear
    "wide-drift": Shape(classes=150, methods=12, attributes=6, drift=1 / 6,
                        kinds=("rename", "return", "missing", "extra")),
}
WORKLOADS = ("fixtures",) + tuple(SHAPES)


@dataclass
class Inputs:
    """The files a workload's commands read, plus what check must find."""

    files: dict[str, str] = field(default_factory=dict)
    # (kind, class, model member or None, code member or None)
    expected_findings: list[tuple] | None = None
    # findings of the gen replay, same tuple layout
    expected_gen_findings: list[tuple] | None = None

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for rel, text in self.files.items():
            path = directory / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")

    def ledger(self) -> list[dict]:
        """sha256, bytes, class and member counts of the model and code."""
        rows = []
        for name in ("model.puml", "code.py"):
            text = self.files[name]
            rows.append({
                "file": name,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "bytes": len(text.encode()),
                "classes": sum(1 for line in text.split("\n")
                               if line.startswith("class ")),
                "members": _count_members(name, text),
            })
        return rows


def _count_members(name: str, text: str) -> int:
    if name.endswith(".puml"):
        return sum(1 for line in text.split("\n")
                   if line.lstrip()[:1] in ("+", "-", "#"))
    return sum(1 for line in text.split("\n")
               if line.lstrip().startswith(("def ", "self.")))


def build(workload: str, seed: int, root: Path) -> Inputs:
    if workload == "fixtures":
        return _fixture_inputs(root)
    return generate(SHAPES[workload], seed, root)


def _expected() -> dict:
    return json.loads((Path(__file__).parent / "expected.json").read_text())


def _fixture_inputs(root: Path) -> Inputs:
    inputs = Inputs()
    inputs.files["model.puml"] = (root / FIXTURE_MODEL).read_text()
    inputs.files["code.py"] = (root / FIXTURE_CODE).read_text()
    inputs.expected_findings = [
        tuple(f) for f in _expected()["fixtures_check"]]
    _add_gen_inputs(inputs, root)
    return inputs


def _add_gen_inputs(inputs: Inputs, root: Path) -> None:
    """The requirements text and recorded exchanges the gen replay reads."""
    inputs.files["problem.txt"] = (root / FIXTURE_PROBLEM).read_text()
    for path in sorted((root / FIXTURE_LLM_DIR).glob("*.json")):
        inputs.files[f"llm/{path.name}"] = path.read_text()
    inputs.expected_gen_findings = [tuple(f) for f in _expected()["gen"]]


# --- generated shapes ------------------------------------------------------

def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS)
                   for _ in range(syllables))


def _camel(words: list[str]) -> str:
    return words[0] + "".join(w.capitalize() for w in words[1:])


def _snake(words: list[str]) -> str:
    return "_".join(words)


def canonical(name: str) -> str:
    """The checker's canonical name: lowercased, underscores removed."""
    return name.replace("_", "").lower()


def _levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _may_pair(a: str, b: str) -> bool:
    """True if a and b could sit within the rename threshold."""
    longest = max(len(a), len(b))
    limit = RENAME_THRESHOLD * longest
    # bag distance is a cheap lower bound of the edit distance
    ca, cb = Counter(a), Counter(b)
    bag = max(sum((ca - cb).values()), sum((cb - ca).values()))
    if bag > limit:
        return False
    return _levenshtein(a, b) <= limit


@dataclass
class _Method:
    words: list[str]
    params: list[tuple[str, int]]   # (name, type index)
    ret: int                        # type index
    drift: str | None = None
    code_ret: int | None = None


def _types(class_names: list[str]) -> list[tuple[str, str]]:
    return SCALAR_TYPES + [(n, n) for n in class_names]


def generate(shape: Shape, seed: int, root: Path | None = None) -> Inputs:
    """Inputs of ``shape``.  The seed picks names, types and which methods
    drift; the counts of classes, members and drifts of each kind and
    arity are fixed by the shape, so seeds differ little in work."""
    rng = random.Random(f"{seed}:{shape}")
    class_names = [f"{_word(rng, 2).capitalize()}{i}"
                   for i in range(shape.classes)]
    types = _types(class_names)
    per_class = round(shape.drift * shape.methods)
    kinds = [shape.kinds[i % len(shape.kinds)]
             for i in range(per_class * shape.classes)]
    rng.shuffle(kinds)
    model: list[str] = ["@startuml"]
    code: list[str] = ["from __future__ import annotations", ""]
    expected: list[tuple] = []
    for i, cname in enumerate(class_names):
        attrs, methods = _draw_class(
            rng, shape, len(types), kinds[i * per_class:(i + 1) * per_class])
        _emit_class(cname, attrs, methods, types, model, code, expected)
    for i in range(0, shape.classes - 1, 10):
        model.append(f'{class_names[i]} "1" -- "many" '
                     f'{class_names[i + 1]} : uses')
    model.append("@enduml")
    inputs = Inputs()
    inputs.files["model.puml"] = "\n".join(model) + "\n"
    inputs.files["code.py"] = "\n".join(code) + "\n"
    inputs.expected_findings = expected
    if root is not None:
        _add_gen_inputs(inputs, root)
    return inputs


def _pick_type(rng: random.Random, n_types: int) -> int:
    """Half scalar types, half references to generated classes."""
    if rng.random() < 0.5:
        return rng.randrange(len(SCALAR_TYPES))
    return rng.randrange(n_types)


def _draw_class(rng: random.Random, shape: Shape, n_types: int,
                kinds: list[str]):
    """Attributes and methods of one class; ``kinds[j]`` is the drift of
    the j-th drifted method, and drifted methods take arities 0, 1, 2 in
    turn, so rename candidates per arity are the same for every seed."""
    while True:
        used: set[str] = set()

        def fresh() -> list[str]:
            while True:
                # a fixed length, so seeds do not differ in matching cost
                words = [_word(rng, 3), _word(rng, 2)]
                key = "".join(words)
                if key not in used:
                    used.add(key)
                    return words

        attrs = [(fresh(), rng.randrange(len(SCALAR_TYPES)))
                 for _ in range(shape.attributes)]
        drifted = dict(zip(rng.sample(range(shape.methods), len(kinds)),
                           enumerate(kinds)))
        methods = []
        for i in range(shape.methods):
            j, kind = drifted.get(i, (None, None))
            arity = rng.randint(0, 2) if j is None else j % 3
            params = [(_word(rng, 2) + str(p), _pick_type(rng, n_types))
                      for p in range(arity)]
            m = _Method(fresh(), params, _pick_type(rng, n_types), kind)
            if kind == "return":
                m.code_ret = (m.ret + 1 + rng.randrange(n_types - 1)) \
                    % n_types
            methods.append(m)
        if _renames_exact(methods):
            return attrs, methods


def _renames_exact(methods: list[_Method]) -> bool:
    """No leftover pair other than the intended renames is close enough."""
    model_left, code_left = [], []
    for m in methods:
        name = "".join(m.words)
        if m.drift == "rename":
            model_left.append((name, m))
            code_left.append((canonical(_snake(m.words) + RENAME_SUFFIX), m))
        elif m.drift == "missing":
            model_left.append((name, m))
        elif m.drift == "extra":
            code_left.append((name, m))
    for a, ma in model_left:
        for b, mb in code_left:
            if ma is not mb and len(ma.params) == len(mb.params) \
                    and _may_pair(a, b):
                return False
    return True


def _emit_class(cname: str, attrs, methods: list[_Method], types,
                model: list[str], code: list[str],
                expected: list[tuple]) -> None:
    model.append(f"class {cname} {{")
    for words, t in attrs:
        model.append(f"  -{_camel(words)}: {types[t][0]}")
    ctor_m = ", ".join(f"{_camel(w)}: {types[t][0]}" for w, t in attrs)
    model.append(f"  +{cname}({ctor_m})")

    code.append("")
    code.append(f"class {cname}:")
    ctor_c = ", ".join(["self"] + [f"{_snake(w)}: {types[t][1]}"
                                   for w, t in attrs])
    code.append(f"    def __init__({ctor_c}):")
    for words, _ in attrs:
        code.append(f"        self.{_snake(words)} = {_snake(words)}")
    if not attrs:
        code.append("        pass")

    first_attr = _snake(attrs[0][0]) if attrs else None
    for m in methods:
        mname = _camel(m.words)
        params_m = ", ".join(f"{p}: {types[t][0]}" for p, t in m.params)
        if m.drift != "extra":
            model.append(f"  +{mname}({params_m}): {types[m.ret][0]}")
        if m.drift == "missing":
            expected.append(("MissingMethodInCode", cname, mname, None))
            continue
        cname_m = _snake(m.words)
        if m.drift == "rename":
            cname_m += RENAME_SUFFIX
            expected.append(("ProbableRename", cname, mname, cname_m))
        elif m.drift == "extra":
            expected.append(("MissingMethodInModel", cname, None, cname_m))
        ret = types[m.ret if m.code_ret is None else m.code_ret][1]
        if m.drift == "return":
            expected.append(("ReturnTypeMismatch", cname, mname, cname_m))
        sig = ", ".join(["self"] + [f"{p}: {types[t][1]}"
                                    for p, t in m.params])
        code.append("")
        code.append(f"    def {cname_m}({sig}) -> {ret}:")
        if first_attr is not None:
            code.append(f"        value = self.{first_attr}")
            code.append("        return value")
        else:
            code.append("        return None")
    model.append("}")
    model.append("")

