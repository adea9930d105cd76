"""Correctness gates for each command's output.

The code side is read with the standard library's ``ast`` and the model
side with a small reader of its own, never with the program's parsers, so
a parser bug cannot hide in its own output.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter

from workloads import canonical

# type spellings the checker treats as one type
_EQUIVALENT = {"String": "str", "boolean": "bool"}

_CLASS_RE = re.compile(r"^class\s+(\w+)\s*\{$")
_METHOD_RE = re.compile(r"^[+\-#]\s*(\w+)\s*\((.*)\)\s*(?::\s*(\S+))?$")
_ATTR_RE = re.compile(r"^[+\-#]\s*(\w+)\s*(?::\s*(\S+))?$")
_CTOR = "<init>"


class Members:
    """Per class: methods as {name: (arity, return type)}, attributes as
    {name: typed}, keyed by canonical names; constructors key as <init>."""

    def __init__(self) -> None:
        self.methods: dict[str, dict[str, tuple[int, str | None]]] = {}
        self.attrs: dict[str, dict[str, bool]] = {}

    def add_class(self, name: str) -> None:
        self.methods[canonical(name)] = {}
        self.attrs[canonical(name)] = {}


def _norm_type(t: str | None) -> str | None:
    if t is None or t in ("void", "None"):
        return None
    return _EQUIVALENT.get(t, t)


def read_model(text: str) -> Members:
    out = Members()
    cls = None
    for raw in text.split("\n"):
        line = raw.strip()
        if cls is None:
            m = _CLASS_RE.match(line)
            if m:
                cls = m.group(1)
                out.add_class(cls)
            continue
        if line == "}":
            cls = None
            continue
        m = _METHOD_RE.match(line)
        if m:
            name, params, ret = m.groups()
            arity = len([p for p in params.split(",") if p.strip()])
            key = _CTOR if name == cls else canonical(name)
            out.methods[canonical(cls)][key] = (arity, _norm_type(ret))
            continue
        a = _ATTR_RE.match(line)
        if a:
            out.attrs[canonical(cls)][canonical(a.group(1))] = \
                a.group(2) is not None
    return out


def read_code(text: str) -> Members:
    out = Members()
    for node in ast.parse(text).body:
        if not isinstance(node, ast.ClassDef):
            continue
        key = canonical(node.name)
        out.add_class(node.name)
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            ret = fn.returns.id if isinstance(fn.returns, ast.Name) else None
            name = _CTOR if fn.name == "__init__" else canonical(fn.name)
            out.methods[key][name] = (len(fn.args.args) - 1, _norm_type(ret))
            if fn.name == "__init__":
                _read_ctor_attrs(fn, out.attrs[key])
    return out


def _read_ctor_attrs(fn: ast.FunctionDef, attrs: dict[str, bool]) -> None:
    annotated = {a.arg for a in fn.args.args if a.annotation is not None}
    for stmt in fn.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            value = stmt.value
            typed = (isinstance(value, ast.Name) and value.id in annotated) \
                or (isinstance(value, ast.Constant)
                    and isinstance(value.value, bool))
            attrs.setdefault(canonical(target.attr), typed)


def winner_kept(winner: Members, other: Members) -> list[str]:
    """Differences by which ``other`` fails to carry ``winner``'s structure.

    Every class of the winner exists in the other output with the same
    non-constructor methods (name and arity), equal return types where
    both are declared, the same constructor arity when both have one, and
    every attribute the winner types.
    """
    problems = []
    for cls, methods in winner.methods.items():
        if cls not in other.methods:
            problems.append(f"class {cls} missing")
            continue
        theirs = other.methods[cls]
        mine_names = {n for n in methods if n != _CTOR}
        their_names = {n for n in theirs if n != _CTOR}
        if mine_names != their_names:
            problems.append(f"{cls}: methods differ by "
                            f"{sorted(mine_names ^ their_names)}")
        for name, (arity, ret) in methods.items():
            if name not in theirs:
                continue
            t_arity, t_ret = theirs[name]
            if arity != t_arity:
                problems.append(f"{cls}.{name}: arity {arity} != {t_arity}")
            elif ret and t_ret and ret != t_ret:
                problems.append(f"{cls}.{name}: returns {ret} != {t_ret}")
        for attr, typed in winner.attrs[cls].items():
            if typed and attr not in other.attrs[cls]:
                problems.append(f"{cls}.{attr}: attribute missing")
    return problems


def findings_of(report_text: str) -> Counter:
    """Findings of a JSON report as a multiset of the ledger's tuples."""
    report = json.loads(report_text)
    out: Counter = Counter()
    for f in report["findings"]:
        m, c = f["modelLocation"], f["codeLocation"]
        cls = (m or c)["class"]
        out[(f["kind"], cls, m and m["member"], c and c["member"])] += 1
    return out


def findings_match(report_text: str, expected: list[tuple]) -> list[str]:
    got = findings_of(report_text)
    want = Counter(tuple(e) for e in expected)
    if got == want:
        return []
    missing = sorted(want - got, key=str)[:3]
    extra = sorted(got - want, key=str)[:3]
    return [f"findings differ: missing {missing}, unexpected {extra}"]
