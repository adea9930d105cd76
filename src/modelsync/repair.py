"""The write path: chosen corrections become patched, re-checked text.

``resolve`` picks one alternative per :class:`CorrectionSet` under a
policy:

* ``model-wins`` edits the code, ``code-wins`` edits the model
* ``union`` adds missing entities to whichever side lacks them and, for
  value conflicts, imposes the preferred side's value (default: model)

``apply`` then builds the edited model, to be re-rendered canonically,
and compiles code edits down to span-based text patches
(spliced by :mod:`.pywrite`), so method bodies and comments survive
byte-for-byte.  Both halves take one edited class at a time.  In the
code, each edited def or attribute line is compiled once from all of its
edits; a new constructor signature takes in the retypes of the
parameters it keeps, and an assignment ``self.A = p`` from a parameter it
drops reads the new parameter that canonically names ``A``, or is
refused at its line when ``p`` was annotated.  Any other read of a
dropped parameter in the body is refused at its line, and so are two
retypes of one parameter that spell different annotations.  ``apply``
groups the chosen edits by side and class in one pass, and each half
takes its own groups.  Insertions that share a
line go innermost block first: a line added to a constructor that ends
its class before the stubs appended to that class, and those before an
added class.  The future import follows
the names the code edits spell: when one of them is a name Python does not
define, ``from __future__ import annotations`` goes in before the first
future import, else after a module docstring, else before the first line
that is not a comment.  The rest asks for corrections on the terminal,
re-parses ``sync``'s outputs and names the paths they go to;
``modelsync.cli`` writes them.

Only ``sync`` imports this module, when it runs, so ``check`` and ``gen``
never compile it; the old import paths (``modelsync.correction.apply``,
...) still resolve to the names here.  The code-text half lives in its own
module because CPython's compile of a module takes space in proportion to
its size, on top of the program already loaded: one module of both halves
raised the peak RSS of a small ``sync`` by about 0.7 MB.
"""

from __future__ import annotations

import builtins
import os
from enum import Enum
from pathlib import Path

from .correction import CorrectionEdit, CorrectionSet, _require_pair
from .errors import DanglingParameterError, EditConflictError, ParseError
from .model import (UML_TO_PY, Attribute, ClassDef, ClassModel, Method,
                    Parameter, SourceSpan, TypeRef, normalize_name,
                    spell_type)
from .pycode import CodeDocument, scan_attr_line, scan_def_line
from .pywrite import (CodeEdit, apply_code_edits, attr_assignment,
                      block_delete_span, body_indent, dialect_lines,
                      first_read, future_import_line, init_stub,
                      member_indent, method_stub, params_text,
                      placeholder_rhs, render_class_stub)


# the kinds of edit that ``CorrectionEdit`` names
_KINDS = frozenset({"add-class", "add-member", "rename", "change-type",
                    "change-signature", "remove-class", "remove-member"})


class Policy(Enum):
    MODEL_WINS = "model-wins"
    CODE_WINS = "code-wins"
    UNION = "union"


def resolve(sets: list[CorrectionSet], policy: Policy,
            preferred_side: str = "model") -> list[CorrectionEdit]:
    """Pick one alternative per set according to the policy."""
    chosen: list[CorrectionEdit] = []
    for s in sets:
        if policy is Policy.MODEL_WINS:
            pick = s.side("code")
        elif policy is Policy.CODE_WINS:
            pick = s.side("model")
        else:  # union: add what one side lacks, else follow preferred_side
            pick = next((a for a in s.alternatives
                         if a.kind.startswith("add-")), None)
            if pick is None:
                pick = s.side("code" if preferred_side == "model"
                              else "model")
        if pick is not None:
            chosen.append(pick)
    return chosen


def apply(design: ClassModel, code_doc: CodeDocument,
          chosen: list[CorrectionEdit]) -> tuple[ClassModel, str]:
    """Apply chosen edits; returns the new model and the patched code text.

    The edits must come from ``propose`` on this ``design`` and
    ``code_doc``; edits of another pair raise StaleReportError, and an
    edit of an unknown kind raises EditConflictError.  ``new_model`` is
    built once: each class and member an edit changes is a new record,
    each added one is the edit's own payload (``propose`` built it as a
    private copy), and every other one is shared with ``design``, so
    treat all of them as values (callers re-render the model).  The code
    is patched span-wise so untouched bytes survive verbatim.
    """
    # each side's edits by the class they edit, and the classes each side
    # adds, in the order chosen
    by_class: dict[tuple[str, int], list[CorrectionEdit]] = {}
    added: dict[str, list[ClassDef]] = {"model": [], "code": []}
    for edit in chosen:
        if edit.kind not in _KINDS:
            raise EditConflictError(f"unknown edit kind {edit.kind!r}")
        if edit.kind == "add-class":
            added[edit.side].append(edit.payload)
        else:
            by_class.setdefault((edit.side, id(edit.cls)), []).append(edit)
    _require_pair(design, code_doc, chosen)
    names = _Spellings()
    code_edits: list[CodeEdit] = []
    for cls in code_doc.model.classes:
        own = by_class.get(("code", id(cls)))
        if own:
            code_edits += _edited_code(code_doc, cls, own, names)
    if added["code"]:
        # after the last class, in the order chosen
        last_line = max((c.span.end_line for c in code_doc.model.classes),
                        default=dialect_lines(code_doc)[1])
        code_edits += [_insertion(code_doc, "insert-class", last_line + 1,
                                  ["", *render_class_stub(cls, names)])
                       for cls in added["code"]]
    code_edits += _future_import(code_doc, names)
    code_edits += _final_newline(code_doc, code_edits)
    # the splice keeps the listed order of insertions at one point, so
    # this closes the innermost block first
    code_edits.sort(key=lambda e: _DEPTH.get(e.kind, 0))

    patched = (apply_code_edits(code_doc, code_edits)
               if code_edits else code_doc.raw_text)
    return _edited_model(design, by_class, added["model"]), patched


# --- model-side edits ------------------------------------------------------

def _edited_model(design: ClassModel,
                  by_class: dict[tuple[str, int], list[CorrectionEdit]],
                  added: list[ClassDef]) -> ClassModel:
    """``design`` with the model edits applied: each class they touch, by
    ``("model", id(cls))`` in ``by_class``, is built once from its edits,
    every other class is shared, and the ``added`` classes go last."""
    classes, relationships = [], list(design.relationships)
    for cls in design.classes:
        own = by_class.get(("model", id(cls)), ())
        if any(e.kind == "remove-class" for e in own):
            key = normalize_name(cls.name)
            relationships = [r for r in relationships if key not in (
                normalize_name(r.left), normalize_name(r.right))]
        else:
            classes.append(_edited_class(cls, own) if own else cls)
    return ClassModel(classes + added, relationships)


def _edited_class(cls: ClassDef, edits: list[CorrectionEdit]) -> ClassDef:
    """A new ``cls`` with its member edits applied: each changed member is
    a new record, and each unchanged or added one is shared."""
    # the fields each edited member changes, by its id; None removes it
    changes: dict[int, dict | None] = {}
    for edit in edits:
        if edit.kind == "add-member":
            continue
        fields = changes.setdefault(id(edit.member), {})
        if edit.kind == "remove-member":
            changes[id(edit.member)] = None
        elif edit.kind == "rename":
            fields["name"] = edit.payload
        elif edit.kind == "change-signature":
            fields["params"] = list(edit.payload)
        elif isinstance(edit.member, Attribute):
            fields["type"] = edit.payload
        elif edit.param_index is None:
            fields["return_type"] = edit.payload
        else:
            params = fields.setdefault("params", list(edit.member.params))
            params[edit.param_index] = params[edit.param_index].replace(
                type=edit.payload)
    members = [m.replace(**changes[id(m)]) if id(m) in changes else m
               for m in (*cls.attributes, *cls.methods)
               if changes.get(id(m), {}) is not None]
    members += [e.payload for e in edits if e.kind == "add-member"]
    return cls.replace(
        attributes=[m for m in members if isinstance(m, Attribute)],
        methods=[m for m in members if isinstance(m, Method)])


# --- code-side edits -------------------------------------------------------

def _layout(doc: CodeDocument, member):
    """The layout of a method's def line or of an attribute's
    ``self.x = ...`` line, and the line's number."""
    assert member.span is not None
    line_no = member.span.start_line
    scan = scan_attr_line if isinstance(member, Attribute) else scan_def_line
    layout = scan(doc.line(line_no))
    if layout is None:
        raise EditConflictError(
            f"cannot re-scan the line declaring {member.name!r}")
    return layout, line_no


# the block each kind of insertion goes into, innermost first: the
# newline ending a last line that has none, the module's head, a line of a
# constructor's body, a member of a class, a class
_DEPTH = {"insert-newline": 0, "insert-future": 1, "insert-body": 2,
          "insert-member": 3, "insert-class": 4}


def _insertion(doc: CodeDocument, kind: str, line: int,
               lines: list[str]) -> CodeEdit:
    """``lines`` inserted before line ``line``."""
    return _on_line(doc, kind, line, 0, 0, "\n".join(lines) + "\n")


def _final_newline(doc: CodeDocument, edits: list[CodeEdit]
                   ) -> list[CodeEdit]:
    """The newline a text whose last line has none needs before the
    insertions after that line, so that they start on a line of their own;
    none when that line is deleted."""
    if not edits or doc.raw_text[-1:] in ("", "\n"):
        return []
    end = len(doc.lines())  # the line after the last
    if (not any(e.kind.startswith("insert") and e.span.start_line == end
                for e in edits)
            or any(e.kind == "delete-span" and e.span.end_line == end
                   for e in edits)):
        return []
    return [_insertion(doc, "insert-newline", end, [""])]


class _Spellings(dict):
    """``UML_TO_PY``, remembering what it gave for each name looked up
    through it: the type names that the code edits of one ``apply`` call
    spell."""

    def __init__(self) -> None:
        super().__init__(UML_TO_PY)
        self.spelled: set[str] = set()

    def get(self, name, default=None):
        spelled = super().get(name, default)
        self.spelled.add(spelled)
        return spelled


def _future_import(doc: CodeDocument, names: _Spellings) -> list[CodeEdit]:
    """The import that leaves annotations unevaluated, when the code edits
    spelled a name Python does not define and the text lacks it, at the
    line :func:`.pywrite.future_import_line` picks."""
    if names.spelled.issubset(vars(builtins)):
        return []
    line = future_import_line(doc)
    if line is None:
        return []
    return [_insertion(doc, "insert-future", line,
                       ["from __future__ import annotations"])]


def _edited_code(doc: CodeDocument, cls: ClassDef,
                 edits: list[CorrectionEdit],
                 names: _Spellings) -> list[CodeEdit]:
    """The text edits that apply ``edits`` to ``cls``: its deletions, its
    insertions, and one compile of each line that declares a member they
    edit, from all of that member's edits."""
    ctor = cls.constructor()
    out: list[CodeEdit] = []
    stub_attrs: list[Attribute] = []  # added to a class with no __init__
    by_member: dict[int, list[CorrectionEdit]] = {}
    for edit in edits:
        member = edit.payload if edit.kind == "add-member" else edit.member
        if edit.kind == "remove-class":
            out.append(CodeEdit("delete-span", block_delete_span(cls.span)))
        elif edit.kind == "remove-member":
            out.append(CodeEdit("delete-span",
                                block_delete_span(member.span)))
        elif edit.kind != "add-member":
            by_member.setdefault(id(member), []).append(edit)
        elif isinstance(member, Method):
            out.append(_insertion(
                doc, "insert-member", cls.span.end_line + 1,
                method_stub(" " * member_indent(doc, cls), member, names)))
        elif ctor is None:
            stub_attrs.append(member)
        else:
            out.append(_insertion(
                doc, "insert-body", ctor.span.end_line + 1,
                [attr_assignment(" " * body_indent(doc, ctor), member)]))
    if stub_attrs:
        out.append(_insertion(
            doc, "insert-member", cls.span.start_line + 1,
            init_stub(" " * member_indent(doc, cls), [], stub_attrs, names)))

    sources = {p.name: i for i, p in enumerate(ctor.params)} if ctor else {}
    # attributes first: one whose type comes from a constructor
    # parameter's annotation is retyped on the constructor's def line
    for member in (*cls.attributes, *cls.methods):
        own = by_member.get(id(member))
        if not own:
            continue
        layout, line_no = _layout(doc, member)
        params = None  # the new signature
        types: dict[int, TypeRef] = {}  # new parameter types, by index
        for edit in own:
            if edit.kind == "rename":
                out.append(_on_line(doc, "rename-identifier", line_no,
                                    layout.name_start, layout.name_end,
                                    edit.payload))
            elif edit.kind == "change-signature":
                params = edit.payload
            elif isinstance(member, Attribute) and layout.rhs in sources:
                by_member.setdefault(id(ctor), []).append(edit._replace(
                    member=ctor, param_index=sources[layout.rhs]))
            elif isinstance(member, Attribute):
                out.append(_on_line(doc, "set-annotation", line_no,
                                    layout.rhs_start, layout.rhs_end,
                                    placeholder_rhs(edit.payload)))
            elif edit.param_index is not None:
                # a parameter's own retype and one routed from its
                # attribute must write one annotation
                first = types.setdefault(edit.param_index, edit.payload)
                old, new = (spell_type(t, "python", UML_TO_PY)
                            for t in (first, edit.payload))
                if old != new:
                    raise EditConflictError(
                        f"{doc.artifact}:{line_no}: parameter "
                        f"'{member.params[edit.param_index].name}' of "
                        f"'{member.name}' is retyped both '{old}' and "
                        f"'{new}'")
            else:
                # an unannotated return is unknown, which no type mismatches
                assert layout.ret is not None
                spelled = spell_type(edit.payload, "python", names)
                out.append(_on_line(doc, "set-annotation", line_no,
                                    layout.ret_start, layout.ret_end,
                                    f"-> {spelled}" if spelled else ""))
        if params is not None:
            # the new signature takes in the retypes of the parameters it
            # keeps; a retype of one it drops writes nothing
            kept = {member.params[i].name: t for i, t in types.items()}
            out.append(_on_line(
                doc, "set-annotation", line_no, layout.lparen + 1,
                layout.rparen, params_text([
                    p.replace(type=kept.get(p.name, p.type)) for p in params],
                    names)))
            if member is ctor:
                out += _kept_sources(doc, cls, ctor, params, edits)
            continue
        for i, wanted in types.items():
            pl = layout.params[i + 1]  # params[0] is the receiver
            spelled = spell_type(wanted, "python", names)
            start, end = ((pl.annot_start, pl.annot_end)
                          if pl.annotation is not None
                          else (pl.name_end, pl.name_end))
            out.append(_on_line(doc, "set-annotation", line_no, start, end,
                                f": {spelled}" if spelled else ""))
    return out + _emptied_body_fills(doc, cls, out)


def _on_line(doc: CodeDocument, kind: str, line: int, start: int, end: int,
             payload: str) -> CodeEdit:
    """An edit of columns ``start`` to ``end`` (from 0, end excluded) of
    line ``line``."""
    return CodeEdit(kind, SourceSpan(doc.artifact, line, start + 1, line,
                                     end + 1), payload)


def _kept_sources(doc: CodeDocument, cls: ClassDef, ctor: Method,
                  params: tuple[Parameter, ...],
                  edits: list[CorrectionEdit]) -> list[CodeEdit]:
    """The edits for each ``self.A = p`` in the constructor's body that
    none of ``edits`` removes and whose ``p`` its new signature ``params``
    drops: ``p`` becomes the new parameter whose name canonically matches
    ``A``, the attribute's name after any rename in ``edits``.

    With no such parameter, an annotated ``p`` raises
    DanglingParameterError: the attribute's type comes from that
    annotation, so its re-parsed type would turn unknown and the re-check
    would pass without seeing the loss.  An unannotated ``p`` is still
    written dangling: the attribute's type was unknown before and stays
    so.  Any other read of a dropped ``p`` in the body, outside the lines
    of removed attributes, raises DanglingParameterError at its line.
    """
    kept = {p.name for p in params}
    dropped = {p.name: p for p in ctor.params if p.name not in kept}
    if not dropped:
        return []
    removed = {id(e.member) for e in edits if e.kind == "remove-member"}
    renamed = {id(e.member): e.payload for e in edits if e.kind == "rename"}
    out: list[CodeEdit] = []
    handled: set[int] = set()  # the lines deleted or checked here
    for attr in cls.attributes:
        if id(attr) in removed:
            handled.add(attr.span.start_line)
            continue
        layout, line_no = _layout(doc, attr)
        if layout.rhs not in dropped:
            continue
        handled.add(line_no)
        key = normalize_name(renamed.get(id(attr), attr.name))
        source = next((p.name for p in params
                       if normalize_name(p.name) == key), None)
        if source is not None:
            out.append(_on_line(doc, "rename-identifier", line_no,
                                layout.rhs_start, layout.rhs_end, source))
        elif dropped[layout.rhs].type.kind != "unknown":
            raise DanglingParameterError(
                f"{doc.artifact}:{line_no}: 'self.{attr.name}' is assigned "
                f"from parameter '{layout.rhs}', which the new signature "
                f"of '{ctor.name}' drops")
    read = first_read(doc, ctor, dropped, handled)
    if read is not None:
        raise DanglingParameterError(
            f"{doc.artifact}:{read[0]}: the body reads parameter "
            f"'{read[1]}', which the new signature of '{ctor.name}' drops")
    return out


def _emptied_body_fills(doc: CodeDocument, cls: ClassDef,
                        edits: list[CodeEdit]) -> list[CodeEdit]:
    """A ``pass`` for ``cls``'s body or its constructor's, when ``edits``,
    the class's own, delete all of its statements and insert no line into
    it: a member into the class, a body line into the constructor."""
    deleted = {n for e in edits if e.kind == "delete-span"
               for n in range(e.span.start_line, e.span.end_line)}
    if not deleted:
        return []
    fills: list[CodeEdit] = []
    for block, kind in ((cls, "insert-member"),
                        (cls.constructor(), "insert-body")):
        if block is None or block.span.start_line in deleted:
            continue
        start, end = block.span.start_line, block.span.end_line
        body = range(start + 1, end + 1)
        # a kept line that is neither blank nor a comment is a statement
        if (deleted.isdisjoint(body)
                or any(n not in deleted
                       and doc.line(n).lstrip()[:1] not in ("", "#")
                       for n in body)
                or any(e.kind == kind and start < e.span.start_line
                       <= end + 1 for e in edits)):
            continue
        indent = (member_indent(doc, cls) if block is cls
                  else body_indent(doc, block))
        fills.append(_insertion(doc, kind, end + 1, [" " * indent + "pass"]))
    return fills


# --- sync's outputs --------------------------------------------------------

def ask(sets: list[CorrectionSet]) -> list[CorrectionEdit]:
    """Let the user pick an alternative per set, or skip it, on stdin."""
    chosen: list[CorrectionEdit] = []
    for i, s in enumerate(sets, 1):
        print(f"\n[{i}/{len(sets)}] {s.finding.detail}")
        for j, alt in enumerate(s.alternatives, 1):
            print(f"  {j}. [{alt.side}] {alt.description}")
        while True:
            try:
                answer = input(
                    f"Choose 1-{len(s.alternatives)} or s to skip: ")
            except EOFError:
                return chosen
            answer = answer.strip().lower()
            if answer == "s":
                break
            if answer.isdigit() and 1 <= int(answer) <= len(s.alternatives):
                chosen.append(s.alternatives[int(answer) - 1])
                break
    return chosen


def reparse(parse, text: str, artifact: str):
    """Parse a corrected output; a failure says that nothing was written."""
    try:
        return parse(text, artifact=artifact)
    except ParseError as exc:
        raise ParseError(f"{exc.args[0]} (in the corrected output; "
                         f"nothing written)", artifact=exc.artifact,
                         line=exc.line, col=exc.col) from exc


def output_paths(args) -> tuple[str, str]:
    """Where ``sync`` writes the model and the code.  Raises OSError when
    both would land on one file, so the case is refused before any input
    is read."""
    if args.in_place:
        model_out, code_out = args.model, args.code
    else:
        out_dir = Path(args.out_dir)
        model_out = str(out_dir / Path(args.model).name)
        code_out = str(out_dir / Path(args.code).name)
    if os.path.realpath(model_out) == os.path.realpath(code_out):
        raise OSError(f"{args.model} and {args.code} would both be written "
                      f"to {model_out}")
    return model_out, code_out
