"""The write path: chosen corrections become patched text and written files.

``resolve`` picks one alternative per :class:`CorrectionSet` under a
policy:

* ``model-wins`` edits the code, ``code-wins`` edits the model
* ``union`` adds missing entities to whichever side lacks them and, for
  value conflicts, imposes the preferred side's value (default: model)

``apply`` then edits the model copy-on-write, to be re-rendered
canonically, and compiles code edits down to span-based text patches
(spliced by :mod:`.pywrite`), so method bodies and comments survive
byte-for-byte.  The rest stages ``sync``'s outputs and writes them
atomically.

Only ``sync`` imports this module, when it runs, so ``check`` and ``gen``
never compile it; the old import paths (``modelsync.correction.apply``,
...) still resolve to the names here.  The code-text half lives in its own
module because CPython's compile of a module holds memory in proportion to
its size, on top of the program already loaded: one module of both halves
raised the peak RSS of a small ``sync`` by about 0.7 MB.
"""

from __future__ import annotations

import copy
import os
import shutil
from enum import Enum
from pathlib import Path

from .consistency import MISSING_KINDS
from .correction import (CorrectionEdit, CorrectionSet, _py_spelling,
                         _require_pair)
from .errors import DanglingParameterError, EditConflictError, ParseError
from .model import (Attribute, ClassDef, ClassModel, Method, Parameter,
                    SourceSpan, TypeRef, normalize_name)
from .pycode import CodeDocument, scan_attr_line, scan_def_line
from .pywrite import (CodeEdit, apply_code_edits, block_delete_span,
                      body_indent, member_indent, render_class_stub)

_BOM = b"\xef\xbb\xbf"


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
        else:  # union
            if s.finding_kind in MISSING_KINDS:
                pick = next((a for a in s.alternatives
                             if a.kind.startswith("add-")), None)
            else:
                pick = s.side("code" if preferred_side == "model"
                              else "model")
        if pick is not None:
            chosen.append(pick)
    return chosen


def apply(design: ClassModel, code_doc: CodeDocument,
          chosen: list[CorrectionEdit]) -> tuple[ClassModel, str]:
    """Apply chosen edits; returns the new model and the patched code text.

    The edits must come from ``propose`` on this ``design`` and
    ``code_doc``; edits of another pair raise StaleReportError.  The model
    is edited copy-on-write: ``new_model`` holds a copy of each class and
    member an edit touches and shares every other one with ``design``, so
    treat both as values (callers re-render the model).  The code is
    patched span-wise so untouched bytes survive verbatim.
    """
    _require_pair(design, code_doc, chosen)
    new_model = ClassModel(list(design.classes), list(design.relationships),
                           design.origin)
    # the copy of each edited design object, by the id of the original
    memo: dict[int, object] = {}
    code_edits: list[CodeEdit] = []
    # attribute insertions into classes lacking a constructor are grouped,
    # one synthesized __init__ per class
    ctorless_attrs: dict[int, tuple[ClassDef, list[Attribute]]] = {}

    # a retype of a parameter on a def line that also gets a new signature
    # is folded into that signature when it keeps the parameter's name: the
    # parameter types it writes, by name, for each re-signed method
    signature_types: dict[int, dict[str, TypeRef]] = {
        id(e.member): {p.name: p.type for p in e.new_params or ()}
        for e in chosen if e.side == "code" and e.kind == "change-signature"}

    # compile class insertions last: they share their insertion point with
    # member stubs appended to the final class, and must come after them;
    # compile signatures after the retypes they take in
    class_adds: list[CorrectionEdit] = []
    signatures: list[CorrectionEdit] = []
    for edit in chosen:
        if edit.side == "model":
            _apply_model_edit(new_model, memo, edit)
        elif edit.kind == "add-class":
            class_adds.append(edit)
        elif edit.kind == "change-signature":
            signatures.append(edit)
        else:
            code_edits.extend(_compile_code_edit(
                code_doc, edit, ctorless_attrs, signature_types))

    for edit in signatures:
        code_edits.extend(_compile_code_edit(
            code_doc, edit, ctorless_attrs, signature_types))
    for cls, attrs in ctorless_attrs.values():
        code_edits.append(_ctor_insertion(code_doc, cls, attrs))
    for edit in class_adds:
        code_edits.extend(_compile_code_edit(
            code_doc, edit, ctorless_attrs, signature_types))

    patched = (apply_code_edits(code_doc, code_edits)
               if code_edits else code_doc.raw_text)
    # after the splice, so that overlapping edits are reported as such
    removed = {id(e.member) for e in chosen
               if e.side == "code" and e.kind == "remove-member"}
    for edit in signatures:
        _require_kept_sources(code_doc, edit, removed)
    return new_model, patched


# --- model-side edits ------------------------------------------------------

def _slot(items: list, obj: object) -> int:
    """The index of ``obj`` itself in ``items``; ``list.index`` would
    match the first equal value instead."""
    return next(i for i, item in enumerate(items) if item is obj)


def _own(items: list, memo: dict[int, object], original, make_copy):
    """The copy of ``original`` in ``items``, made and put in its slot on
    the first edit; later edits find it in ``memo``."""
    copied = memo.get(id(original))
    if copied is None:
        copied = memo[id(original)] = make_copy(original)
        items[_slot(items, original)] = copied
    return copied


def _copy_class(cls: ClassDef) -> ClassDef:
    return cls.replace(attributes=list(cls.attributes),
                       methods=list(cls.methods))


def _copy_member(member):
    if isinstance(member, Method):
        return member.replace(params=list(member.params))
    return member.replace()


def _members_like(cls: ClassDef, member) -> list:
    return cls.attributes if isinstance(member, Attribute) else cls.methods


def _apply_model_edit(model: ClassModel, memo: dict[int, object],
                      edit: CorrectionEdit) -> None:
    if edit.kind == "add-class":
        assert edit.class_payload is not None
        model.classes.append(copy.deepcopy(edit.class_payload))
        return
    if edit.kind == "remove-class":
        cls = memo.get(id(edit.cls), edit.cls)
        del model.classes[_slot(model.classes, cls)]
        key = normalize_name(cls.name)
        model.relationships = [
            r for r in model.relationships
            if key not in (normalize_name(r.left), normalize_name(r.right))]
        return
    cls = _own(model.classes, memo, edit.cls, _copy_class)
    if edit.kind == "add-member":
        payload = copy.deepcopy(edit.member_payload)
        _members_like(cls, payload).append(payload)
        return
    members = _members_like(cls, edit.member)
    if edit.kind == "remove-member":
        del members[_slot(members, memo.get(id(edit.member), edit.member))]
        return

    member = _own(members, memo, edit.member, _copy_member)
    if edit.kind == "rename":
        member.name = edit.new_name
        return
    if edit.kind == "change-signature":
        member.params = list(copy.deepcopy(edit.new_params or ()))
        return
    if edit.kind == "change-type":
        assert edit.new_type is not None
        if isinstance(member, Attribute):
            member.type = edit.new_type
        elif edit.param_index is None:
            member.return_type = edit.new_type
        else:
            member.params[edit.param_index] = member.params[
                edit.param_index].replace(type=edit.new_type)
        return
    raise EditConflictError(f"unknown model edit kind {edit.kind!r}")


# --- code-side edits -------------------------------------------------------

def _def_layout(doc: CodeDocument, method: Method):
    assert method.span is not None
    line = doc.lines()[method.span.start_line - 1]
    layout = scan_def_line(line)
    if layout is None:
        raise EditConflictError(
            f"cannot re-scan def line for {method.name!r}")
    return layout, method.span.start_line


def _attr_layout(doc: CodeDocument, attr: Attribute):
    # the parser matched this very line, so the scan cannot miss
    assert attr.span is not None
    layout = scan_attr_line(doc.lines()[attr.span.start_line - 1])
    assert layout is not None
    return layout, attr.span.start_line


def _py_param_text(p: Parameter) -> str:
    spelled = _py_spelling(p.type)
    return f"{p.name}: {spelled}" if spelled else p.name


def _placeholder_rhs(t: TypeRef) -> str:
    if t.kind == "collection":
        return "[]"
    if t.kind == "named" and t.name in ("bool", "boolean"):
        return "False"
    return "None"


def _insertion_span(artifact: str, line: int) -> SourceSpan:
    return SourceSpan(artifact, line, 1, line, 1)


def _compile_code_edit(doc: CodeDocument, edit: CorrectionEdit,
                       ctorless_attrs: dict[int, tuple[ClassDef,
                                                       list[Attribute]]],
                       signature_types: dict[int, dict[str, TypeRef]]
                       ) -> list[CodeEdit]:
    artifact = doc.artifact
    if edit.kind == "add-class":
        assert edit.class_payload is not None
        last_line = max((c.span.end_line for c in doc.model.classes
                         if c.span is not None), default=len(doc.lines()))
        stub = "\n".join(render_class_stub(edit.class_payload))
        return [CodeEdit("insert-class",
                         _insertion_span(artifact, last_line + 1),
                         f"\n{stub}\n")]

    cls = edit.cls
    assert cls is not None and cls.span is not None
    if edit.kind == "remove-class":
        return [CodeEdit("delete-span", block_delete_span(cls.span))]

    if edit.kind == "add-member":
        member = edit.member_payload
        if isinstance(member, Attribute):
            ctor = cls.constructor()
            if ctor is None:
                ctorless_attrs.setdefault(id(cls), (cls, []))[1].append(
                    member)
                return []
            indent = " " * body_indent(doc, ctor)
            line = (f"{indent}self.{member.name} = "
                    f"{_placeholder_rhs(member.type)}\n")
            assert ctor.span is not None
            return [CodeEdit("insert-member",
                             _insertion_span(artifact,
                                             ctor.span.end_line + 1),
                             line)]
        indent = " " * member_indent(doc, cls)
        sig = ", ".join(["self"] + [_py_param_text(p)
                                    for p in member.params])
        spelled = _py_spelling(member.return_type)
        ret = f" -> {spelled}" if spelled else ""
        name = "__init__" if member.is_constructor else member.name
        stub = (f"{indent}def {name}({sig}){ret}:\n"
                f"{indent}    pass\n")
        return [CodeEdit("insert-member",
                         _insertion_span(artifact, cls.span.end_line + 1),
                         stub)]

    member = edit.member
    assert member is not None and member.span is not None
    if edit.kind == "remove-member":
        return [CodeEdit("delete-span", block_delete_span(member.span))]

    if edit.kind == "rename":
        layout, line_no = (_attr_layout(doc, member)
                           if isinstance(member, Attribute)
                           else _def_layout(doc, member))
        span = SourceSpan(artifact, line_no, layout.name_start + 1,
                          line_no, layout.name_end + 1)
        return [CodeEdit("rename-identifier", span, edit.new_name or "")]

    if edit.kind == "change-signature":
        layout, line_no = _def_layout(doc, member)
        types = signature_types[id(member)]
        sig = ", ".join(["self"] + [
            _py_param_text(p.replace(type=types[p.name]))
            for p in (edit.new_params or ())])
        span = SourceSpan(artifact, line_no, layout.lparen + 2,
                          line_no, layout.rparen + 1)
        return [CodeEdit("set-annotation", span, sig)]

    if edit.kind == "change-type":
        assert edit.new_type is not None
        if isinstance(member, Attribute):
            return _attr_type_edit(doc, cls, member, edit.new_type,
                                   signature_types)
        if edit.param_index is not None:
            return [_param_type_edit(doc, member, edit.param_index,
                                     edit.new_type)]
        layout, line_no = _def_layout(doc, member)
        spelled = _py_spelling(edit.new_type)
        if layout.ret is not None:
            span = SourceSpan(artifact, line_no, layout.ret_start + 1,
                              line_no, layout.ret_end + 1)
            payload = f"-> {spelled}" if spelled else ""
        else:
            span = _after_col(artifact, line_no, layout.rparen + 1)
            payload = f" -> {spelled}" if spelled else ""
        return [CodeEdit("set-annotation", span, payload)]

    raise EditConflictError(f"unknown code edit kind {edit.kind!r}")


def _after_col(artifact: str, line: int, col0: int) -> SourceSpan:
    return SourceSpan(artifact, line, col0 + 1, line, col0 + 1)


def _param_type_edit(doc: CodeDocument, method: Method, index: int,
                     new_type: TypeRef) -> CodeEdit:
    layout, line_no = _def_layout(doc, method)
    pl = layout.params[index + 1]  # params[0] is the receiver
    if pl.annotation is not None:
        span = SourceSpan(doc.artifact, line_no, pl.annot_start + 1,
                          line_no, pl.annot_end + 1)
    else:
        span = _after_col(doc.artifact, line_no, pl.name_end)
    spelled = _py_spelling(new_type)
    return CodeEdit("set-annotation", span, f": {spelled}" if spelled else "")


def _attr_type_edit(doc: CodeDocument, cls: ClassDef, attr: Attribute,
                    new_type: TypeRef,
                    signature_types: dict[int, dict[str, TypeRef]]
                    ) -> list[CodeEdit]:
    layout, line_no = _attr_layout(doc, attr)
    ctor = cls.constructor()
    assert ctor is not None  # code attributes are assigned in __init__
    for i, p in enumerate(ctor.params):
        if p.name == layout.rhs:
            # the attribute's type comes from this parameter's annotation,
            # so the edit retypes the parameter, in the constructor's new
            # signature when that keeps it
            types = signature_types.get(id(ctor))
            if types is not None and p.name in types:
                types[p.name] = new_type
                return []
            return [_param_type_edit(doc, ctor, i, new_type)]
    span = SourceSpan(doc.artifact, line_no, layout.rhs_start + 1,
                      line_no, layout.rhs_end + 1)
    return [CodeEdit("set-annotation", span, _placeholder_rhs(new_type))]


def _require_kept_sources(doc: CodeDocument, edit: CorrectionEdit,
                          removed: set[int]) -> None:
    """Raise DanglingParameterError when a constructor's new signature
    drops an annotated parameter that an attribute assignment in its body
    still reads, and no chosen edit removes that assignment.

    The attribute's type comes from that annotation, so its re-parsed type
    would turn unknown and the re-check would pass without seeing the
    loss.  A dropped unannotated parameter is still written dangling: the
    attribute's type was unknown before and stays so.
    """
    ctor = edit.member
    if not ctor.is_constructor:
        return
    dropped = ({p.name for p in ctor.params if p.type.kind != "unknown"}
               - {p.name for p in edit.new_params or ()})
    for attr in edit.cls.attributes:
        if (id(attr) in removed or attr.span is None
                or not ctor.span.start_line < attr.span.start_line
                <= ctor.span.end_line):
            continue
        layout, line_no = _attr_layout(doc, attr)
        if layout.rhs in dropped:
            raise DanglingParameterError(
                f"{doc.artifact}:{line_no}: 'self.{attr.name}' is assigned "
                f"from parameter '{layout.rhs}', which the new signature "
                f"of '{ctor.name}' drops")


def _ctor_insertion(doc: CodeDocument, cls: ClassDef,
                    attrs: list[Attribute]) -> CodeEdit:
    artifact = doc.artifact
    indent = " " * member_indent(doc, cls)
    body = " " * (member_indent(doc, cls) + 4)
    lines = [f"{indent}def __init__(self):"]
    lines += [f"{body}self.{a.name} = {_placeholder_rhs(a.type)}"
              for a in attrs]
    assert cls.span is not None
    return CodeEdit("insert-member",
                    _insertion_span(artifact, cls.span.start_line + 1),
                    "\n".join(lines) + "\n")


# --- sync's outputs --------------------------------------------------------

def ask(sets: list[CorrectionSet]) -> list[CorrectionEdit]:
    """Let the user pick an alternative per set, or skip it, on stdin."""
    chosen: list[CorrectionEdit] = []
    for i, s in enumerate(sets, 1):
        print(f"\n[{i}/{len(sets)}] {s.detail}")
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
                         line=exc.line, col=exc.col,
                         expected=exc.expected) from exc


def output_bytes(text: str, read: tuple[bytes, str]) -> bytes:
    """The input's own bytes when ``text`` is its text, so line ends
    survive; otherwise ``text`` in UTF-8, with ``\\n`` line ends and the
    input's byte-order mark if it had one."""
    data, read_text = read
    if text == read_text:
        return data
    encoded = text.encode("utf-8")
    return _BOM + encoded if data.startswith(_BOM) else encoded


def write_atomically(outputs: list[tuple[str, bytes]]) -> None:
    """Write each (path, data) through a temp file in the path's directory,
    then move every temp file over its path with ``os.replace``.  A path
    that is a symlink is written through; an existing file keeps its mode.
    """
    staged: list[tuple[str, str]] = []
    try:
        for path, data in outputs:
            target = os.path.realpath(path)
            Path(target).parent.mkdir(parents=True, exist_ok=True)
            tmp = f"{target}.{os.getpid()}.tmp"
            with open(tmp, "xb") as f:
                staged.append((tmp, target))
                f.write(data)
            if os.path.exists(target):
                shutil.copymode(target, tmp)
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


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
