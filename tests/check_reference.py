"""``consistency.check`` and its matcher as they were before each member's
work was done once per check: ``normalize_name`` called for every class and
member, each constructor found by ``ClassDef.constructor()`` beside two
filtering passes, a same-arity list built for every name, and
``type_equivalent`` called for every compared pair of types.  The
relationship rule and the finding sort key are kept as they were too.
``test_check_differential.py`` holds :func:`modelsync.consistency.check`
and :func:`modelsync.consistency.match_models` to these.
"""

from __future__ import annotations

from modelsync.consistency import (_KIND_ORDER, ClassMatch, Finding,
                                   FindingKind, InputDescriptor, Location,
                                   MatchOptions, MatchResult, MemberPair,
                                   Report, _emit, _emit_link, _loc,
                                   _pair_renames, _what)
from modelsync.model import (Attribute, ClassDef, ClassModel, Method,
                             TypeRef, normalize_name, type_equivalent)


def _has_named_evidence(t: TypeRef) -> bool:
    """True when a type pins down a name somewhere (named or named[])."""
    if t.kind == "named":
        return True
    if t.kind == "collection":
        return _has_named_evidence(t.element)
    return False


def match_models(design: ClassModel, code: ClassModel,
                 opts: MatchOptions | None = None) -> MatchResult:
    """Pair the two sides; see the module docstring for the policy."""
    opts = opts or MatchOptions()
    result = MatchResult()
    code_by_key = {normalize_name(c.name, opts.name_mode): c
                   for c in code.classes}
    paired_code: set[str] = set()

    for mc in design.classes:
        key = normalize_name(mc.name, opts.name_mode)
        cc = code_by_key.get(key)
        if cc is None:
            result.model_only_classes.append(mc)
            continue
        paired_code.add(key)
        result.class_matches.append(_match_class(mc, cc, opts))

    for cc in code.classes:
        if normalize_name(cc.name, opts.name_mode) not in paired_code:
            result.code_only_classes.append(cc)
    return result


def _match_class(mc: ClassDef, cc: ClassDef, opts: MatchOptions) -> ClassMatch:
    links: list[MemberPair] = []
    m_ctor, c_ctor = mc.constructor(), cc.constructor()
    if m_ctor is not None and c_ctor is not None:
        links.append(MemberPair(m_ctor, c_ctor))
    m_left, c_left = _pair_by_name(
        [m for m in mc.methods if not m.is_constructor],
        [m for m in cc.methods if not m.is_constructor], opts, links)
    a_left, b_left = _pair_by_name(mc.attributes, cc.attributes, opts, links)
    method_renames, m_only, c_only = _pair_renames(m_left, c_left, opts,
                                                   require_arity=True)
    attr_renames, a_only, b_only = _pair_renames(a_left, b_left, opts,
                                                 require_arity=False)
    return ClassMatch(mc, cc, links + method_renames + attr_renames,
                      m_only + a_only, c_only + b_only)


def _pair_by_name(model_members, code_members, opts: MatchOptions,
                  out_pairs: list[MemberPair]):
    """Pair by canonical name; same-name groups pair equal arity first."""
    c_groups: dict[str, list] = {}
    for m in code_members:
        c_groups.setdefault(normalize_name(m.name, opts.name_mode),
                            []).append(m)

    model_left, code_left = [], []
    for m in model_members:
        key = normalize_name(m.name, opts.name_mode)
        candidates = c_groups.get(key, [])
        if not candidates:
            model_left.append(m)
            continue
        same_arity = [c for c in candidates
                      if isinstance(c, Attribute) or
                      (isinstance(m, Method) and c.arity == m.arity)]
        chosen = same_arity[0] if same_arity else candidates[0]
        candidates.remove(chosen)
        out_pairs.append(MemberPair(m, chosen))
    for rest in c_groups.values():
        code_left.extend(rest)
    return model_left, code_left



def check(design: ClassModel, code: ClassModel,
          opts: MatchOptions | None = None, *,
          inputs: tuple[InputDescriptor, ...] = ()) -> Report:
    """Diff two models into a deterministic, ordered report."""
    opts = opts or MatchOptions()
    matched = match_models(design, code, opts)
    out: list[Finding] = []

    for cls in matched.model_only_classes:
        _emit(out, FindingKind.MISSING_CLASS_IN_CODE, _loc(cls), None,
              f"class '{cls.name}' is declared in the design model but "
              f"missing from the code", model_class=cls)
    for cls in matched.code_only_classes:
        _emit(out, FindingKind.MISSING_CLASS_IN_MODEL, None, _loc(cls),
              f"class '{cls.name}' is defined in the code but missing "
              f"from the design model", code_class=cls)

    for cm in matched.class_matches:
        _class_findings(out, cm, opts)

    if opts.infer_code_relationships:
        _relationship_findings(out, design, code, opts)

    out.sort(key=_finding_sort_key)
    return Report(1, tuple(inputs), opts, tuple(out))


def _class_findings(out: list[Finding], cm: ClassMatch,
                    opts: MatchOptions) -> None:
    mc, cc = cm.model_class, cm.code_class
    for link in cm.links:
        _link_findings(out, mc, cc, link, opts)
    for m in cm.model_only:
        attr = isinstance(m, Attribute)
        if attr and not _has_named_evidence(m.type):
            continue
        _emit(out, FindingKind.MISSING_ATTRIBUTE_IN_CODE if attr
              else FindingKind.MISSING_METHOD_IN_CODE,
              _loc(mc, m), Location(cc.name),
              f"{_what(m)} '{m.name}' of class '{mc.name}' is declared in "
              f"the design model but missing from the code",
              mc, cc, model_member=m)
    for c in cm.code_only:
        attr = isinstance(c, Attribute)
        if attr and not _has_named_evidence(c.type):
            continue
        _emit(out, FindingKind.MISSING_ATTRIBUTE_IN_MODEL if attr
              else FindingKind.MISSING_METHOD_IN_MODEL,
              Location(mc.name), _loc(cc, c),
              f"{_what(c)} '{c.name}' of class '{cc.name}' is "
              f"{'assigned' if attr else 'defined'} in the code but missing "
              f"from the design model",
              mc, cc, code_member=c)



def _link_findings(out: list[Finding], mc: ClassDef, cc: ClassDef,
                   link: MemberPair, opts: MatchOptions) -> None:
    """A rename link's finding, then each way the two members disagree:
    arity (then nothing else), parameter and return types, or the
    attribute's type."""
    model, code = link.model, link.code
    table = opts.type_table
    if link.distance:
        _emit_link(out, mc, cc, link, FindingKind.PROBABLE_RENAME,
                   f"{_what(model)} '{model.name}' in the design model "
                   f"likely corresponds to '{code.name}' in the code "
                   f"(edit distance {link.distance}/{link.longest})")
    if isinstance(model, Attribute):
        if not type_equivalent(model.type, code.type, table):
            _emit_link(out, mc, cc, link, FindingKind.ATTRIBUTE_TYPE_MISMATCH,
                       f"attribute '{model.name}' of class '{mc.name}' is "
                       f"'{model.type}' in the design model but "
                       f"'{code.type}' in the code")
    elif model.arity != code.arity:
        what = ("constructor of" if model.is_constructor
                else f"method '{model.name}' of")
        _emit_link(out, mc, cc, link, FindingKind.CONSTRUCTOR_ARITY_MISMATCH,
                   f"{what} class '{mc.name}' takes {model.arity} "
                   f"parameter(s) in the design model but {code.arity} in "
                   f"the code")
    else:
        what = ("constructor" if model.is_constructor
                else f"method '{model.name}'")
        for i, (mp, cp) in enumerate(zip(model.params, code.params)):
            if not type_equivalent(mp.type, cp.type, table):
                _emit_link(out, mc, cc, link, FindingKind.PARAM_TYPE_MISMATCH,
                           f"{what} parameter '{mp.name}' of class "
                           f"'{mc.name}' is '{mp.type}' in the design model "
                           f"but '{cp.type}' in the code (position {i + 1})",
                           i)
        if not type_equivalent(model.return_type, code.return_type, table):
            _emit_link(out, mc, cc, link, FindingKind.RETURN_TYPE_MISMATCH,
                       f"method '{model.name}' of class '{mc.name}' returns "
                       f"'{model.return_type}' in the design model but "
                       f"'{code.return_type}' in the code")



def _code_reference_pairs(code: ClassModel,
                          opts: MatchOptions) -> set[frozenset[str]]:
    """Unordered class pairs evidenced by typed attributes or ctor params."""
    class_keys = {normalize_name(c.name, opts.name_mode): c.name
                  for c in code.classes}

    def referenced(t: TypeRef) -> str | None:
        if t.kind == "named":
            return class_keys.get(normalize_name(t.name or "",
                                                 opts.name_mode))
        if t.kind == "collection":
            return referenced(t.element)
        return None

    pairs: set[frozenset[str]] = set()
    for cls in code.classes:
        sources: list[TypeRef] = [a.type for a in cls.attributes]
        ctor = cls.constructor()
        if ctor is not None:
            sources.extend(p.type for p in ctor.params)
        for t in sources:
            target = referenced(t)
            if target and normalize_name(target, opts.name_mode) != \
                    normalize_name(cls.name, opts.name_mode):
                pairs.add(frozenset((normalize_name(cls.name, opts.name_mode),
                                     normalize_name(target, opts.name_mode))))
    return pairs


def _relationship_findings(out: list[Finding], design: ClassModel,
                           code: ClassModel, opts: MatchOptions) -> None:
    evidence = _code_reference_pairs(code, opts)
    model_pairs: set[frozenset[str]] = set()
    for rel in design.relationships:
        key = frozenset((normalize_name(rel.left, opts.name_mode),
                         normalize_name(rel.right, opts.name_mode)))
        model_pairs.add(key)
        if key not in evidence:
            label = f" '{rel.label}'" if rel.label else ""
            _emit(out, FindingKind.RELATIONSHIP_MISSING_IN_CODE,
                  Location(rel.left, f"--{rel.right}"), None,
                  f"relationship{label} between '{rel.left}' and "
                  f"'{rel.right}' has no code-side evidence")
    canonical_to_name = {normalize_name(c.name, opts.name_mode): c.name
                         for c in code.classes}
    for pair in sorted(evidence, key=sorted):
        if pair not in model_pairs:
            left, right = sorted(canonical_to_name.get(k, k) for k in pair)
            _emit(out, FindingKind.RELATIONSHIP_MISSING_IN_MODEL, None,
                  Location(left, f"--{right}"),
                  f"code references between '{left}' and '{right}' have "
                  f"no relationship in the design model")


def _finding_sort_key(f: Finding) -> tuple:
    locs = [loc for loc in (f.model_loc, f.code_loc) if loc is not None]
    cls_name = next((loc.class_name for loc in locs if loc.class_name), "")
    member = next((loc.member for loc in locs if loc.member), "")
    if member.startswith("--"):
        member_key = member
    else:
        member_key = normalize_name(member) if member else ""
    cls_key = normalize_name(cls_name) if cls_name else ""
    return (cls_key, member_key, _KIND_ORDER[f.kind], f.detail)
