"""Deterministic structural diff between a design model and a code model.

Classes are paired by canonical name.  Within a class pair, ``match_models``
links each model member to the code member that realizes it: constructor
to constructor, then methods and attributes by canonical name.  Leftover
members on opposite sides whose canonical names sit within a relative
Levenshtein distance threshold (and whose arity matches, for methods) are
linked as renames; a rename link carries its distance, and suppresses the
pair of missing-member findings it replaces.  Every member is linked or
left over on its side, except a constructor the other side lacks.  The
distance behind a rename is bounded: for names whose longer one has ``n``
characters, :func:`levenshtein` runs with ``limit = floor(threshold * n) + 1``
and gives up as soon as the distance provably exceeds that limit (length
gap first, then a diagonal band whose row minimum passes it; Ukkonen 1985).
The ``+ 1`` means float rounding can never reject a pair that the exact
``distance / n <= threshold`` test accepts, and that test alone decides.
Only pairs that pass the q-gram count filter are measured: a class's
leftover code-side names are indexed by their bigrams, padded with one
sentinel at each end, and a distance of at most ``limit`` leaves at least
``n + 1 - 2 * limit`` of them shared (Jokinen & Ukkonen 1991).  Pairs for
which that bound is not positive are visited through length buckets, so
the filter never loses a pair the test would accept.

``check`` reads the links with one rule: a rename link is a finding, and
so is every way a link's two members disagree (arity, parameter, return or
attribute type); each leftover member is a missing-member finding.
Unknown types never produce findings, so unannotated code cannot drown a
report in false positives.  The same principle extends to unpaired
attributes: an attribute whose type carries no named evidence (a bare
``self.x = expr`` assignment, an untyped model field) is not reported as
missing from the other side — attribute evidence is inherently weaker
than declared methods.  A constructor present on one side only is not
reported either: the silent side simply leaves construction implicit.
Relationship checking is advisory, opt-in, and based solely on code-side
type evidence.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import lru_cache, partial
from itertools import chain
from typing import NamedTuple

from .model import (Attribute, ClassDef, ClassModel, Method, Record,
                    SourceSpan, TypeRef, TypeTable, DEFAULT_TYPE_EQUIVALENCES,
                    canonical_name, name_key, sha256_hex, type_equivalent)


class FindingKind(Enum):
    MISSING_CLASS_IN_CODE = "MissingClassInCode"
    MISSING_CLASS_IN_MODEL = "MissingClassInModel"
    MISSING_METHOD_IN_CODE = "MissingMethodInCode"
    MISSING_METHOD_IN_MODEL = "MissingMethodInModel"
    MISSING_ATTRIBUTE_IN_CODE = "MissingAttributeInCode"
    MISSING_ATTRIBUTE_IN_MODEL = "MissingAttributeInModel"
    PROBABLE_RENAME = "ProbableRename"
    CONSTRUCTOR_ARITY_MISMATCH = "ConstructorArityMismatch"
    PARAM_TYPE_MISMATCH = "ParamTypeMismatch"
    RETURN_TYPE_MISMATCH = "ReturnTypeMismatch"
    ATTRIBUTE_TYPE_MISMATCH = "AttributeTypeMismatch"
    RELATIONSHIP_MISSING_IN_CODE = "RelationshipMissingInCode"
    RELATIONSHIP_MISSING_IN_MODEL = "RelationshipMissingInModel"


_ADVISORY_KINDS = {FindingKind.RELATIONSHIP_MISSING_IN_CODE,
                   FindingKind.RELATIONSHIP_MISSING_IN_MODEL}

_KIND_ORDER = {kind: i for i, kind in enumerate(FindingKind)}


class MatchOptions(NamedTuple):
    name_mode: str = "canonical"
    rename_threshold: float = 0.3
    type_table: TypeTable = DEFAULT_TYPE_EQUIVALENCES
    infer_code_relationships: bool = False


class Location(NamedTuple):
    class_name: str
    member: str | None = None
    span: SourceSpan | None = None


class Finding(Record):
    """One divergence.  The trailing fields hold the entities ``check``
    matched, for the correction engine; neither equality, hashing nor the
    report sees them."""

    __slots__ = ("id", "kind", "model_loc", "code_loc", "detail",
                 "model_class", "code_class", "model_member", "code_member",
                 "param_index")
    _compared = __slots__[:5]

    def __init__(self, id: str, kind: FindingKind,
                 model_loc: Location | None, code_loc: Location | None,
                 detail: str, model_class: ClassDef | None = None,
                 code_class: ClassDef | None = None,
                 model_member: object | None = None,  # Method | Attribute
                 code_member: object | None = None,
                 param_index: int | None = None,  # ParamTypeMismatch only
                 ) -> None:
        self.id = id
        self.kind = kind
        self.model_loc = model_loc
        self.code_loc = code_loc
        self.detail = detail
        self.model_class = model_class
        self.code_class = code_class
        self.model_member = model_member
        self.code_member = code_member
        self.param_index = param_index

    def __hash__(self) -> int:
        return hash(self._key(self))

    @property
    def severity(self) -> str:
        """``advisory`` for a relationship finding, else ``error``."""
        return "advisory" if self.kind in _ADVISORY_KINDS else "error"


class InputDescriptor(NamedTuple):
    path: str
    sha256: str


class Report(NamedTuple):
    schema_version: int
    inputs: tuple[InputDescriptor, ...]
    options: MatchOptions
    findings: tuple[Finding, ...]

    def error_findings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")


def levenshtein(a: str, b: str, limit: int | None = None) -> int:
    """Edit distance (insert/delete/substitute, unit costs).

    With ``limit >= 0`` the result is exact when the distance is at most
    ``limit`` and ``limit + 1`` otherwise (Ukkonen's cut-off): only the
    diagonals a path of cost ``<= limit`` can cross are filled, and the
    scan stops once a whole row exceeds ``limit``.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    # a shared prefix or suffix never changes the distance
    start, n, m = 0, len(a), len(b)
    while start < n and a[start] == b[start]:
        start += 1
    while n > start and a[n - 1] == b[m - 1]:
        n -= 1
        m -= 1
    a, b = a[start:n], b[start:m]
    n, m = n - start, m - start
    if limit is None:
        limit = m
    elif m - n > limit:
        return limit + 1
    if not n:
        return m
    over = limit + 1
    # a cell on diagonal d = j - i costs at least |d| to reach and
    # |d - (m - n)| to leave, so the band is -p <= d <= m - n + p; cells
    # outside it read as ``over``, which only raises results above limit
    p = (limit - (m - n)) // 2
    prev = list(range(m + 1))
    cur = [over] * (m + 1)
    for i, ca in enumerate(a, 1):
        lo = i - p if i > p else 1
        hi = min(m, i + m - n + p)
        left = cur[lo - 1] = i if i <= p else over
        low = left
        diag = prev[lo - 1]
        for j in range(lo, hi + 1):
            up = prev[j]
            v = diag if ca == b[j - 1] else diag + 1
            if up < v:
                v = up + 1
            if left < v:
                v = left + 1
            cur[j] = left = v
            diag = up
            if v < low:
                low = v
        if low > limit:
            return over
        if hi < m:
            cur[hi + 1] = over
        prev, cur = cur, prev
    return min(prev[m], over)


class MemberPair(NamedTuple):
    """A link from a model member to the code member that realizes it.
    A rename link's names are ``distance`` edits apart and the longer one
    has ``longest`` characters; a link by name has 0 for both."""
    model: object  # Method | Attribute
    code: object
    distance: int = 0
    longest: int = 0


# a link by name, built without the Python-level ``MemberPair.__new__``
_name_link = partial(tuple.__new__, MemberPair)


class ClassMatch(Record):
    """A class pair's links (constructor, then by name: methods, then
    attributes; then renames: methods, then attributes) and the members
    each side has left over."""

    __slots__ = ("model_class", "code_class", "links", "model_only",
                 "code_only")

    def __init__(self, model_class: ClassDef, code_class: ClassDef,
                 links: list[MemberPair] | None = None,
                 model_only: list | None = None,  # Method | Attribute
                 code_only: list | None = None) -> None:
        self.model_class = model_class
        self.code_class = code_class
        self.links = [] if links is None else links
        self.model_only = [] if model_only is None else model_only
        self.code_only = [] if code_only is None else code_only


class MatchResult(Record):
    __slots__ = ("class_matches", "model_only_classes", "code_only_classes")

    def __init__(self, class_matches: list[ClassMatch] | None = None,
                 model_only_classes: list[ClassDef] | None = None,
                 code_only_classes: list[ClassDef] | None = None) -> None:
        self.class_matches = [] if class_matches is None else class_matches
        self.model_only_classes = ([] if model_only_classes is None
                                   else model_only_classes)
        self.code_only_classes = ([] if code_only_classes is None
                                  else code_only_classes)


def match_models(design: ClassModel, code: ClassModel,
                 opts: MatchOptions | None = None) -> MatchResult:
    """Pair the two sides; see the module docstring for the policy."""
    opts = opts or MatchOptions()
    key_of = name_key(opts.name_mode)
    result = MatchResult()
    code_keys = [key_of(c.name) for c in code.classes]
    code_by_key = dict(zip(code_keys, code.classes))
    paired_code: set[str] = set()

    for mc in design.classes:
        key = key_of(mc.name)
        cc = code_by_key.get(key)
        if cc is None:
            result.model_only_classes.append(mc)
            continue
        paired_code.add(key)
        result.class_matches.append(_match_class(mc, cc, opts))

    result.code_only_classes = [cc for key, cc in zip(code_keys, code.classes)
                                if key not in paired_code]
    return result


def _split_constructor(methods: list[Method]) -> tuple[Method | None, list]:
    """A class's first constructor, if any, and its other methods."""
    rest = [m for m in methods if not m.is_constructor]
    if len(rest) == len(methods):
        return None, rest
    return next(m for m in methods if m.is_constructor), rest


def _match_class(mc: ClassDef, cc: ClassDef, opts: MatchOptions) -> ClassMatch:
    m_ctor, m_methods = _split_constructor(mc.methods)
    c_ctor, c_methods = _split_constructor(cc.methods)
    links = ([MemberPair(m_ctor, c_ctor)]
             if m_ctor is not None and c_ctor is not None else [])
    m_left, c_left = _pair_by_name(m_methods, c_methods, opts, links)
    a_left, b_left = _pair_by_name(mc.attributes, cc.attributes, opts, links)
    method_renames, m_only, c_only = _pair_renames(m_left, c_left, opts,
                                                   require_arity=True)
    attr_renames, a_only, b_only = _pair_renames(a_left, b_left, opts,
                                                 require_arity=False)
    return ClassMatch(mc, cc, links + method_renames + attr_renames,
                      m_only + a_only, c_only + b_only)


def _pair_by_name(model_members, code_members, opts: MatchOptions,
                  out_pairs: list[MemberPair]):
    """Pair by canonical name; a name with several candidates pairs equal
    arity first."""
    key_of = name_key(opts.name_mode)
    c_groups: dict[str, list] = {}
    for c in code_members:
        c_groups.setdefault(key_of(c.name), []).append(c)

    model_left = []
    for m in model_members:
        candidates = c_groups.get(key_of(m.name))
        if not candidates:
            model_left.append(m)
            continue
        if len(candidates) == 1:
            chosen = candidates.pop()
        else:
            # a model attribute (arity -1) takes the first attribute
            arity = len(m.params) if isinstance(m, Method) else -1
            chosen = next((c for c in candidates if isinstance(c, Attribute)
                           or len(c.params) == arity), candidates[0])
            candidates.remove(chosen)
        out_pairs.append(_name_link((m, chosen, 0, 0)))
    return model_left, [c for rest in c_groups.values() for c in rest]


def _bigrams(name: str) -> list[str]:
    """The bigrams of ``name`` padded with one sentinel at each end.  The
    k-th occurrence of a bigram is keyed by the bigram written k times, so
    the keys two names share count the multiset intersection of their
    bigrams."""
    padded = f"\0{name}\0"
    grams = [padded[i:i + 2] for i in range(len(name) + 1)]
    if len(set(grams)) < len(grams):
        seen: dict[str, int] = {}
        for i, gram in enumerate(grams):
            seen[gram] = k = seen.get(gram, 0) + 1
            grams[i] = gram * k
    return grams


@lru_cache(maxsize=256)
def _count_filter(scale: float, widest: int):
    """Tables over the longer name's length ``n <= widest``: the distance
    limit (the + 1 absorbs float rounding of ``scale * n``); the bigrams a
    pair within it must share (q-gram lemma, q = 2: each edit breaks at
    most two of the ``n + 1`` padded bigrams); and the lengths where that
    need is <= 0, so such pairs may share none."""
    limits = tuple(math.floor(scale * n) + 1 for n in range(widest + 1))
    needs = tuple(n + 1 - 2 * limit for n, limit in enumerate(limits))
    return (limits, needs,
            frozenset(n for n, need in enumerate(needs) if need <= 0))


def _pair_renames(model_left, code_left, opts: MatchOptions, *,
                  require_arity: bool) -> tuple[list[MemberPair], list, list]:
    """Rename links, then the model-only and code-only leftovers."""
    threshold = opts.rename_threshold
    # a negative or NaN threshold admits no distance
    if not (model_left and code_left and threshold >= 0):
        return [], model_left, code_left
    key_of = name_key(opts.name_mode)
    model_keys = [key_of(m.name) for m in model_left]
    code_keys = [key_of(c.name) for c in code_left]
    # per arity: bigram key -> code positions, and name length -> positions
    postings: dict[int, dict[str, list[int]]] = {}
    lengths: dict[int, dict[int, list[int]]] = {}
    for j, (c, b) in enumerate(zip(code_left, code_keys)):
        arity = c.arity if require_arity else 0
        index = postings.setdefault(arity, {})
        for key in _bigrams(b):
            index.setdefault(key, []).append(j)
        lengths.setdefault(arity, {}).setdefault(len(b), []).append(j)
    limits, needs, loose = _count_filter(
        min(threshold, 1.0), max(map(len, model_keys + code_keys)))
    widest_loose = max(loose)

    candidates: list[tuple[float, str, str, int, int, int, int]] = []
    for i, (m, a) in enumerate(zip(model_left, model_keys)):
        arity = m.arity if require_arity else 0
        index = postings.get(arity)
        if index is None:
            continue
        n = len(a)
        shared = Counter(chain.from_iterable(
            index[key] for key in _bigrams(a) if key in index))
        if n <= widest_loose:
            for length, js in lengths[arity].items():
                if max(n, length) in loose:
                    for j in js:
                        shared.setdefault(j, 0)
        for j, count in shared.items():
            b = code_keys[j]
            longest = n if n > len(b) else len(b)
            if count < needs[longest]:
                continue
            dist = levenshtein(a, b, limits[longest])
            if dist / longest <= threshold:
                candidates.append((dist / longest, m.name, code_left[j].name,
                                   i, j, dist, longest))
    renames: list[MemberPair] = []
    used_m: set[int] = set()
    used_c: set[int] = set()
    # (i, j) breaks ties in model order, then code order
    for _, _, _, i, j, dist, longest in sorted(candidates):
        if i in used_m or j in used_c:
            continue
        used_m.add(i)
        used_c.add(j)
        renames.append(MemberPair(model_left[i], code_left[j], dist,
                                  longest))
    return (renames,
            [m for i, m in enumerate(model_left) if i not in used_m],
            [c for j, c in enumerate(code_left) if j not in used_c])


def _finding_id(kind: FindingKind, model_loc: Location | None,
                code_loc: Location | None, detail: str) -> str:
    def loc_key(loc: Location | None) -> str:
        if loc is None:
            return "-"
        return f"{loc.class_name}.{loc.member or ''}"
    raw = f"{kind.value}|{loc_key(model_loc)}|{loc_key(code_loc)}|{detail}"
    return sha256_hex(raw.encode("utf-8"))[:12]


def _loc(cls: ClassDef, member=None) -> Location:
    if member is None:
        return Location(cls.name, None, cls.span)
    return Location(cls.name, member.name, member.span)


def _emit(out: list[Finding], kind: FindingKind,
          model_loc: Location | None, code_loc: Location | None,
          detail: str, *matched, **named) -> None:
    """Append a finding; the trailing arguments fill its matched-entity
    fields (model class, code class, model member, code member, index)."""
    out.append(Finding(_finding_id(kind, model_loc, code_loc, detail),
                       kind, model_loc, code_loc, detail,
                       *matched, **named))


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

    same_type = _SameType(opts.type_table)
    for cm in matched.class_matches:
        _class_findings(out, cm, same_type)

    if opts.infer_code_relationships:
        _relationship_findings(out, design, code, opts)

    out.sort(key=_finding_sort_key)
    return Report(1, tuple(inputs), opts, tuple(out))


class _SameType(dict):
    """``type_equivalent`` under one type table, remembered for each
    (model type, code type) pair it has been asked about: ``same[a, b]``."""

    def __init__(self, table: TypeTable) -> None:
        self.table = table

    def __missing__(self, pair: tuple[TypeRef, TypeRef]) -> bool:
        same = self[pair] = type_equivalent(*pair, self.table)
        return same


def _class_findings(out: list[Finding], cm: ClassMatch,
                    same_type: _SameType) -> None:
    mc, cc = cm.model_class, cm.code_class
    _link_findings(out, mc, cc, cm.links, same_type)
    # an attribute is missing only when its type names a type, as T or T[]
    for m in cm.model_only:
        attr = isinstance(m, Attribute)
        if attr and m.type.leaf.kind != "named":
            continue
        _emit(out, FindingKind.MISSING_ATTRIBUTE_IN_CODE if attr
              else FindingKind.MISSING_METHOD_IN_CODE,
              _loc(mc, m), Location(cc.name),
              f"{_what(m)} '{m.name}' of class '{mc.name}' is declared in "
              f"the design model but missing from the code",
              mc, cc, model_member=m)
    for c in cm.code_only:
        attr = isinstance(c, Attribute)
        if attr and c.type.leaf.kind != "named":
            continue
        _emit(out, FindingKind.MISSING_ATTRIBUTE_IN_MODEL if attr
              else FindingKind.MISSING_METHOD_IN_MODEL,
              Location(mc.name), _loc(cc, c),
              f"{_what(c)} '{c.name}' of class '{cc.name}' is "
              f"{'assigned' if attr else 'defined'} in the code but missing "
              f"from the design model",
              mc, cc, code_member=c)


def _what(member) -> str:
    return "attribute" if isinstance(member, Attribute) else "method"


def _link_findings(out: list[Finding], mc: ClassDef, cc: ClassDef,
                   links: list[MemberPair], same_type: _SameType) -> None:
    """For each link: a rename link's finding, then each way the two
    members disagree: arity (then nothing else), parameter and return
    types, or the attribute's type."""
    for link in links:
        model, code = link.model, link.code
        if link.distance:
            _emit_link(out, mc, cc, link, FindingKind.PROBABLE_RENAME,
                       f"{_what(model)} '{model.name}' in the design model "
                       f"likely corresponds to '{code.name}' in the code "
                       f"(edit distance {link.distance}/{link.longest})")
        if isinstance(model, Attribute):
            if not same_type[model.type, code.type]:
                _emit_link(
                    out, mc, cc, link, FindingKind.ATTRIBUTE_TYPE_MISMATCH,
                    f"attribute '{model.name}' of class '{mc.name}' is "
                    f"'{model.type}' in the design model but "
                    f"'{code.type}' in the code")
            continue
        if len(model.params) != len(code.params):
            _emit_link(
                out, mc, cc, link, FindingKind.CONSTRUCTOR_ARITY_MISMATCH,
                f"{_subject(model)} of class '{mc.name}' takes "
                f"{len(model.params)} parameter(s) in the design model but "
                f"{len(code.params)} in the code")
            continue
        for i, (mp, cp) in enumerate(zip(model.params, code.params)):
            if not same_type[mp.type, cp.type]:
                _emit_link(
                    out, mc, cc, link, FindingKind.PARAM_TYPE_MISMATCH,
                    f"{_subject(model)} parameter '{mp.name}' of class "
                    f"'{mc.name}' is '{mp.type}' in the design model but "
                    f"'{cp.type}' in the code (position {i + 1})", i)
        if not same_type[model.return_type, code.return_type]:
            _emit_link(
                out, mc, cc, link, FindingKind.RETURN_TYPE_MISMATCH,
                f"method '{model.name}' of class '{mc.name}' returns "
                f"'{model.return_type}' in the design model but "
                f"'{code.return_type}' in the code")


def _subject(method: Method) -> str:
    return ("constructor" if method.is_constructor
            else f"method '{method.name}'")


def _emit_link(out: list[Finding], mc: ClassDef, cc: ClassDef,
               link: MemberPair, kind: FindingKind, detail: str,
               param_index: int | None = None) -> None:
    """Append a finding located at both members of ``link``."""
    _emit(out, kind, _loc(mc, link.model), _loc(cc, link.code), detail, mc,
          cc, link.model, link.code, param_index=param_index)


def _code_reference_pairs(code: ClassModel, key_of,
                          class_names: dict[str, str]
                          ) -> set[frozenset[str]]:
    """Unordered class pairs, by key, evidenced by typed attributes or ctor
    params; ``class_names`` maps each code class's key to its name."""
    pairs: set[frozenset[str]] = set()
    for cls in code.classes:
        sources: list[TypeRef] = [a.type for a in cls.attributes]
        ctor = cls.constructor()
        if ctor is not None:
            sources.extend(p.type for p in ctor.params)
        for t in sources:
            leaf = t.leaf
            target = key_of(leaf.name) if leaf.kind == "named" else None
            if target in class_names and target != key_of(cls.name):
                pairs.add(frozenset((key_of(cls.name), target)))
    return pairs


def _relationship_findings(out: list[Finding], design: ClassModel,
                           code: ClassModel, opts: MatchOptions) -> None:
    key_of = name_key(opts.name_mode)
    class_names = {key_of(c.name): c.name for c in code.classes}
    evidence = _code_reference_pairs(code, key_of, class_names)
    model_pairs: set[frozenset[str]] = set()
    for rel in design.relationships:
        pair = frozenset((key_of(rel.left), key_of(rel.right)))
        model_pairs.add(pair)
        if pair not in evidence:
            label = f" '{rel.label}'" if rel.label else ""
            _emit(out, FindingKind.RELATIONSHIP_MISSING_IN_CODE,
                  Location(rel.left, f"--{rel.right}"), None,
                  f"relationship{label} between '{rel.left}' and "
                  f"'{rel.right}' has no code-side evidence")
    for pair in sorted(evidence, key=sorted):
        if pair not in model_pairs:
            left, right = sorted(class_names.get(k, k) for k in pair)
            _emit(out, FindingKind.RELATIONSHIP_MISSING_IN_MODEL, None,
                  Location(left, f"--{right}"),
                  f"code references between '{left}' and '{right}' have "
                  f"no relationship in the design model")


def _finding_sort_key(f: Finding) -> tuple:
    cls_name = member = ""
    for loc in (f.model_loc, f.code_loc):
        if loc is not None:
            cls_name = cls_name or loc.class_name
            member = member or loc.member or ""
    member_key = (member if member.startswith("--")
                  else canonical_name(member))
    return (canonical_name(cls_name), member_key, _KIND_ORDER[f.kind],
            f.detail)
