"""``consistency._pair_renames`` as it was before it found its candidates
through a q-gram index: every arity-compatible pair of leftover names is
measured.  ``test_rename_differential.py`` holds the indexed matcher to it.
"""

from __future__ import annotations

import math

from modelsync.consistency import MatchOptions, MemberPair, levenshtein
from modelsync.model import normalize_name


def reference_pair_renames(model_left, code_left, opts: MatchOptions, *,
                           require_arity: bool):
    """Rename links, then the model-only and code-only leftovers."""
    threshold = opts.rename_threshold
    candidates: list[tuple[float, str, str, int, int, object, object]] = []
    if threshold >= 0:  # a negative or NaN threshold admits no distance
        code_keys = [(c, normalize_name(c.name, opts.name_mode))
                     for c in code_left]
        for m in model_left:
            a = normalize_name(m.name, opts.name_mode)
            for c, b in code_keys:
                if require_arity and m.arity != c.arity:
                    continue
                longest = max(len(a), len(b))
                # the + 1 absorbs float rounding of threshold * longest
                limit = math.floor(min(threshold, 1.0) * longest) + 1
                dist = levenshtein(a, b, limit)
                if dist / longest <= threshold:
                    candidates.append((dist / longest, m.name, c.name,
                                       dist, longest, m, c))
    renames: list[MemberPair] = []
    used_m: set[int] = set()
    used_c: set[int] = set()
    for rel, mn, cn, dist, longest, m, c in sorted(
            candidates, key=lambda t: (t[0], t[1], t[2])):
        if id(m) in used_m or id(c) in used_c:
            continue
        used_m.add(id(m))
        used_c.add(id(c))
        renames.append(MemberPair(m, c, dist, longest))
    return (renames, [m for m in model_left if id(m) not in used_m],
            [c for c in code_left if id(c) not in used_c])
