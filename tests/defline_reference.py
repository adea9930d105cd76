"""The ``def``-line scanner as it was before its three bracket-and-quote
scanners were merged into one pass; the differential test in
``test_pycode.py`` holds :func:`modelsync.pycode.scan_def_line` to it.
"""

from __future__ import annotations

import re

from modelsync.pycode import DefLayout, ParamLayout

_DEF_START_RE = re.compile(r"^(\s*)def\s+(\w+)\s*\(")


def _match_paren(line: str, lparen: int) -> int:
    depth = 0
    i = lparen
    quote: str | None = None
    while i < len(line):
        ch = line[i]
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def _split_top_level(text: str, base: int) -> list[tuple[int, int]]:
    """Comma-split; returns absolute (start, end) extents of each piece."""
    pieces: list[tuple[int, int]] = []
    depth = 0
    quote: str | None = None
    start = 0
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append((base + start, base + i))
            start = i + 1
    pieces.append((base + start, base + len(text)))
    return pieces


def scan_def_line(line: str) -> DefLayout | None:
    """Decompose a ``def`` line into precisely located pieces."""
    m = _DEF_START_RE.match(line)
    if not m:
        return None
    indent = len(m.group(1))
    name = m.group(2)
    name_start, name_end = m.start(2), m.end(2)
    lparen = m.end() - 1
    rparen = _match_paren(line, lparen)
    if rparen < 0:
        return None

    params: list[ParamLayout] = []
    inner = line[lparen + 1:rparen]
    if inner.strip():
        for lo, hi in _split_top_level(inner, lparen + 1):
            piece = line[lo:hi]
            pm = re.match(r"(\s*)(\w+)", piece)
            if not pm:
                return None
            p_start = lo + pm.start(2)
            p_end = lo + pm.end(2)
            rest = piece[pm.end():]
            rest_base = lo + pm.end()
            annotation = None
            annot_start = annot_end = p_end
            default = None
            colon = _find_top_level(rest, ":")
            eq = _find_top_level(rest, "=")
            first_marker = min(m for m in (colon, eq, len(rest))
                               if m >= 0)
            if rest[:first_marker].strip():
                return None  # stray text between the name and : or =
            if colon >= 0 and (eq < 0 or colon < eq):
                annot_text_end = eq if eq >= 0 else len(rest)
                annotation = rest[colon + 1:annot_text_end].strip()
                if not annotation:
                    return None
                annot_start = rest_base + colon
                annot_end = rest_base + len(rest[:annot_text_end].rstrip())
            if eq >= 0:
                default = rest[eq + 1:].strip()
            params.append(ParamLayout(pm.group(2), p_start, p_end,
                                      annotation, annot_start, annot_end,
                                      default))

    tail = line[rparen + 1:]
    rm = re.match(r"\s*->\s*(\S[^:]*?)\s*:\s*(?:#.*)?$", tail)
    if rm:
        ret = rm.group(1)
        # span covers '->' plus the type text, excluding the final colon
        ret_start = rparen + 1 + tail.index("->")
        ret_end = rparen + 1 + rm.end(1)
        return DefLayout(indent, name, name_start, name_end, lparen, rparen,
                         tuple(params), ret, ret_start, ret_end)
    if re.match(r"\s*:\s*(?:#.*)?$", tail):
        return DefLayout(indent, name, name_start, name_end, lparen, rparen,
                         tuple(params), None, rparen + 1, rparen + 1)
    return None


def _find_top_level(text: str, target: str) -> int:
    depth = 0
    quote: str | None = None
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == target and depth == 0:
            return i
    return -1
