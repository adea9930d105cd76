"""Command-line surface: check, sync, render, extract, gen-code and gen.

Exit codes:
  0  success / no error findings
  1  error findings (check), or synchronization did not converge (sync)
  2  parse error in an input artifact, or in an output sync would write
     (message carries the location; sync then writes nothing)
  3  I/O or configuration error
  4  transport or extraction failure (gen)

JSON reports follow REPORT_JSON_SCHEMA (``modelsync.report_schema``, loaded
when first read) and are byte-identical for identical invocations.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .config import POLICIES, Config, load_config
from .consistency import InputDescriptor, MatchOptions, Report, check
from .correction import CorrectionSet, propose
from .errors import (ConfigError, GenerationUnparsableError, ModelSyncError,
                     NoBlockFoundError, ParseError, TransportError)
from .model import ClassModel, make_type_table, sha256_hex
from .plantuml import parse_plantuml, render_plantuml
from .pycode import CodeDocument, parse_code

try:  # json's own C string escaper, without loading the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote


def __getattr__(name: str):
    # only tests and tools read the schema, so no command compiles it
    if name == "REPORT_JSON_SCHEMA":
        from .report_schema import REPORT_JSON_SCHEMA
        return REPORT_JSON_SCHEMA
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _object_layout(keys: tuple[str, ...], depth: int) -> str:
    """A ``%`` template of the object ``json.dumps(..., indent=2)`` writes
    with ``keys`` in this order and its braces ``depth`` levels deep; each
    ``%s`` takes the JSON text of one value."""
    pad = "  " * depth
    fields = (",\n  " + pad).join(f'"{key}": %s' for key in keys)
    return "{\n  " + pad + fields + "\n" + pad + "}"


def _json_array(items: list[str], depth: int) -> str:
    """``items``, each JSON text already, as the array ``indent=2`` writes
    with its brackets ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "  " * depth
    return "[\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "]"


# the v1 report's objects, keys in schema order, at their depth in it
_REPORT = _object_layout(("version", "inputs", "options", "findings"), 0)
_INPUT = _object_layout(("path", "sha256"), 2)
_OPTIONS = _object_layout(("nameMode", "renameThreshold",
                           "inferCodeRelationships", "typeEquivalences"), 1)
_FINDING = _object_layout(("id", "kind", "severity", "modelLocation",
                           "codeLocation", "detail", "suggestions"), 2)
_LOCATION = _object_layout(("class", "member", "span"), 3)
_SPAN = _object_layout(("startLine", "startCol", "endLine", "endCol"), 4)
_SUGGESTION = _object_layout(("side", "editKind", "description"), 4)


def _location_json(loc) -> str:
    if loc is None:
        return "null"
    span = loc.span
    return _LOCATION % (
        _quote(loc.class_name),
        "null" if loc.member is None else _quote(loc.member),
        "null" if span is None else _SPAN % (
            span.start_line, span.start_col, span.end_line, span.end_col))


def _finding_json(f, s: CorrectionSet | None) -> str:
    alternatives = [_SUGGESTION % (_quote(alt.side), _quote(alt.kind),
                                   _quote(alt.description))
                    for alt in (s.alternatives if s else ())]
    return _FINDING % (
        _quote(f.id), _quote(f.kind.value), _quote(f.severity),
        _location_json(f.model_loc), _location_json(f.code_loc),
        _quote(f.detail), _json_array(alternatives, 3))


def format_report_json(report: Report,
                       suggestions: dict[str, CorrectionSet]) -> str:
    """The version-1 JSON report, without a final newline: the text
    ``json.dumps(report_dict, indent=2)`` writes for the report's dict
    form, keys in schema order, ints and floats through ``repr``."""
    opts = report.options
    inputs = [_INPUT % (_quote(d.path), _quote(d.sha256))
              for d in report.inputs]
    equivalences = [_json_array([_quote(name) for name in pair], 3)
                    for pair in sorted(sorted(pair)
                                       for pair in opts.type_table)]
    findings = [_finding_json(f, suggestions.get(f.id))
                for f in report.findings]
    options = _OPTIONS % (
        _quote(opts.name_mode), repr(opts.rename_threshold),
        "true" if opts.infer_code_relationships else "false",
        _json_array(equivalences, 2))
    return _REPORT % (repr(report.schema_version), _json_array(inputs, 1),
                      options, _json_array(findings, 1))


def _span_ref(loc) -> str:
    if loc is None or loc.span is None:
        return ""
    return f"{loc.span.artifact}:{loc.span.start_line}"


def format_report_text(report: Report,
                       suggestions: dict[str, CorrectionSet]) -> str:
    errors = report.error_findings()
    advisories = [f for f in report.findings if f.severity == "advisory"]
    lines: list[str] = []
    if not report.findings:
        lines.append("Design model and code are structurally consistent.")
        return "\n".join(lines) + "\n"
    summary = f"{len(errors)} inconsistenc" + \
        ("y" if len(errors) == 1 else "ies")
    if advisories:
        summary += f", {len(advisories)} advisory note(s)"
    lines.append(f"Found {summary}:")
    for i, f in enumerate(report.findings, 1):
        tag = " (advisory)" if f.severity == "advisory" else ""
        lines.append(f"\n{i}. {f.detail}{tag}")
        refs = []
        if _span_ref(f.model_loc):
            refs.append(f"model {_span_ref(f.model_loc)}")
        if _span_ref(f.code_loc):
            refs.append(f"code {_span_ref(f.code_loc)}")
        if refs:
            lines.append(f"   at: {', '.join(refs)}")
        s = suggestions.get(f.id)
        if s:
            lines.append("   choose either correction:")
            for alt in s.alternatives:
                lines.append(f"     - [{alt.side}] {alt.description}")
    return "\n".join(lines) + "\n"


def _read_file(path: str) -> tuple[bytes, str]:
    """The bytes of ``path`` and their UTF-8 text, in which ``\\r\\n`` and a
    lone ``\\r`` read as ``\\n``, as in a text-mode read, and a leading
    byte-order mark is dropped."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    text = text.removeprefix("\ufeff")
    return data, text.replace("\r\n", "\n").replace("\r", "\n")


def _descriptor(path: str, data: bytes) -> InputDescriptor:
    return InputDescriptor(path, sha256_hex(data))


def _match_options(cfg: Config, args) -> MatchOptions:
    name_mode = getattr(args, "name_mode", None) or cfg.name_mode
    threshold = getattr(args, "rename_threshold", None)
    if threshold is None:
        threshold = cfg.rename_threshold
    elif not 0.0 <= threshold <= 1.0:  # also rejects NaN
        raise ConfigError("--rename-threshold must be in [0, 1]")
    infer = bool(getattr(args, "infer_relationships", False))
    return MatchOptions(name_mode, threshold,
                        make_type_table(cfg.type_equivalences), infer)


def _checked_pair(args, cfg: Config):
    """Read, parse and check the pair; the inputs come back as the
    ``(bytes, text)`` pairs of :func:`_read_file`."""
    opts = _match_options(cfg, args)
    model_in = _read_file(args.model)
    code_in = _read_file(args.code)
    design = parse_plantuml(model_in[1], artifact=args.model).model
    code_doc = parse_code(code_in[1], artifact=args.code)
    report = check(design, code_doc.model, opts,
                   inputs=(_descriptor(args.model, model_in[0]),
                           _descriptor(args.code, code_in[0])))
    return model_in, code_in, design, code_doc, report


def _print_report(report: Report, sets: list[CorrectionSet],
                  as_json: bool) -> None:
    suggestions = {s.finding_id: s for s in sets}
    if as_json:
        print(format_report_json(report, suggestions))
    else:
        print(format_report_text(report, suggestions), end="")


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    _, _, design, code_doc, report = _checked_pair(args, cfg)
    sets = propose(report, design, code_doc)
    _print_report(report, sets, args.json)
    return 1 if report.error_findings() else 0


def cmd_sync(args) -> int:
    # looked up here, when the command runs: ``check`` never compiles the
    # write path, and a wrapper put on ``repair.apply`` is the one called
    from . import repair

    model_out, code_out = repair.output_paths(args)
    cfg = load_config(args.config)
    model_in, code_in, design, code_doc, report = _checked_pair(args, cfg)
    model_text, code_text = model_in[1], code_in[1]
    sets = propose(report, design, code_doc)

    policy_name = args.policy or cfg.policy
    if policy_name == "ask":
        chosen = repair.ask(sets)
    else:
        chosen = repair.resolve(sets, repair.Policy(policy_name),
                                cfg.preferred_side)

    out_model, out_code = model_text, code_text
    if chosen:
        new_model, out_code = repair.apply(design, code_doc, chosen)
        if any(e.side == "model" for e in chosen):
            out_model = render_plantuml(new_model)

    # verify in memory before anything is written; a side whose bytes did
    # not change is re-checked as already parsed
    re_design = (design if out_model == model_text
                 else repair.reparse(parse_plantuml, out_model,
                                     model_out).model)
    re_code = (code_doc.model if out_code == code_text
               else repair.reparse(parse_code, out_code, code_out).model)
    remaining = check(re_design, re_code, report.options).error_findings()

    if chosen:
        print(f"applied {len(chosen)} correction(s):")
        for edit in chosen:
            print(f"  - [{edit.side}] {edit.description}")
    elif report.error_findings():
        print("no correction chosen; artifacts unchanged")
    else:
        print("already synchronized; artifacts unchanged")
    if remaining:
        print(f"synchronization did not converge: "
              f"{len(remaining)} finding(s) remain", file=sys.stderr)
        for f in remaining:
            print(f"  - {f.detail}", file=sys.stderr)
        print("nothing written", file=sys.stderr)
        return 1

    repair.write_atomically([
        (model_out, repair.output_bytes(out_model, model_in)),
        (code_out, repair.output_bytes(out_code, code_in))])
    print(f"wrote {model_out}")
    print(f"wrote {code_out}")
    return 0


def cmd_render(args) -> int:
    load_config(args.config)
    doc = parse_plantuml(_read_file(args.model)[1], artifact=args.model)
    print(render_plantuml(doc.model), end="")
    return 0


def cmd_extract(args) -> int:
    load_config(args.config)
    doc = parse_code(_read_file(args.code)[1], artifact=args.code)
    print(render_plantuml(doc.model), end="")
    return 0


def cmd_gen_code(args) -> int:
    from .pywrite import render_code_skeleton

    load_config(args.config)
    doc = parse_plantuml(_read_file(args.model)[1], artifact=args.model)
    print(render_code_skeleton(doc.model), end="")
    return 0


def cmd_gen(args) -> int:
    from .llm import FixtureTransport, HttpTransport, gen_code, gen_model

    cfg = load_config(args.config)
    opts = _match_options(cfg, args)
    requirements = _read_file(args.requirements)[1]
    if args.transport == "fixtures":
        transport = FixtureTransport(args.fixtures_dir or cfg.fixtures_dir)
    else:
        transport = HttpTransport(cfg.llm_endpoint)

    # made before any request, so a directory that cannot be made costs no
    # completion
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.puml"
    code_path = out_dir / "code.py"

    model_text: str | None = None
    code_text: str | None = None
    design: ClassModel | None = None
    code_doc: CodeDocument | None = None
    if args.what in ("model", "both"):
        generated = gen_model(requirements, transport, cfg.llm_model)
        model_text = render_plantuml(generated)
        design = parse_plantuml(model_text, artifact=str(model_path)).model
    if args.what in ("code", "both"):
        code_text = gen_code(requirements, transport, cfg.llm_model)
        code_doc = parse_code(code_text, artifact=str(code_path))

    # written only once every answer has parsed: a failure writes nothing
    notes = sys.stderr if args.json else sys.stdout
    for path, text in ((model_path, model_text), (code_path, code_text)):
        if text is not None:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}", file=notes)

    if args.what == "both":
        assert design is not None and code_doc is not None
        report = check(design, code_doc.model, opts,
                       inputs=(_descriptor(str(model_path),
                                           model_text.encode("utf-8")),
                               _descriptor(str(code_path),
                                           code_text.encode("utf-8"))))
        sets = propose(report, design, code_doc)
        _print_report(report, sets, args.json)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="path to a key=value config file")


def _add_match_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--name-mode", choices=("exact", "canonical"),
                        default=None, help="identifier matching mode")
    parser.add_argument("--rename-threshold", type=float, default=None,
                        help="relative edit-distance bound for renames")
    parser.add_argument("--infer-relationships", action="store_true",
                        help="emit advisory relationship findings")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelsync",
        description="Keep a PlantUML class model and code synchronized.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="diff a model/code pair")
    p.add_argument("model")
    p.add_argument("code")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_common(p)
    _add_match_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sync", help="repair a model/code pair in one pass")
    p.add_argument("model")
    p.add_argument("code")
    p.add_argument("--policy", choices=POLICIES, default=None,
                   help="which side's values win")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--out-dir", help="write corrected artifacts here")
    target.add_argument("--in-place", action="store_true",
                        help="overwrite the input files")
    _add_common(p)
    _add_match_flags(p)
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("render", help="re-render a model canonically")
    p.add_argument("model")
    _add_common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("extract", help="extract a model from code")
    p.add_argument("code")
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("gen-code", help="generate a code skeleton from a model")
    p.add_argument("model")
    _add_common(p)
    p.set_defaults(func=cmd_gen_code)

    p = sub.add_parser("gen",
                       help="generate artifacts from requirements text")
    p.add_argument("requirements")
    p.add_argument("--what", choices=("model", "code", "both"),
                   default="both")
    p.add_argument("--transport", choices=("live", "fixtures"),
                   default="fixtures")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--fixtures-dir", default=None,
                   help="override the configured fixtures directory")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    _add_match_flags(p)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the cyclic collector is paused while it runs.

    A command builds acyclic records and ends soon after, so collections
    would only scan live objects.  Whether the collector runs afterwards
    is as it was before the call, however the command ends.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (TransportError, NoBlockFoundError,
            GenerationUnparsableError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ModelSyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
