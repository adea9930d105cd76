"""Command-line surface: check, sync, render, extract, gen-code and gen.

Exit codes:
  0  success / no error findings
  1  error findings (check), or synchronization did not converge (sync)
  2  parse error in an input artifact, or in an output sync would write
     (message carries the location; sync then writes nothing), or empty
     requirements (gen)
  3  I/O or configuration error
  4  transport or extraction failure (gen), including a malformed
     endpoint answer or fixture file

JSON reports follow REPORT_JSON_SCHEMA (``modelsync.report_schema``, loaded
when first read) and are byte-identical for identical invocations.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from pathlib import Path

from .config import (NAME_MODES, POLICIES, Config, checked_threshold,
                     load_config)
from .consistency import InputDescriptor, MatchOptions, Report, check
from .correction import CorrectionSet, propose
from .errors import (ConfigError, GenerationUnparsableError, ModelSyncError,
                     NoBlockFoundError, ParseError, TransportError)
from .model import make_type_table, sha256_hex
from .plantuml import parse_plantuml, render_plantuml
from .pycode import parse_code

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
    if not report.findings:
        return "Design model and code are structurally consistent.\n"
    errors = report.error_findings()
    advisories = [f for f in report.findings if f.severity == "advisory"]
    summary = f"{len(errors)} inconsistenc" + \
        ("y" if len(errors) == 1 else "ies")
    if advisories:
        summary += f", {len(advisories)} advisory note(s)"
    lines = [f"Found {summary}:"]
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


_BOM = b"\xef\xbb\xbf"


def write_atomically(outputs: list[tuple[str, bytes]]) -> None:
    """Write each (path, data) through a temp file in the path's directory,
    then move every temp file over its path with ``os.replace``.  A path
    that is a symlink is written through; an existing file keeps its mode.
    When a file cannot be staged, no path is written.
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
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _descriptor(path: str, data: bytes) -> InputDescriptor:
    return InputDescriptor(path, sha256_hex(data))


def _match_options(cfg: Config, args) -> MatchOptions:
    threshold = args.rename_threshold
    if threshold is None:
        threshold = cfg.rename_threshold
    else:
        checked_threshold(threshold, "--rename-threshold")
    return MatchOptions(args.name_mode or cfg.name_mode, threshold,
                        make_type_table(cfg.type_equivalences),
                        args.infer_relationships)


def _checked_pair(args, cfg: Config):
    """Read, parse and check the pair; the inputs come back as the
    ``(bytes, text)`` pairs of :func:`_read_file`."""
    opts = _match_options(cfg, args)
    model_in = _read_file(args.model)
    code_in = _read_file(args.code)
    design = parse_plantuml(model_in[1], artifact=args.model)
    code_doc = parse_code(code_in[1], artifact=args.code)
    report = check(design, code_doc.model, opts,
                   inputs=(_descriptor(args.model, model_in[0]),
                           _descriptor(args.code, code_in[0])))
    return model_in, code_in, design, code_doc, report


def _print_report(report: Report, sets: list[CorrectionSet],
                  as_json: bool) -> None:
    suggestions = {s.finding.id: s for s in sets}
    if as_json:
        print(format_report_json(report, suggestions))
    else:
        print(format_report_text(report, suggestions), end="")


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    # the read inputs are left out, so their bytes, hashed already, die
    # before the corrections and the report are made
    design, code_doc, report = _checked_pair(args, cfg)[2:]
    sets = propose(report, design, code_doc)
    _print_report(report, sets, args.json)
    return 1 if report.error_findings() else 0


def cmd_sync(args) -> int:
    """Repair the pair and write it once the result re-checks clean.

    The stages run in order, and each one's data is deleted after its last
    use, so that only one analysis is alive at a time: the report and the
    alternatives not chosen go once the choice is made; the input texts,
    the design and the input code document go before the rewritten sides
    are encoded, and only the model of a side left unchanged is kept for
    the re-check.  Reference counting alone frees them (``main`` pauses
    the collector), which holds because the records are acyclic.
    """
    # looked up here, when the command runs: ``check`` never compiles the
    # write path, and a wrapper put on ``repair.apply`` is the one called
    from . import repair

    model_out, code_out = repair.output_paths(args)
    cfg = load_config(args.config)
    (model_data, model_text), (code_data, code_text), design, code_doc, \
        report = _checked_pair(args, cfg)

    sets = propose(report, design, code_doc)
    policy_name = args.policy or cfg.policy
    if policy_name == "ask":
        chosen = repair.ask(sets)
    else:
        chosen = repair.resolve(sets, repair.Policy(policy_name),
                                cfg.preferred_side)
    if chosen:
        lines = [f"applied {len(chosen)} correction(s):"]
        lines += [f"  - [{edit.side}] {edit.description}" for edit in chosen]
    elif report.error_findings():
        lines = ["no correction chosen; artifacts unchanged"]
    else:
        lines = ["already synchronized; artifacts unchanged"]
    options = report.options
    del sets, report

    model_now, code_now = model_text, code_text
    if chosen:
        new_model, code_now = repair.apply(design, code_doc, chosen)
        if any(e.side == "model" for e in chosen):
            model_now = render_plantuml(new_model)
        del new_model
    del chosen
    # a side left unchanged keeps only the model parsed from it, and
    # writes its input bytes, line ends included
    re_design = re_code = None
    if model_now == model_text:
        re_design, model_now = design, None
    if code_now == code_text:
        re_code, code_now = code_doc.model, None
    del model_text, code_text, design, code_doc

    # a rewritten side is verified in memory before anything is written
    if model_now is not None:
        model_data = (_BOM if model_data.startswith(_BOM) else b"") + \
            model_now.encode("utf-8")
        re_design = repair.reparse(parse_plantuml, model_now, model_out)
        del model_now
    if code_now is not None:
        code_data = (_BOM if code_data.startswith(_BOM) else b"") + \
            code_now.encode("utf-8")
        re_code = repair.reparse(parse_code, code_now, code_out).model
        del code_now
    remaining = check(re_design, re_code, options).error_findings()

    print("\n".join(lines))
    if remaining:
        print(f"synchronization did not converge: "
              f"{len(remaining)} finding(s) remain", file=sys.stderr)
        for f in remaining:
            print(f"  - {f.detail}", file=sys.stderr)
        print("nothing written", file=sys.stderr)
        return 1

    write_atomically([(model_out, model_data), (code_out, code_data)])
    print(f"wrote {model_out}")
    print(f"wrote {code_out}")
    return 0


def cmd_render(args) -> int:
    load_config(args.config)
    design = parse_plantuml(_read_file(args.model)[1], artifact=args.model)
    print(render_plantuml(design), end="")
    return 0


def cmd_extract(args) -> int:
    load_config(args.config)
    doc = parse_code(_read_file(args.code)[1], artifact=args.code)
    print(render_plantuml(doc.model), end="")
    return 0


def cmd_gen_code(args) -> int:
    from .pywrite import render_code_skeleton

    load_config(args.config)
    design = parse_plantuml(_read_file(args.model)[1], artifact=args.model)
    print(render_code_skeleton(design), end="")
    return 0


def cmd_gen(args) -> int:
    from .llm import FixtureTransport, HttpTransport, gen_code, gen_model

    cfg = load_config(args.config)
    opts = _match_options(cfg, args)
    requirements = _read_file(args.requirements)[1]
    if not requirements.strip():
        raise ParseError("the requirements are empty",
                         artifact=args.requirements)
    if args.transport == "fixtures":
        transport = FixtureTransport(args.fixtures_dir or cfg.fixtures_dir)
    else:
        transport = HttpTransport(cfg.llm_endpoint)

    # made before any request, so a directory that cannot be made costs no
    # completion
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs: list[tuple[str, bytes]] = []
    if args.what in ("model", "both"):
        model_path = str(out_dir / "model.puml")
        model_text = render_plantuml(
            gen_model(requirements, transport, cfg.llm_model))
        design = parse_plantuml(model_text, artifact=model_path)
        outputs.append((model_path, model_text.encode("utf-8")))
    if args.what in ("code", "both"):
        code_path = str(out_dir / "code.py")
        code_doc = gen_code(requirements, transport, cfg.llm_model, code_path)
        outputs.append((code_path, code_doc.raw_text.encode("utf-8")))

    # written only once every answer has parsed: a failure writes nothing
    write_atomically(outputs)
    notes = sys.stderr if args.json else sys.stdout
    for path, _ in outputs:
        print(f"wrote {path}", file=notes)

    if args.what == "both":
        report = check(design, code_doc.model, opts,
                       inputs=tuple(_descriptor(*out) for out in outputs))
        sets = propose(report, design, code_doc)
        _print_report(report, sets, args.json)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="path to a key=value config file")


def _add_match_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--name-mode", choices=NAME_MODES,
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


def console_main() -> int:
    """Entry of the ``modelsync`` script and of ``python -m modelsync.cli``.

    Runs :func:`main` on ``sys.argv`` and then freezes the collector, so
    that at exit the interpreter's finalizing collections find nothing to
    scan and the module-level cycles (classes, functions, module dicts) are
    left to the operating system instead of being freed one object at a
    time.  ``atexit`` hooks still run and stdout and stderr are still
    flushed; every file a command writes is closed before it returns.  Only
    a process that is about to exit may call this: :func:`main` itself
    never freezes, so callers that run it in process keep their heap.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
