"""``cli.report_to_json`` as it was before ``check --json`` had its own
writer: the report as the dict that ``json.dumps(..., indent=2)`` printed.
``test_report_differential.py`` holds ``cli.format_report_json`` to it.
"""

from __future__ import annotations

from modelsync.consistency import Report
from modelsync.correction import CorrectionSet


def _location_json(loc) -> dict | None:
    if loc is None:
        return None
    span = None
    if loc.span is not None:
        span = {"startLine": loc.span.start_line,
                "startCol": loc.span.start_col,
                "endLine": loc.span.end_line,
                "endCol": loc.span.end_col}
    return {"class": loc.class_name, "member": loc.member, "span": span}


def report_to_json(report: Report,
                   suggestions: dict[str, CorrectionSet]) -> dict:
    options = {
        "nameMode": report.options.name_mode,
        "renameThreshold": report.options.rename_threshold,
        "inferCodeRelationships": report.options.infer_code_relationships,
        "typeEquivalences": sorted(sorted(pair)
                                   for pair in report.options.type_table),
    }
    findings = []
    for f in report.findings:
        s = suggestions.get(f.id)
        findings.append({
            "id": f.id,
            "kind": f.kind.value,
            "severity": f.severity,
            "modelLocation": _location_json(f.model_loc),
            "codeLocation": _location_json(f.code_loc),
            "detail": f.detail,
            "suggestions": [
                {"side": alt.side, "editKind": alt.kind,
                 "description": alt.description}
                for alt in (s.alternatives if s else ())],
        })
    return {
        "version": report.schema_version,
        "inputs": [{"path": d.path, "sha256": d.sha256}
                   for d in report.inputs],
        "options": options,
        "findings": findings,
    }
