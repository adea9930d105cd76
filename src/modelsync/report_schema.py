"""The JSON schema (draft-07) of the version-1 report of ``check --json``.

Data only: ``modelsync.cli.REPORT_JSON_SCHEMA`` loads this module the
first time it is read, so no command compiles it.
"""

REPORT_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "inputs", "options", "findings"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": 1},
        "inputs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "sha256"],
                "additionalProperties": False,
                "properties": {"path": {"type": "string"},
                               "sha256": {"type": "string"}},
            },
        },
        "options": {
            "type": "object",
            "required": ["nameMode", "renameThreshold",
                         "inferCodeRelationships", "typeEquivalences"],
            "additionalProperties": False,
            "properties": {
                "nameMode": {"enum": ["exact", "canonical"]},
                "renameThreshold": {"type": "number"},
                "inferCodeRelationships": {"type": "boolean"},
                "typeEquivalences": {
                    "type": "array",
                    "items": {"type": "array",
                              "items": {"type": "string"}},
                },
            },
        },
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "severity", "modelLocation",
                             "codeLocation", "detail", "suggestions"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "kind": {"type": "string"},
                    "severity": {"enum": ["error", "advisory"]},
                    "modelLocation": {"$ref": "#/definitions/location"},
                    "codeLocation": {"$ref": "#/definitions/location"},
                    "detail": {"type": "string"},
                    "suggestions": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["side", "editKind", "description"],
                            "additionalProperties": False,
                            "properties": {
                                "side": {"enum": ["model", "code"]},
                                "editKind": {"type": "string"},
                                "description": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
    },
    "definitions": {
        "location": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["class"],
                    "additionalProperties": False,
                    "properties": {
                        "class": {"type": "string"},
                        "member": {"type": ["string", "null"]},
                        "span": {
                            "oneOf": [
                                {"type": "null"},
                                {
                                    "type": "object",
                                    "required": ["startLine", "startCol",
                                                 "endLine", "endCol"],
                                    "additionalProperties": False,
                                    "properties": {
                                        "startLine": {"type": "integer"},
                                        "startCol": {"type": "integer"},
                                        "endLine": {"type": "integer"},
                                        "endCol": {"type": "integer"},
                                    },
                                },
                            ]
                        },
                    },
                },
            ]
        }
    },
}
