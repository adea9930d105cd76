"""Exception hierarchy shared by every modelsync module."""

from __future__ import annotations


class ModelSyncError(Exception):
    """Base class for all modelsync errors."""


class ParseError(ModelSyncError):
    """An artifact could not be parsed.

    Carries the 1-based position of the offending input line so callers can
    point at the source.
    """

    def __init__(self, message: str, *, artifact: str = "", line: int = 0,
                 col: int = 0):
        super().__init__(message)
        self.artifact = artifact
        self.line = line
        self.col = col

    def __str__(self) -> str:
        prefix = f"{self.artifact}:" if self.artifact else ""
        if self.line:
            prefix += f"{self.line}:" + (f"{self.col}:" if self.col else "")
        msg = super().__str__()
        return f"{prefix} {msg}" if prefix else msg


class MissingRegionError(ParseError):
    """The PlantUML envelope (@startuml/@enduml or fenced block) is absent."""


class DuplicateClassError(ParseError):
    """Two class declarations share a name."""


class DuplicateMemberError(ParseError):
    """Two members of a class collide on (normalized name, arity)."""


class EditError(ModelSyncError):
    """A textual or model edit could not be applied."""


class SpanOutOfRangeError(EditError):
    """An edit span does not fit inside the target text."""


class OverlappingEditsError(EditError):
    """Two edits target overlapping spans of the same text."""


class EditConflictError(EditError):
    """Two chosen corrections target the same entity incompatibly."""


class DanglingParameterError(EditError):
    """A new signature drops a parameter that the body still reads."""


class StaleReportError(ModelSyncError):
    """A report was made from other parsed artifacts than the ones given."""


class ConfigError(ModelSyncError):
    """The configuration file is malformed or holds unknown keys."""


class TransportError(ModelSyncError):
    """The chat endpoint could not be reached or replayed."""


class NoBlockFoundError(ModelSyncError):
    """A response contains no extractable model or code block."""


class GenerationUnparsableError(ModelSyncError):
    """Generated text was extracted but failed to parse; raw text attached."""

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


class MissingInputError(ModelSyncError):
    """A prompt template input is absent or empty."""
