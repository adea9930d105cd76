"""Flat key=value configuration with strict key validation."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .consistency import MatchOptions
from .errors import ConfigError

DEFAULT_CONFIG_PATH = "modelsync.conf"

# sync policies: the config key and the --policy flag take the same names
POLICIES = ("model-wins", "code-wins", "union", "ask")
# identifier matching modes: the config key and the --name-mode flag
NAME_MODES = ("exact", "canonical")


class Config(NamedTuple):
    name_mode: str = MatchOptions().name_mode
    rename_threshold: float = MatchOptions().rename_threshold
    type_equivalences: tuple[tuple[str, str], ...] = ()
    policy: str = "union"
    preferred_side: str = "model"
    fixtures_dir: str = "fixtures/llm"
    llm_endpoint: str = "https://api.openai.com/v1/chat/completions"
    llm_model: str = "gpt-4-0613"


# the keys that take one of a few names, and the names each takes
_CHOICES = {"name_mode": NAME_MODES, "policy": POLICIES,
            "preferred_side": ("model", "code")}


def checked_threshold(value: str | float, name: str) -> float:
    """``value`` as a number in [0, 1], which NaN is not; a ConfigError
    naming ``name`` otherwise."""
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{name} must be a number") from None
    if not 0.0 <= number <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1]")
    return number


def _parse_type_equivalences(value: str,
                             where: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(
                f"{where}: type equivalence {chunk!r} is not of the form a:b")
        a, b = (part.strip() for part in chunk.split(":", 1))
        if not a or not b:
            raise ConfigError(
                f"{where}: type equivalence {chunk!r} has empty names")
        pairs.append((a, b))
    return tuple(pairs)


def load_config(path: str | Path | None = None) -> Config:
    """Load configuration; a missing default file just yields the defaults."""
    explicit = path is not None
    config_path = Path(path) if path is not None else Path(DEFAULT_CONFIG_PATH)
    if not config_path.exists():
        if explicit:
            raise ConfigError(f"config file {config_path} does not exist")
        return Config()

    try:
        text = config_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{config_path}: not valid UTF-8 at byte "
                          f"{exc.start}") from None
    cfg = Config()
    set_at: dict[str, int] = {}  # the line that set each key
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{config_path}:{line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        where = f"{config_path}:{line_no}"
        if key in set_at:
            raise ConfigError(
                f"{where}: key {key!r} already set at line {set_at[key]}")
        set_at[key] = line_no
        cfg = _apply_key(cfg, key, value, where)
    return cfg


def _apply_key(cfg: Config, key: str, value: str, where: str) -> Config:
    if key not in Config._fields:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if not value and key != "type_equivalences":  # empty: no extra pairs
        raise ConfigError(f"{where}: {key} needs a value")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(
            f"{where}: {key} must be one of {', '.join(_CHOICES[key])}")
    if key == "rename_threshold":
        value = checked_threshold(value, f"{where}: {key}")
    elif key == "type_equivalences":
        value = _parse_type_equivalences(value, where)
    return cfg._replace(**{key: value})
