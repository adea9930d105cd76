"""Flat key=value configuration with strict key validation."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError

DEFAULT_CONFIG_PATH = "modelsync.conf"

# sync policies: the config key and the --policy flag take the same names
POLICIES = ("model-wins", "code-wins", "union", "ask")


class Config(NamedTuple):
    name_mode: str = "canonical"
    rename_threshold: float = 0.3
    type_equivalences: tuple[tuple[str, str], ...] = ()
    policy: str = "union"
    preferred_side: str = "model"
    fixtures_dir: str = "fixtures/llm"
    llm_endpoint: str = "https://api.openai.com/v1/chat/completions"
    llm_model: str = "gpt-4-0613"


def _parse_type_equivalences(value: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(
                f"type equivalence {chunk!r} is not of the form a:b")
        a, b = (part.strip() for part in chunk.split(":", 1))
        if not a or not b:
            raise ConfigError(f"type equivalence {chunk!r} has empty names")
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
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{config_path}:{line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg = _apply_key(cfg, key, value, f"{config_path}:{line_no}")
    return cfg


def _apply_key(cfg: Config, key: str, value: str, where: str) -> Config:
    if key == "name_mode":
        if value not in ("exact", "canonical"):
            raise ConfigError(f"{where}: name_mode must be exact|canonical")
        return cfg._replace(name_mode=value)
    if key == "rename_threshold":
        try:
            threshold = float(value)
        except ValueError:
            raise ConfigError(f"{where}: rename_threshold must be a number")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"{where}: rename_threshold must be in [0, 1]")
        return cfg._replace(rename_threshold=threshold)
    if key == "type_equivalences":
        return cfg._replace(type_equivalences=_parse_type_equivalences(value))
    if key == "policy":
        if value not in POLICIES:
            raise ConfigError(
                f"{where}: policy must be one of {', '.join(POLICIES)}")
        return cfg._replace(policy=value)
    if key == "preferred_side":
        if value not in ("model", "code"):
            raise ConfigError(f"{where}: preferred_side must be model|code")
        return cfg._replace(preferred_side=value)
    if key == "fixtures_dir":
        return cfg._replace(fixtures_dir=value)
    if key == "llm_endpoint":
        return cfg._replace(llm_endpoint=value)
    if key == "llm_model":
        return cfg._replace(llm_model=value)
    raise ConfigError(f"{where}: unknown key {key!r}")
