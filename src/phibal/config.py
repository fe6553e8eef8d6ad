"""Config file parsing: one YAML file describes a run or a sweep plan.

Parsing is strict: unknown keys are rejected with the offending section and
key named. ``config_to_dict``/``config_from_dict`` round-trip, so a config
can be regenerated from a parsed one byte-for-byte stable.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import fields, replace
from pathlib import Path

from .corpus import CorpusSpec
from .schema import check_value
from .training import (
    BalanceConfig,
    ModelConfig,
    OptimizerConfig,
    TrainConfig,
)

__all__ = [
    "ConfigError",
    "parse_config",
    "config_from_dict",
    "config_to_dict",
    "plan_from_dict",
]


class ConfigError(ValueError):
    """Malformed config file or out-of-range value."""


_NESTED = {
    "model": ModelConfig,
    "balance": BalanceConfig,
    "optimizer": OptimizerConfig,
    "corpus": CorpusSpec,
}
# Where the file format departs from the dataclass fields. Corpus ``dim``
# comes from the model; `config_to_dict` writes corpus ``centers`` only when
# it is set.
_RENAMED = {"n_domains": "domains"}
_SKIPPED = {"corpus": {"dim"}, "train": set(_NESTED)}
_CLASSES = {**_NESTED, "train": TrainConfig}

# Section -> {file key: dataclass field}.
_SECTIONS = {
    section: {
        _RENAMED.get(f.name, f.name): f.name
        for f in fields(cls)
        if f.name not in _SKIPPED.get(section, ())
    }
    for section, cls in _CLASSES.items()
}
_SWEEP_KEYS = ("axis", "values", "seeds")
# A file that leaves out corpus ``domains`` gets the default config's count.
_DEFAULT_DOMAINS = TrainConfig().corpus.n_domains


def _check_keys(section: str, data: dict, allowed: Container[str]) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a mapping, got {type(data).__name__}")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section {section!r}")


def _from_yaml(section: str, key: str, value):
    """YAML lists (corpus mixture and centers) become tuples of floats, each
    element held to a float field's rule: an int becomes a float, and a bool,
    a string or any other type is refused, naming section, key and element."""
    if isinstance(value, list):
        return tuple(
            _from_yaml(section, key, v) if isinstance(v, list)
            else check_value(section, key, "float", {}, v)
            for v in value
        )
    return value


def _to_yaml(value):
    return [_to_yaml(v) for v in value] if isinstance(value, tuple) else value


def config_from_dict(raw: dict) -> TrainConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for section in raw:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
    for section, keys in _SECTIONS.items():
        _check_keys(section, raw.get(section, {}), keys)

    try:
        kwargs = {
            section: {
                keys[key]: _from_yaml(section, key, v) for key, v in raw.get(section, {}).items()
            }
            for section, keys in _SECTIONS.items()
        }
        model = ModelConfig(**kwargs["model"])
        return TrainConfig(
            model=model,
            balance=BalanceConfig(**kwargs["balance"]),
            optimizer=OptimizerConfig(**kwargs["optimizer"]),
            corpus=CorpusSpec(
                **{"n_domains": _DEFAULT_DOMAINS, "dim": model.dim, **kwargs["corpus"]}
            ),
            **kwargs["train"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: TrainConfig) -> dict:
    """Inverse of config_from_dict."""
    out = {}
    for section, keys in _SECTIONS.items():
        source = cfg if section == "train" else getattr(cfg, section)
        out[section] = {key: _to_yaml(getattr(source, name)) for key, name in keys.items()}
    if cfg.corpus.centers is None:
        del out["corpus"]["centers"]
    return out


def plan_from_dict(raw: dict):
    """Parse a sweep plan: a 'sweep' section plus a base run config."""
    from .experiments import ExperimentPlan  # local import, avoids a cycle

    raw = dict(raw)
    sweep = raw.pop("sweep")
    _check_keys("sweep", sweep, _SWEEP_KEYS)
    for key in ("values", "seeds"):
        if not isinstance(sweep.get(key, []), (list, type(None))):
            raise ConfigError(f"sweep {key!r} must be a list, got {type(sweep[key]).__name__}")
    seeds = sweep.get("seeds", [0]) or ()
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"sweep 'seeds' must hold integers >= 0, got {seed!r}")
    return ExperimentPlan(
        base=config_from_dict(raw),
        axis=sweep.get("axis"),
        values=tuple(sweep.get("values") or ()),
        seeds=tuple(seeds),
    )


def parse_config(path):
    """Load a run config or sweep plan from a YAML file."""
    import yaml  # here, not at module level: only a config file needs it

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past Python's digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    if raw is None:
        raw = {}
    if isinstance(raw, dict) and "sweep" in raw:
        return plan_from_dict(raw)
    return config_from_dict(raw)  # which rejects a root that is not a mapping


def with_seed(cfg: TrainConfig, seed: int) -> TrainConfig:
    """A copy of the config with both the parameter and corpus seeds set."""
    return replace(cfg, seed=seed, corpus=replace(cfg.corpus, seed=seed))
