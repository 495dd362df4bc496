"""Experiment configuration: dataclasses plus key=value config-file support.

Config files are standard INI text with three sections, [model], [loss] and
[train]; every field has a default, so a config file only needs the keys it
overrides.
"""

from __future__ import annotations

import configparser
import dataclasses
import sys
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    pass


def _at_least(section: str, cfg, low, names):
    """A ConfigError naming ``[section] key`` for the first of ``names``
    whose value in cfg is below ``low``, or NaN."""
    for name in names:
        if not getattr(cfg, name) >= low:
            raise ConfigError(f"[{section}] {name} = {getattr(cfg, name)!r} "
                              f"must be at least {low}")


@dataclass
class ModelConfig:
    """Every architectural hyperparameter of the grounded GAR model."""

    # widths
    d_model: int = 256
    num_heads: int = 8
    d_ff_mult: int = 4
    dropout: float = 0.1

    # stack depths (0 disables the stage; used by the ablation sweep)
    encoder_layers: int = 2
    decoder_layers: int = 3

    # video geometry
    frames: int = 8               # T, sampled frames per clip
    grid_h: int = 4
    grid_w: int = 4
    raster_h: int = 32
    raster_w: int = 32
    channels: int = 1

    # text; the embedding has one row per token of the packaged vocab.txt
    l_max: int = 16

    # actors; the label heads are sized by data.ACTIONS and data.GROUPS
    num_queries: int = 8          # N, actor query slots
    use_actor_fusion: bool = True

    @property
    def hw(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def d_ff(self) -> int:
        return self.d_ff_mult * self.d_model

    @property
    def patch_h(self) -> int:
        return self.raster_h // self.grid_h

    @property
    def patch_w(self) -> int:
        return self.raster_w // self.grid_w

    def validate(self):
        _at_least("model", self, 1, (
            "d_model", "num_heads", "d_ff_mult", "frames", "grid_h", "grid_w",
            "raster_h", "raster_w", "channels", "l_max", "num_queries"))
        _at_least("model", self, 0, ("encoder_layers", "decoder_layers"))
        if self.d_model % 4:    # the grid encoding's halves are sin/cos pairs
            raise ConfigError(f"[model] d_model = {self.d_model} is not a "
                              f"multiple of 4")
        for name, by in (("d_model", "num_heads"), ("raster_h", "grid_h"),
                         ("raster_w", "grid_w")):
            if getattr(self, name) % getattr(self, by):
                raise ConfigError(f"[model] {name} = {getattr(self, name)} is "
                                  f"not divisible by [model] {by}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"[model] dropout {self.dropout} outside [0, 1)")


@dataclass
class LossWeights:
    l1: float = 5.0
    giou: float = 2.0
    group_ce: float = 1.0
    action_bce: float = 1.0

    def validate(self):
        _at_least("loss", self, 0, [f.name for f in fields(self)])


@dataclass
class TrainConfig:
    peak_lr: float = 5e-4
    warmup_epochs: int = 5
    total_epochs: int = 30
    steps_per_epoch: int = 16
    weight_decay_start: float = 0.04
    weight_decay_end: float = 0.1
    batch_size: int = 4
    grad_clip: float = 1.0        # 0 disables clipping
    seed: int = 0
    eval_every: int = 50
    mode: str = "full"            # full | weak

    @property
    def total_steps(self) -> int:
        return self.total_epochs * self.steps_per_epoch

    @property
    def warmup_steps(self) -> int:
        return self.warmup_epochs * self.steps_per_epoch

    def validate(self):
        _at_least("train", self, 1, ("batch_size", "steps_per_epoch"))
        _at_least("train", self, 0, ("seed", "peak_lr", "grad_clip",
                                     "warmup_epochs"))
        if self.warmup_epochs >= self.total_epochs:
            raise ConfigError("[train] warmup_epochs must be < total_epochs")
        if self.weight_decay_start > self.weight_decay_end:
            raise ConfigError("[train] weight_decay_start > weight_decay_end")
        if self.mode not in ("full", "weak"):
            raise ConfigError(f"[train] mode: unknown mode {self.mode!r}")


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        """A ConfigError naming ``[section] key`` for the first bad value; a
        float field must be a finite float (a dict may hold it as an int)."""
        for section in _SECTIONS:
            part = getattr(self, section)
            for f in fields(part):
                value = getattr(part, f.name)
                if f.type == "float" and not abs(value) <= sys.float_info.max:
                    raise ConfigError(f"[{section}] {f.name} = {value!r} is "
                                      f"not a finite float")
            part.validate()


_SECTIONS = {"model": ModelConfig, "loss": LossWeights, "train": TrainConfig}


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}
# INI text -> field value, by the field's annotated type; str passes through
_PARSERS = {"bool": lambda text: _BOOLS[text.strip().lower()],
            "int": int, "float": float}


def _known_sections(sections, where: str):
    """An unknown section is a ConfigError naming it."""
    for section in sections:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {where}; "
                              f"expected one of {sorted(_SECTIONS)}")


def _known_fields(section: str, keys, where: str) -> dict:
    """The section's fields by name; an unknown key is a ConfigError."""
    known = {f.name: f for f in fields(_SECTIONS[section])}
    for key in keys:
        if key not in known:
            raise ConfigError(f"unknown key [{section}] {key}, in {where}")
    return known


def _validated(cfg: ExperimentConfig, where) -> ExperimentConfig:
    """cfg, once it validates; its ConfigError names ``where`` it came from."""
    try:
        cfg.validate()
    except ConfigError as err:
        raise ConfigError(f"{err}, in {where}") from None
    return cfg


def load_config(path) -> ExperimentConfig:
    """The config an INI file sets.  Any error in the file is a ConfigError
    that names it.  Values are plain text: ``%`` interpolates nothing."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as err:
        # configparser's text names the file and line
        raise ConfigError(str(err)) from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    sections = {s: parser.items(s) for s in parser.sections()}
    _known_sections(sections, path)
    cfg = ExperimentConfig()
    for section, items in sections.items():
        target = getattr(cfg, section)
        known = _known_fields(section, [key for key, _ in items], path)
        for key, raw in items:
            ftype = known[key].type
            try:
                setattr(target, key, _PARSERS.get(ftype, str)(raw))
            except (KeyError, ValueError):
                raise ConfigError(f"[{section}] {key} = {raw!r} is not a "
                                  f"valid {ftype}, in {path}") from None
    return _validated(cfg, path)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


# a stored value's types by its field's annotated type: an int is a valid
# float, and a bool (an int to Python) is valid only for a bool field
_STORED_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float),
                 "str": (str,)}


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"config dict is a {type(d).__name__}, not a dict "
                          f"of section dicts")
    _known_sections(d, "config dict")
    parts = {}
    for section, cls in _SECTIONS.items():
        values = d.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"[{section}] = {values!r} is not a section "
                              f"of keys, in config dict")
        known = _known_fields(section, values, "config dict")
        for key, value in values.items():
            ftype = known[key].type
            if (not isinstance(value, _STORED_TYPES[ftype])
                    or isinstance(value, bool) and ftype != "bool"):
                raise ConfigError(f"[{section}] {key} = {value!r} is not a "
                                  f"valid {ftype}, in config dict")
        parts[section] = cls(**values)
    return _validated(ExperimentConfig(**parts), "config dict")
