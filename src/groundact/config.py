"""Experiment configuration: dataclasses plus key=value config-file support.

Config files are standard INI text with three sections, [model], [loss] and
[train]; every field has a default, so a config file only needs the keys it
overrides.  A checkpoint stores its config as the same text
(:func:`config_text`), and :func:`parse_config` reads both, so a bad value
fails the same way and names the file or checkpoint it came from.
"""

from __future__ import annotations

import configparser
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
        float field must be a finite float (code may set it as an int)."""
        for section in _SECTIONS:
            part = getattr(self, section)
            for f in fields(part):
                value = getattr(part, f.name)
                if f.type == "float" and not abs(value) <= sys.float_info.max:
                    raise ConfigError(f"[{section}] {f.name} = {value!r} is "
                                      f"not a finite float")
            part.validate()


_SECTIONS = ("model", "loss", "train")


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}
# INI text -> field value, by the field's annotated type; str passes through
_PARSERS = {"bool": lambda text: _BOOLS[text.strip().lower()],
            "int": int, "float": float}


def parse_config(text: str, source) -> ExperimentConfig:
    """The validated config that INI ``text`` sets, read from ``source``: a
    config file or a checkpoint.  Any error is a one-line ConfigError that
    names the source.  Values are plain text: ``%`` interpolates nothing."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(source))
    except configparser.Error as err:
        # configparser's text names the source and line, over several lines
        raise ConfigError(" ".join(line.strip()
                                   for line in str(err).splitlines())) from None
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {source}; "
                              f"expected one of {sorted(_SECTIONS)}")
        target = getattr(cfg, section)
        types = {f.name: f.type for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown key [{section}] {key}, in {source}")
            try:
                setattr(target, key, _PARSERS.get(types[key], str)(raw))
            except (KeyError, ValueError):
                raise ConfigError(f"[{section}] {key} = {raw!r} is not a "
                                  f"valid {types[key]}, in {source}") from None
    try:
        cfg.validate()
    except ConfigError as err:
        raise ConfigError(f"{err}, in {source}") from None
    return cfg


def load_config(path) -> ExperimentConfig:
    """The config an INI file sets; any error is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err}") from None
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{err.strerror}") from None
    return parse_config(text, path)


def config_text(cfg: ExperimentConfig) -> str:
    """cfg as the INI text that :func:`parse_config` reads back ``==``: one
    ``key = value`` line per field under its section."""
    lines = []
    for section in _SECTIONS:
        part = getattr(cfg, section)
        lines += [f"[{section}]", *(f"{f.name} = {getattr(part, f.name)}"
                                    for f in fields(part)), ""]
    return "\n".join(lines)
