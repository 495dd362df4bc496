"""Configuration dataclasses and INI round-tripping."""

import configparser
import dataclasses
import random
import re

import pytest

from groundact.config import (ConfigError, ExperimentConfig, LossWeights,
                              ModelConfig, TrainConfig, config_from_dict,
                              config_to_dict, load_config)

import helpers as H


def test_defaults_match_reference_recipe():
    cfg = ExperimentConfig()
    assert cfg.model.d_model == 256
    assert cfg.model.num_heads == 8
    assert cfg.loss.l1 == 5.0
    assert cfg.loss.giou == 2.0
    assert cfg.train.peak_lr == 5e-4
    assert cfg.train.warmup_epochs == 5
    assert cfg.train.weight_decay_start == 0.04
    assert cfg.train.weight_decay_end == 0.1


def test_derived_sizes():
    m = ModelConfig(d_model=64, d_ff_mult=4, grid_h=4, grid_w=4,
                    raster_h=32, raster_w=32)
    assert m.d_ff == 256
    assert m.hw == 16
    assert m.patch_h == 8 and m.patch_w == 8


def test_ini_round_trip(tmp_path):
    cfg = ExperimentConfig()
    cfg.model.d_model = 32
    cfg.model.use_actor_fusion = False
    cfg.loss.giou = 3.5
    cfg.train.seed = 7
    path = tmp_path / "cfg.ini"
    parser = configparser.ConfigParser()
    for section in ("model", "loss", "train"):
        target = getattr(cfg, section)
        parser[section] = {f.name: str(getattr(target, f.name))
                           for f in dataclasses.fields(target)}
    with open(path, "w") as fh:
        parser.write(fh)
    loaded = load_config(path)
    assert loaded.model.d_model == 32
    assert loaded.model.use_actor_fusion is False
    assert loaded.loss.giou == 3.5
    assert loaded.train.seed == 7
    # untouched fields keep defaults
    assert loaded.model.num_heads == 8


def test_partial_ini_only_overrides(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[train]\npeak_lr = 0.001\n")
    cfg = load_config(path)
    assert cfg.train.peak_lr == 0.001
    assert cfg.model.d_model == 256


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[model]\nd_modell = 7\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_dict_field_names_section_and_key():
    # a checkpoint written before a field was removed still stores it
    d = config_to_dict(ExperimentConfig())
    d["model"]["fusion_refeed"] = False
    with pytest.raises(ConfigError, match=r"\[model\] fusion_refeed"):
        config_from_dict(d)


def test_unknown_ini_section_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[model]\nd_model = 64\n[modle]\nd_model = 7\n")
    with pytest.raises(ConfigError, match=r"unknown section \[modle\]"):
        load_config(path)


def test_unknown_dict_section_rejected():
    d = config_to_dict(ExperimentConfig())
    d["modle"] = {"d_model": 7}
    with pytest.raises(ConfigError, match=r"unknown section \[modle\]"):
        config_from_dict(d)


@pytest.mark.parametrize("section, value, message", [
    ("model", {"d_model": "32"}, "[model] d_model = '32'"),
    ("model", {"use_actor_fusion": 1}, "[model] use_actor_fusion = 1"),
    ("loss", {"l1": True}, "[loss] l1 = True"),
    ("train", {"seed": 1.0}, "[train] seed = 1.0"),
    ("train", {"mode": None}, "[train] mode = None"),
    ("model", "x", "[model] = 'x'"),   # a section that is not a dict of keys
    ("loss", {"l1": 10 ** 400}, "[loss] l1 = 1000"),   # past float's range
])
def test_bad_dict_value_names_section_and_key(section, value, message):
    # a stored config is checked by each field's type, as an INI file is
    d = config_to_dict(ExperimentConfig())
    d[section] = value if isinstance(value, str) else {**d[section], **value}
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        config_from_dict(d)


@pytest.mark.parametrize("stored, kind", [
    ("model", "str"), (["model"], "list"), (None, "NoneType")])
def test_dict_that_is_not_a_dict_of_sections_says_so(stored, kind):
    with pytest.raises(ConfigError, match=rf"^config dict is a {kind}, not a "
                       rf"dict of section dicts$"):
        config_from_dict(stored)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


@pytest.mark.parametrize("text, line", [
    ("d_model = 16\n", "line: 1"),
    ("[model]\nd_model = 16\nd_model = 32\n", "[line  3]"),
])
def test_malformed_ini_is_a_config_error_naming_file_and_line(tmp_path, text,
                                                              line):
    # no section header; a duplicate key
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(path) in str(err.value) and line in str(err.value)


def test_bad_boolean_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[model]\nuse_actor_fusion = maybe\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("section, key, text", [
    ("model", "d_model", "abc"), ("loss", "l1", "five"),
    ("model", "use_actor_fusion", "maybe")])
def test_unparseable_value_names_key_text_and_file(tmp_path, section, key,
                                                   text):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert msg.startswith(f"[{section}] {key} = {text!r} is not a valid ")
    assert str(path) in msg


def test_dict_round_trip():
    cfg = ExperimentConfig()
    cfg.model.decoder_layers = 1
    cfg.loss.giou = 3         # an int is a valid float
    again = config_from_dict(config_to_dict(cfg))
    assert again.model.decoder_layers == 1
    assert again.loss.giou == 3
    assert config_to_dict(again) == config_to_dict(cfg)


def _set(cfg, section, **values):
    """Set keys of cfg's [section]; return the first as ``[section] key``,
    the name that the ConfigError must give."""
    for key, value in values.items():
        setattr(getattr(cfg, section), key, value)
    return f"[{section}] {next(iter(values))}"


@pytest.mark.parametrize("mutate", [
    lambda c: _set(c, "model", d_model=36),  # not divisible by heads
    lambda c: _set(c, "model", raster_h=33),
    lambda c: _set(c, "model", raster_w=33),
    lambda c: _set(c, "model", dropout=1.5),
    lambda c: _set(c, "train", warmup_epochs=40),
    lambda c: _set(c, "train", weight_decay_start=0.5),
    lambda c: _set(c, "train", mode="semi"),
    lambda c: _set(c, "loss", l1=-1.0),
    # zeros and negatives that used to fail later, deep in init or training
    lambda c: _set(c, "model", num_heads=0),
    lambda c: _set(c, "model", grid_h=0),
    lambda c: _set(c, "model", d_model=0),
    lambda c: _set(c, "model", frames=0),
    lambda c: _set(c, "model", l_max=0),
    lambda c: _set(c, "model", channels=0),
    lambda c: _set(c, "model", num_queries=0),
    lambda c: _set(c, "model", encoder_layers=-1),
    lambda c: _set(c, "train", batch_size=0),
    lambda c: _set(c, "train", steps_per_epoch=0),
    lambda c: _set(c, "train", seed=-1),
    lambda c: _set(c, "train", peak_lr=-1e-3),
    lambda c: _set(c, "train", grad_clip=-1.0),
    lambda c: _set(c, "train", warmup_epochs=-1),
    lambda c: _set(c, "train", peak_lr=float("nan")),
    lambda c: _set(c, "loss", giou=-2),  # an int, as a dict may hold
    # the grid encoding's row and column halves are sin / cos pairs
    lambda c: _set(c, "model", d_model=9, num_heads=3),
    lambda c: _set(c, "model", d_model=10, num_heads=2),
])
def test_validation_rejects_bad_settings(mutate):
    cfg = ExperimentConfig()
    where = mutate(cfg)
    with pytest.raises(ConfigError, match=re.escape(where)):
        cfg.validate()


FLOAT_KEYS = [(section, f.name) for section, cls in (
    ("model", ModelConfig), ("loss", LossWeights), ("train", TrainConfig))
    for f in dataclasses.fields(cls) if f.type == "float"]


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_a_non_finite_float_fails_naming_its_key_and_where(tmp_path, section,
                                                          key, text):
    # a value that would otherwise stop training deep in matching, or slip
    # past every range check as NaN does
    value = float(text)
    message = f"[{section}] {key} = {value!r} is not a finite float, in "
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == message + str(path)
    d = config_to_dict(ExperimentConfig())
    d[section][key] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert str(err.value) == message + "config dict"


REMOVED_KEYS = [("model", "num_actions", "3"), ("model", "num_groups", "2"),
                ("model", "fusion_kernel", "5"), ("loss", "aux_layers", "false")]


@pytest.mark.parametrize("section,key,value", REMOVED_KEYS)
def test_removed_key_in_ini_is_unknown(tmp_path, section, key, value):
    # the label-head widths come from data.ACTIONS / data.GROUPS, the fusion
    # kernel is 3 and every decoder layer is supervised
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"unknown key \[{section}\] {key}, "
                       rf"in {re.escape(str(path))}$"):
        load_config(path)


@pytest.mark.parametrize("section,key,value", REMOVED_KEYS)
def test_removed_key_in_dict_is_unknown(section, key, value):
    d = config_to_dict(ExperimentConfig())
    d[section][key] = value
    with pytest.raises(ConfigError, match=rf"unknown key \[{section}\] {key}, "
                       rf"in config dict$"):
        config_from_dict(d)


VALID_INI = b"""\
[model]
d_model = 16
num_heads = 2
dropout = 0.0
use_actor_fusion = true
num_queries = 3

[loss]
giou = 2.0

[train]
warmup_epochs = 1
total_epochs = 4
mode = full
"""
# lines that a mutation puts in place of another: unknown sections and keys,
# bad values and bounds, configparser's syntax errors, interpolation
INI_LINES = [b"[model]", b"[loss]", b"[train]", b"[modle]", b"[DEFAULT]",
             b"d_model = 0", b"d_model = 10", b"num_heads = 3", b"foo = 1",
             b"d_model = x", b"dropout = 1.5", b"dropout = nan",
             b"use_actor_fusion = maybe", b"mode = %(x)s", b"peak_lr = 1%",
             b"seed = -1", b"warmup_epochs = 9", b"batch_size = 0",
             b"weight_decay_start = 1", b"= 5", b"d_model", b"  indented",
             b"[unclosed", b"\xff\xfe = 1", b"\xc3\x28", b""]


def test_mutated_ini_fails_only_with_a_config_error_naming_the_file(
        tmp_path):
    # seeded line and byte mutations of a valid file: each loads, or fails
    # as a ConfigError whose message names the file
    path = tmp_path / "exp.ini"
    rng = random.Random(0)
    failed = 0
    for _ in range(2000):
        path.write_bytes(H.mutated(rng, VALID_INI, INI_LINES))
        try:
            load_config(path)
        except ConfigError as err:
            failed += 1
            assert str(path) in str(err), err
    assert failed > 1000
