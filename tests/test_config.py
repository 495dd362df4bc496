"""Configuration dataclasses, INI files and the config text a checkpoint
stores."""

import configparser
import dataclasses
import random
import re

import pytest

from groundact import experiments as E
from groundact import training
from groundact.config import (ConfigError, ExperimentConfig, LossWeights,
                              ModelConfig, TrainConfig, config_text,
                              load_config, parse_config)
from groundact.model import GroundedModel
from groundact.training import load_checkpoint, save_checkpoint

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


def test_unknown_ini_section_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[model]\nd_model = 64\n[modle]\nd_model = 7\n")
    with pytest.raises(ConfigError, match=r"unknown section \[modle\]"):
        load_config(path)


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
    lambda c: _set(c, "loss", giou=-2),  # an int, as code may set
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
    # as a one-line ConfigError whose message names the file
    path = tmp_path / "exp.ini"
    rng = random.Random(0)
    failed = 0
    for _ in range(2000):
        path.write_bytes(H.mutated(rng, VALID_INI, INI_LINES))
        try:
            load_config(path)
        except ConfigError as err:
            failed += 1
            assert str(path) in str(err) and "\n" not in str(err), err
    assert failed > 1000


# -- the config text a checkpoint stores -------------------------------------

TINY = ExperimentConfig(model=ModelConfig(
    d_model=16, num_heads=2, d_ff_mult=2, encoder_layers=1, decoder_layers=1,
    frames=2, grid_h=2, grid_w=2, raster_h=8, raster_w=8, l_max=4,
    num_queries=3))


@pytest.fixture(scope="module")
def tiny_model():
    return GroundedModel(TINY.model, seed=0)


@pytest.fixture()
def checkpoint(tmp_path, tiny_model):
    """A function that writes a checkpoint whose config is the given text
    and returns its path."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_model, TINY)

    def write(text: str):
        H.edit_checkpoint_meta(path, config=text)
        return path
    return write


def _with_value(text: str, key: str, value: str) -> str:
    """Config text with the line of ``key`` set to ``key = value``."""
    return re.sub(rf"^{key} = .*$", lambda _: f"{key} = {value}", text,
                  flags=re.M)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(), TINY, E.overfit_config(), E.overfit_config("weak"),
    E.ablation_config(),
    *(E.variant_config(E.ablation_config(), v) for v in E.VARIANTS)],
    ids=["default", "tiny", "overfit", "overfit-weak", "ablation",
         *E.VARIANTS])
def test_config_text_parses_back_equal(cfg):
    assert parse_config(config_text(cfg), "model.ckpt") == cfg


def test_a_checkpoint_loads_the_config_it_stores(checkpoint):
    cfg = E.overfit_config()
    cfg.model = TINY.model      # the stored arrays are the tiny model's
    cfg.loss.giou = 3           # an int, as code may set, loads as 3.0
    _, loaded, _, _ = load_checkpoint(checkpoint(config_text(cfg)))
    assert loaded == cfg and loaded.loss.giou == 3.0


@pytest.mark.parametrize("section, key, value", [
    ("model", "fusion_refeed", "False"), *REMOVED_KEYS])
def test_unknown_checkpoint_key_names_section_key_and_path(checkpoint,
                                                          section, key,
                                                          value):
    # a checkpoint written before a key was removed still stores it
    text = config_text(TINY).replace(f"[{section}]\n",
                                     f"[{section}]\n{key} = {value}\n")
    path = checkpoint(text)
    with pytest.raises(ConfigError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"unknown key [{section}] {key}, in {path}"


def test_unknown_checkpoint_section_names_it_and_the_path(checkpoint):
    path = checkpoint(config_text(TINY) + "\n[modle]\nd_model = 7\n")
    with pytest.raises(ConfigError) as err:
        load_checkpoint(path)
    assert str(err.value) == (f"unknown section [modle] in {path}; expected "
                              f"one of ['loss', 'model', 'train']")


@pytest.mark.parametrize("key, value, message", [
    ("l1", "True", "[loss] l1 = 'True' is not a valid float"),
    ("seed", "1.0", "[train] seed = '1.0' is not a valid int"),
    ("use_actor_fusion", "2", "[model] use_actor_fusion = '2' is not a "
                              "valid bool"),
    ("mode", "None", "[train] mode: unknown mode 'None'"),
    ("peak_lr", "-1.0", "[train] peak_lr = -1.0 must be at least 0"),
    ("giou", "1e999", "[loss] giou = inf is not a finite float"),
    ("dropout", "nan", "[model] dropout = nan is not a finite float"),
])
def test_bad_checkpoint_value_names_section_key_and_path(checkpoint, key,
                                                         value, message):
    path = checkpoint(_with_value(config_text(TINY), key, value))
    with pytest.raises(ConfigError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{message}, in {path}"


def test_mutated_checkpoint_config_fails_only_with_a_config_error_naming_it(
        checkpoint, monkeypatch):
    # seeded line and byte mutations of a checkpoint's config text: each
    # loads a config that validates, or fails as a one-line ConfigError
    # that names the checkpoint.  A mutant may size a model far larger than
    # the stored arrays, and only the config is under test, so no model is
    # built
    class NoModel:
        def __init__(self, cfg, seed=0):
            pass

        def load_state(self, arrays):
            pass

    monkeypatch.setattr(training, "GroundedModel", NoModel)
    text = config_text(TINY).encode()
    rng = random.Random(1)
    failed = 0
    for _ in range(500):
        # bytes that are not UTF-8 reach the parser as lone surrogates
        path = checkpoint(H.mutated(rng, text, INI_LINES)
                          .decode("utf-8", "surrogateescape"))
        try:
            _, cfg, _, _ = load_checkpoint(path)
        except ConfigError as err:
            failed += 1
            assert str(path) in str(err) and "\n" not in str(err), err
        else:
            cfg.validate()
    assert failed > 200
