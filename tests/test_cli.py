"""End-to-end command-line surface."""

import json

import numpy as np
import pytest

from groundact.cli import load_corpus, main, save_corpus


TINY_INI = """\
[model]
d_model = 16
num_heads = 2
d_ff_mult = 2
dropout = 0.0
encoder_layers = 1
decoder_layers = 1
frames = 2
grid_h = 2
grid_w = 2
raster_h = 8
raster_w = 8
num_queries = 3

[train]
peak_lr = 0.001
warmup_epochs = 1
total_epochs = 4
steps_per_epoch = 4
batch_size = 2
eval_every = 0
"""


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data"
    rc = main(["gen-data", "--out", str(data), "--clips", "6",
               "--actors", "2", "--frames", "4", "--raster", "8",
               "--seed", "3"])
    assert rc == 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(TINY_INI)
    return tmp_path, data, cfg


def test_gen_data_writes_loadable_corpus(workspace):
    _, data, _ = workspace
    corpus = load_corpus(str(data))
    assert len(corpus) == 6
    for clip, ann in corpus:
        assert clip.frames.shape == (4, 8, 8, 1)
        assert clip.clip_id == ann.clip_id


def test_corpus_round_trip(tmp_path, workspace):
    _, data, _ = workspace
    corpus = load_corpus(str(data))
    out = tmp_path / "copy"
    save_corpus(str(out), corpus)
    again = load_corpus(str(out))
    assert [a.clip_id for _, a in again] == [a.clip_id for _, a in corpus]


def test_train_eval_retrieve_pipeline(workspace, capsys):
    tmp, data, cfg = workspace
    ckpt = tmp / "model.ckpt"
    log = tmp / "log.jsonl"
    rc = main(["train", "--config", str(cfg), "--data", str(data),
               "--steps", "6", "--out", str(ckpt), "--log", str(log)])
    assert rc == 0
    assert ckpt.exists()
    lines = log.read_text().splitlines()
    assert len(lines) == 6
    assert {"step", "loss", "lr"} <= set(json.loads(lines[0]))

    preds = tmp / "preds.jsonl"
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
               "--metrics", "mca,merged-mca,mpca,prf,iou,recall@1",
               "--predictions", str(preds)])
    assert rc == 0
    text = capsys.readouterr().out
    for key in ("mca:", "merged_mca:", "mpca:", "p_g:", "mean_keyframe_iou:",
                "recall@1:"):
        assert key in text
    assert preds.exists() and preds.read_text().strip()

    rc = main(["retrieve", "--checkpoint", str(ckpt), "--data", str(data),
               "--prompt", "walk", "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(out) <= 3
    assert "sim=" in out[0] and "clip=" in out[0]


def test_train_reads_mode_from_config(workspace):
    tmp, data, cfg = workspace
    cfg.write_text(TINY_INI + "mode = weak\n")
    log = tmp / "weak.jsonl"
    rc = main(["train", "--config", str(cfg), "--data", str(data),
               "--steps", "2", "--log", str(log)])
    assert rc == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 2
    assert all(r["action_bce"] == 0 for r in records)
    # an explicit flag still wins over the file
    rc = main(["train", "--config", str(cfg), "--data", str(data),
               "--steps", "2", "--log", str(log), "--mode", "full"])
    assert rc == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert all(r["action_bce"] > 0 for r in records)


def test_eval_unknown_metric_fails(workspace):
    tmp, data, cfg = workspace
    ckpt = tmp / "m.ckpt"
    main(["train", "--config", str(cfg), "--data", str(data),
          "--steps", "2", "--out", str(ckpt)])
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
               "--metrics", "bleu"])
    assert rc == 2


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--seed", "0", "--repeats", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worst:" in out and "FAIL" not in out


def test_ablate_command(workspace, capsys):
    tmp, data, cfg = workspace
    out_json = tmp / "ablate.json"
    rc = main(["ablate", "--config", str(cfg), "--data", str(data),
               "--seeds", "0", "--steps", "2", "--out", str(out_json)])
    assert rc == 0
    summary = json.loads(out_json.read_text())
    assert set(summary) == {"features-only", "encoder", "encoder-decoder",
                            "no-fusion"}
    for metrics in summary.values():
        assert {"merged_mca", "iou", "group_accuracy"} <= set(metrics)
