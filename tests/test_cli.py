"""End-to-end command-line surface."""

import json
import re

import pytest

from groundact.cli import load_corpus, main, save_corpus

import helpers as H


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


def test_eval_runs_retrieval_once_for_all_recalls(workspace, capsys,
                                                  monkeypatch):
    from groundact import training
    tmp, data, cfg = workspace
    ckpt = tmp / "model.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--steps", "2", "--out", str(ckpt)]) == 0
    capsys.readouterr()
    infer, calls = training.infer, []
    monkeypatch.setattr(training, "infer",
                        lambda *a: calls.append(a) or infer(*a))
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--metrics", "iou,recall@1,recall@2"]) == 0
    assert len(calls) == 1          # one for the metrics and the recalls
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "mean_keyframe_iou", "recall@1", "recall@2"]
    # 6 clips of 2 actors: 12 candidates, so K = 13 has no value
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--metrics", "recall@13,mca,recall@12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "recall@13: n/a" and lines[2] == "recall@12: 1.0000"
    assert lines[1].startswith("mca: ")


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


@pytest.mark.parametrize("metrics", ["mca,bleu", "recall@x", "recall@0",
                                     "iou,recall@"])
def test_eval_rejects_a_bad_metric_before_loading(tmp_path, capsys, metrics):
    # the checkpoint and data paths do not exist: nothing is loaded
    rc = main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt"),
               "--data", str(tmp_path / "absent"), "--metrics", metrics])
    assert rc == 2
    assert "unknown metric" in capsys.readouterr().err


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--seed", "0", "--repeats", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worst:" in out and "FAIL" not in out


def test_ablate_on_an_empty_split_fails_before_training(tmp_path,
                                                       monkeypatch, capsys):
    # one clip splits 0.75 / 0.25 into 1 train clip and 0 test clips
    from groundact import experiments

    def no_train(*args, **kwargs):
        raise AssertionError("train ran on an ablation with an empty split")

    monkeypatch.setattr(experiments, "train", no_train)
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--clips", "1",
                 "--actors", "2", "--frames", "4", "--raster", "8"]) == 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(TINY_INI)
    assert main(["ablate", "--config", str(cfg), "--data", str(data),
                 "--seeds", "0", "--steps", "2"]) == 1
    assert capsys.readouterr().err == (
        "groundact: error: ablation needs clips on both sides of the split, "
        "got 1 train and 0 test\n")


def test_a_bad_config_value_fails_in_one_line(workspace, capsys):
    tmp_path, data, _ = workspace
    cfg = tmp_path / "inf.ini"
    cfg.write_text(TINY_INI.replace("peak_lr = 0.001", "peak_lr = inf"))
    assert main(["train", "--config", str(cfg), "--data", str(data)]) == 1
    assert capsys.readouterr().err == (
        f"groundact: error: [train] peak_lr = inf is not a finite float, "
        f"in {cfg}\n")


def _checkpoint(workspace):
    """A checkpoint trained for 2 steps on the workspace corpus."""
    tmp_path, data, cfg = workspace
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--steps", "2", "--out", str(ckpt)]) == 0
    return ckpt


@pytest.mark.parametrize("command", [["eval"],
                                     ["retrieve", "--prompt", "walk"]])
def test_more_actors_than_queries_fails_in_one_line(workspace, capsys,
                                                    command):
    # the checkpoint has [model] num_queries = 3; these clips have 4 actors
    tmp_path = workspace[0]
    ckpt, crowd = _checkpoint(workspace), tmp_path / "crowd"
    assert main(["gen-data", "--out", str(crowd), "--clips", "2",
                 "--actors", "4", "--frames", "4", "--raster", "8"]) == 0
    clip = load_corpus(str(crowd))[0][1].clip_id
    capsys.readouterr()
    assert main([command[0], "--checkpoint", str(ckpt), "--data", str(crowd),
                 *command[1:]]) == 1
    assert capsys.readouterr().err == (
        f"groundact: error: clip {clip!r} has 4 actors, more than [model] "
        f"num_queries = 3\n")


def test_a_bad_checkpoint_config_value_fails_naming_the_checkpoint(
        workspace, capsys):
    ckpt = _checkpoint(workspace)
    H.edit_checkpoint_meta(ckpt, config=TINY_INI.replace(
        "peak_lr = 0.001", "peak_lr = -1.0"))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(workspace[1])]) == 1
    assert capsys.readouterr().err == (
        f"groundact: error: [train] peak_lr = -1.0 must be at least 0, "
        f"in {ckpt}\n")


def _truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


@pytest.mark.parametrize("case", ["missing checkpoint", "checkpoint is a "
                                  "directory", "truncated checkpoint",
                                  "missing data directory"])
def test_an_unreadable_input_fails_in_one_line_naming_it(workspace, capsys,
                                                         case):
    tmp_path, data, cfg = workspace
    ckpt = tmp_path / "model.ckpt"
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data)]
    if case == "missing checkpoint":
        want = f"{ckpt}: cannot read: No such file or directory"
    elif case == "checkpoint is a directory":
        argv[2] = str(data)
        want = f"{data}: cannot read: Is a directory"
    elif case == "truncated checkpoint":
        _truncated(_checkpoint(workspace))
        want = f"{ckpt}: truncated container: "
    else:
        argv = ["train", "--config", str(cfg), "--data", str(tmp_path / "no")]
        want = (f"cannot read annotations: No such file or directory, in "
                f"{tmp_path / 'no' / 'annotations.txt'}")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"groundact: error: {want}"), err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_a_program_fault_keeps_its_traceback(workspace, monkeypatch):
    from groundact import experiments

    def faulty_train(*args, **kwargs):
        raise ZeroDivisionError("a fault in the program")

    monkeypatch.setattr(experiments, "train", faulty_train)
    _, data, cfg = workspace
    with pytest.raises(ZeroDivisionError, match="a fault in the program"):
        main(["ablate", "--config", str(cfg), "--data", str(data),
              "--seeds", "0", "--steps", "2"])


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--repeats", "0"],
    ["gen-data", "--clips", "0"],
    ["gen-data", "--actors", "0"],
    ["gen-data", "--frames", "0"],
    ["gen-data", "--clips", "-3"],
    ["gen-data", "--clips", "x"],
    ["gradcheck", "--repeats", "1.5"],
    ["train", "--steps", "0"],
    ["train", "--steps", "-3"],
    ["ablate", "--steps", "0"],
    ["gen-data", "--raster", "0"],
    ["retrieve", "--top", "0"],
    ["retrieve", "--top", "-1"],
    # seeds may be 0, but numpy's generators take no negative seed
    ["gradcheck", "--seed", "-1"],
    ["gen-data", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["ablate", "--seed", "-1"],
])
def test_counts_below_one_are_rejected_before_any_work(tmp_path, capsys, argv):
    out = tmp_path / "data"
    value = argv[2]
    if argv[0] == "gen-data":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    reason = ("must be at least 1" if value.lstrip("-").isdigit()
              else f"invalid int value: {value!r}")
    if argv[1] == "--seed":
        reason = f"seed {value} is negative"
    assert f"argument {argv[1]}: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds, reason", [
    ("", "'' is not an integer"),
    ("0,,1", "'' is not an integer"),
    ("0,x", "'x' is not an integer"),
    ("1,-2", "seed -2 is negative"),
])
def test_ablate_rejects_a_bad_seed_list_before_loading(tmp_path, capsys,
                                                        seeds, reason):
    # the data directory does not exist: nothing is loaded
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--data", str(tmp_path / "absent"), "--seeds", seeds])
    assert exc.value.code == 2
    assert (f"argument --seeds: invalid seed list {seeds!r}: {reason}"
            in capsys.readouterr().err)


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


SCRIPTS = H.SRC.parent / "scripts"


@pytest.mark.parametrize("script, args, flag", [
    ("run_overfit.py", ["--steps", "0"], "--steps"),
    ("run_overfit.py", ["--seed", "-1"], "--seed"),
    ("run_overfit.py", ["--queries", "0"], "--queries"),
    ("run_ablation.py", ["--seeds", "0", "-1"], "--seeds"),
    ("run_ablation.py", ["--clips", "0"], "--clips"),
    ("run_probe.py", ["--checkpoint", "absent.npz", "--epochs", "0"],
     "--epochs"),
])
def test_script_rejects_a_bad_int_with_a_usage_error(script, args, flag):
    # argparse's exit code 2, before any corpus, model or training
    run = H.run_python(str(SCRIPTS / script), *args)
    assert run.returncode == 2, run.stderr
    assert "usage:" in run.stderr
    assert f"error: argument {flag}" in run.stderr


def test_probe_script_reports_a_missing_checkpoint_in_one_line(tmp_path):
    path = tmp_path / "absent.ckpt"
    run = H.run_python(str(SCRIPTS / "run_probe.py"), "--checkpoint",
                       str(path))
    assert run.returncode == 1, run.stderr
    assert run.stderr == (f"run_probe.py: error: {path}: cannot read: No "
                          f"such file or directory\n")


OVERFIT_LINES = [r"trained 2 steps in \d+s \({mode} mode\)",
                 r"loss: \d+\.\d{{3}} -> \d+\.\d{{3}} "
                 r"\(\d+\.\d% of initial\)",
                 r"keyframe IoU \(matched\): \d\.\d{{3}}",
                 r"group accuracy: \d\.\d{{3}}"]


@pytest.mark.parametrize("script, args, lines", [
    ("run_overfit.py", ["--steps", "2"],
     [line.format(mode="full") for line in OVERFIT_LINES]),
    ("run_overfit.py", ["--steps", "2", "--mode", "weak"],
     [line.format(mode="weak") for line in OVERFIT_LINES]
     + [r"max logged action-BCE: 0\.0"]),
    ("run_ablation.py", ["--steps", "2", "--seeds", "0", "--clips", "4",
                         "--out", "{out}"],
     [rf"{v} +merged-mca=\d\.\d{{4}} keyframe-iou=\d\.\d{{4}}"
      for v in ("features-only", "encoder", "encoder-decoder", "no-fusion")]
     + [r"wrote .+summary\.json"]),
])
def test_script_runs_its_experiment_and_prints_every_line(tmp_path, script,
                                                          args, lines):
    out = tmp_path / "summary.json"
    run = H.run_python(str(SCRIPTS / script),
                       *(arg.format(out=out) for arg in args))
    assert run.returncode == 0, run.stderr
    printed = run.stdout.splitlines()
    assert len(printed) == len(lines), run.stdout
    for text, line in zip(printed, lines):
        assert re.fullmatch(line, text), (line, text)
    if "--out" in args:
        assert len(json.loads(out.read_text())) == 4
