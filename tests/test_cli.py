import json
import math
import re
import struct
import warnings

import numpy as np
import pytest

from nmsparse import nn
from nmsparse.archives import (
    load_compressed_archive,
    load_folded_archive,
    save_compressed_archive,
    save_folded_archive,
)
from nmsparse.cli import main
from nmsparse.masks import SparsePattern
from test_archives import as_folded, small_folded_model


@pytest.fixture
def run_dir(tmp_path):
    out = tmp_path / "run"
    config = {
        "pattern": {"n": 2, "m": 4},
        "schedule": {"t_i": 0, "t_f": 6},
        "trainer": {
            "arch": "mlp",
            "hidden": [16, 16],
            "epochs": 8,
            "batch_size": 64,
            "learning_rate": 0.1,
        },
        "dataset": {"kind": "two_spirals", "samples": 256, "noise": 0.01, "seed": 3},
        "tau": 0.1,
        "seed": 9,
        "out_dir": str(out),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path, out


def test_train_fold_verify_compress_bench_pipeline(run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (out / "checkpoint.maxq").exists()
    assert (out / "metrics.csv").exists()

    folded_path = tmp_path / "folded.npz"
    assert main(["fold", "--ckpt", str(out / "checkpoint.maxq"), "--out", str(folded_path)]) == 0
    assert folded_path.exists()

    assert main(["verify", "--weights", str(folded_path), "--pattern", "2:4"]) == 0
    captured = capsys.readouterr()
    assert "total violating blocks: 0" in captured.out

    archive_path = tmp_path / "model.nmz"
    assert main(["compress", "--weights", str(folded_path), "--pattern", "2:4", "--out", str(archive_path)]) == 0
    layers = load_compressed_archive(archive_path)
    names = {entry["name"] for entry, _ in layers}
    assert names == {"fc0", "fc1", "fc2"}

    csv_out = tmp_path / "bench.csv"
    assert main(["bench", "--archive", str(archive_path), "--reps", "2", "--sizes", "8", "--csv", str(csv_out)]) == 0
    header, *rows = [line.split(",") for line in csv_out.read_text().splitlines()]
    assert header == ["layer", "shape", "cols", "csr_ms", "dense_ms", "speedup", "flop_reduction"]
    assert rows and all(row[-1] == "2.00" for row in rows)  # m/n at 2:4


def test_verify_exit_code_nonzero_on_violations(tmp_path, capsys):
    rng = np.random.default_rng(0)
    # a dense eligible layer violates any 2:4 pattern almost surely
    model = nn.Model(
        [
            nn.Layer("linear", "fc0", rng.normal(size=(8, 4, 1, 1)), np.zeros(8)),
            nn.Layer("linear", "fc1", rng.normal(size=(8, 8, 1, 1)), np.zeros(8), eligible=True),
            nn.Layer("linear", "fc2", rng.normal(size=(2, 8, 1, 1)), np.zeros(2)),
        ]
    )
    folded = as_folded(model, SparsePattern(2, 4))
    path = tmp_path / "dense.npz"
    save_folded_archive(path, folded)
    assert main(["verify", "--weights", str(path), "--pattern", "2:4"]) == 1
    assert "violating" in capsys.readouterr().out


def test_verify_csv_holds_the_printed_rows(tmp_path, capsys):
    path, csv_out = tmp_path / "folded.npz", tmp_path / "verify.csv"
    save_folded_archive(path, small_folded_model())
    assert main(["verify", "--weights", str(path), "--pattern", "2:4", "--csv", str(csv_out)]) == 0
    assert csv_out.read_text() == "layer,blocks,violations,sparsity\nfc0,8,0,0.5000\nfc1,-,-,dense\n"
    assert f"wrote {csv_out}" in capsys.readouterr().out


def test_bench_without_compressed_layers_exits_1(tmp_path, capsys):
    model = nn.Model([nn.Layer("linear", "fc0", np.ones((2, 4, 1, 1)), np.zeros(2))])
    path = tmp_path / "dense.nmz"
    save_compressed_archive(path, as_folded(model, None), SparsePattern(2, 4))
    capsys.readouterr()
    assert main(["bench", "--archive", str(path), "--sizes", "8"]) == 1
    assert capsys.readouterr().out == "archive holds no compressed layers\n"


def test_folded_archive_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    model = nn.Model(
        [
            nn.Layer("conv", "conv0", rng.normal(size=(4, 1, 3, 3)), rng.normal(size=4), stride=2, padding=1),
            nn.Layer("linear", "fc1", rng.normal(size=(2, 16, 1, 1)), rng.normal(size=2)),
        ]
    )
    folded = as_folded(model, None)
    path = tmp_path / "f.npz"
    save_folded_archive(path, folded)
    back = load_folded_archive(path)
    assert [l.name for l in back.layers] == ["conv0", "fc1"]
    assert back.pattern is None
    assert back.layers[0].stride == 2 and back.layers[0].padding == 1
    for a, b in zip(back.layers, folded.layers):
        np.testing.assert_array_equal(a.weight.values, b.weight.values)
        np.testing.assert_array_equal(a.bias, b.bias)


def test_schedule_command_writes_expected_csv(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    assert main(["schedule", "--ti", "0", "--tf", "90", "--kind", "cubic", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,delta"
    assert len(lines) == 92  # header + 91 rows
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[-1].split(",")[1]) == 1.0
    mid = float(lines[46].split(",")[1])
    assert abs(mid - 0.875) <= 1e-12
    # "cos" accepted as an alias
    assert main(["schedule", "--ti", "0", "--tf", "4", "--kind", "cos"]) == 0
    assert "t,delta" in capsys.readouterr().out


def test_schedule_command_error_names_no_config_key(capsys):
    assert main(["schedule", "--ti", "50", "--tf", "10"]) == 2
    assert capsys.readouterr().err == "error: invalid schedule: need 0 <= t_i < t_f, got (50, 10)\n"


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pattern": {"n": 4, "m": 4}, "schedule": {"t_f": 10}, "dataset": {"kind": "two_spirals"}}))
    assert main(["train", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_resume_flag_round_trip(run_dir, tmp_path):
    cfg_path, out = run_dir
    assert main(["train", "--config", str(cfg_path)]) == 0
    first = (out / "metrics.csv").read_bytes()
    assert main(["train", "--resume", str(out / "checkpoint.maxq")]) == 0
    assert (out / "metrics.csv").read_bytes() == first


def test_cli_rejects_unknown_trainer_keys(run_dir, capsys):
    cfg_path, _ = run_dir
    doc = json.loads(cfg_path.read_text())
    doc["trainer"]["bogus"] = 1
    cfg_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "error: unknown trainer keys: ['bogus']" in capsys.readouterr().err


def test_cli_reports_divergence_with_exit_code_3(run_dir, capsys):
    cfg_path, out = run_dir
    doc = json.loads(cfg_path.read_text())
    doc["trainer"]["learning_rate"] = 1e6
    cfg_path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy overflow warning fails the run
        code = main(["train", "--config", str(cfg_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: non-finite loss at epoch \d+, iteration \d+\n", err)
    assert not (out / "checkpoint.maxq").exists()


def test_cli_reports_an_overflowing_last_step_with_exit_code_3(run_dir, capsys):
    cfg_path, out = run_dir
    doc = json.loads(cfg_path.read_text())
    doc["trainer"].update(epochs=1, batch_size=256, learning_rate=10.0, weight_decay=1e308, lr_schedule="constant")
    doc["schedule"]["t_f"] = 1
    doc["dataset"]["samples"] = 200  # one step, whose update overflows the weights
    cfg_path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["train", "--config", str(cfg_path)])
    assert code == 3
    assert capsys.readouterr().err == "error: non-finite weight of layer fc0 at epoch 0, iteration 0\n"
    assert not (out / "checkpoint.maxq").exists()


def test_train_takes_either_a_config_or_a_checkpoint(run_dir, capsys):
    cfg_path, out = run_dir
    with pytest.raises(SystemExit) as info:
        main(["train", "--config", str(cfg_path), "--resume", str(out / "checkpoint.maxq")])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["train", "--config", "c.json", "--resume", "r.maxq"], ["fold", "--ckpt", "c.maxq"], ["bench", "--reps", "x"], []],
    ids=["exclusive_flags", "missing_flag", "bad_int", "no_command"],
)
def test_cli_usage_error_is_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]*\n", captured.err)


def test_cli_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nmsparse train")


def _truncated_checkpoint(run_dir, tmp_path):
    cfg_path, out = run_dir
    assert main(["train", "--config", str(cfg_path)]) == 0
    blob = (out / "checkpoint.maxq").read_bytes()
    path = tmp_path / "truncated.maxq"
    path.write_bytes(blob[: len(blob) // 2])
    return ["fold", "--ckpt", str(path), "--out", str(tmp_path / "folded.npz")], path


def _non_zip_archive(run_dir, tmp_path):
    path = tmp_path / "junk.nmz"
    path.write_bytes(b"not a zip archive")
    return ["bench", "--archive", str(path)], path


def _truncated_folded_archive(run_dir, tmp_path):
    rng = np.random.default_rng(2)
    model = nn.Model([nn.Layer("linear", "fc0", rng.normal(size=(2, 4, 1, 1)), np.zeros(2))])
    path = tmp_path / "truncated.npz"
    save_folded_archive(path, as_folded(model, None))
    path.write_bytes(path.read_bytes()[:-40])
    return ["verify", "--weights", str(path), "--pattern", "2:4"], path


def _directory_checkpoint(run_dir, tmp_path):
    return ["fold", "--ckpt", str(tmp_path), "--out", str(tmp_path / "folded.npz")], tmp_path


@pytest.mark.parametrize(
    "make_case",
    [_truncated_checkpoint, _non_zip_archive, _truncated_folded_archive, _directory_checkpoint],
    ids=["truncated_maxq", "non_zip_nmz", "truncated_npz", "directory"],
)
def test_cli_malformed_artifact_is_one_error_line(make_case, run_dir, tmp_path, capsys):
    argv, path = make_case(run_dir, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err)
    assert str(path) in err


def _truncated_idx_dataset(doc, tmp_path):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">I", 0x803) + b"\x00\x00")  # magic, then 2 of 12 dims bytes
    labels.write_bytes(struct.pack(">II", 0x801, 0))
    return {**doc, "dataset": {"kind": "idx", "images": str(images), "labels": str(labels)}}, str(images)


def _csv_dataset(doc, tmp_path, text, named):
    path = tmp_path / "table.csv"
    path.write_text(text)
    return {**doc, "dataset": {"kind": "csv", "path": str(path), "label_column": "label"}}, named.format(path=path)


def _idx_dataset(doc, tmp_path, width):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 2, 4, width) + bytes(2 * 4 * width))
    labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
    return {**doc, "dataset": {"kind": "idx", "images": str(images), "labels": str(labels)}}, "at least 1"


def _set(doc, section, key, value):
    return {**doc, section: {**doc[section], key: value}}


# name -> (doc, tmp_path) -> (malformed document, text its error line must name)
MALFORMED_CONFIGS = {
    "missing_dataset": lambda doc, _: ({k: v for k, v in doc.items() if k != "dataset"}, "dataset"),
    "missing_t_f": lambda doc, _: ({**doc, "schedule": {"t_i": 0}}, "schedule.t_f"),
    "pattern_without_m": lambda doc, _: ({**doc, "pattern": {"n": 2}}, "pattern.m"),
    "string_epochs": lambda doc, _: (_set(doc, "trainer", "epochs", "10"), "trainer.epochs"),
    "int_hidden": lambda doc, _: (_set(doc, "trainer", "hidden", 5), "trainer.hidden"),
    "zero_hidden": lambda doc, _: (_set(doc, "trainer", "hidden", [0]), "trainer.hidden"),
    "negative_hidden": lambda doc, _: (_set(doc, "trainer", "hidden", [32, -1]), "trainer.hidden"),
    "string_pattern": lambda doc, _: ({**doc, "pattern": "2:4"}, "pattern"),
    "null_batch_size": lambda doc, _: (_set(doc, "trainer", "batch_size", None), "trainer.batch_size"),
    "truncated_idx": _truncated_idx_dataset,
    "fractional_t_f": lambda doc, _: (_set(doc, "schedule", "t_f", 2.5), "schedule.t_f"),
    "misspelt_dataset_key": lambda doc, _: (_set(doc, "dataset", "sampels", 500), "sampels"),
    "string_samples": lambda doc, _: (_set(doc, "dataset", "samples", "200"), "dataset.samples"),
    "zero_samples": lambda doc, _: (_set(doc, "dataset", "samples", 0), "dataset.samples: "),
    "negative_samples": lambda doc, _: (_set(doc, "dataset", "samples", -5), "dataset.samples: "),
    "negative_noise": lambda doc, _: (_set(doc, "dataset", "noise", -1), "dataset.noise: "),
    "infinite_noise": lambda doc, _: (_set(doc, "dataset", "noise", math.inf), "dataset.noise: "),
    "null_trainer": lambda doc, _: ({**doc, "trainer": None}, "trainer"),
    "top_level_list": lambda doc, _: ([doc], "config"),
    "csv_short_row": lambda doc, tmp: _csv_dataset(doc, tmp, "x,y,label\n0.5,1.0,0\n0.25,1\n", "{path} line 3"),
    "csv_long_row": lambda doc, tmp: _csv_dataset(doc, tmp, "x,y,label\n0.5,1.0,0,7\n", "{path} line 2"),
    "csv_label_only": lambda doc, tmp: _csv_dataset(doc, tmp, "label\n0\n1\n", "at least 1"),
    "csv_negative_label": lambda doc, tmp: _csv_dataset(
        doc, tmp, "x,y,label\n0.5,1.0,0\n0.5,1.0,-1\n", "{path} line 3 column 'label': labels must be nonnegative"
    ),
    "cnn_on_2d_data": lambda doc, _: (_set(doc, "trainer", "arch", "cnn"), "image-shaped"),
    "csv_text_feature": lambda doc, tmp: _csv_dataset(doc, tmp, "x,y,label\nabc,1.0,0\n", "{path} line 2 column 'x'"),
    "csv_fractional_label": lambda doc, tmp: _csv_dataset(
        doc, tmp, "x,y,label\n0.5,1.0,0\n0.5,1.0,1.5\n", "{path} line 3 column 'label'"
    ),
    "zero_epochs": lambda doc, _: (_set(doc, "trainer", "epochs", 0), "trainer.epochs: need at least one epoch"),
    "momentum_above_one": lambda doc, _: (_set(doc, "trainer", "momentum", 1.5), "trainer.momentum: "),
    "zero_tau": lambda doc, _: ({**doc, "tau": 0}, "tau: temperature must be positive"),
    "backward_schedule": lambda doc, _: (_set(doc, "schedule", "t_i", 50), "schedule.t_f: "),
    "negative_t_i": lambda doc, _: (_set(doc, "schedule", "t_i", -1), "schedule.t_i: "),
    "pattern_n_above_m": lambda doc, _: ({**doc, "pattern": {"n": 5, "m": 4}}, "pattern.n: need 1 <= n < m"),
    "idx_zero_width": lambda doc, tmp: _idx_dataset(doc, tmp, width=0),
    "nan_weight_decay": lambda doc, _: (
        _set(doc, "trainer", "weight_decay", math.nan), "trainer.weight_decay: expected a finite number, got nan"
    ),
    "infinite_learning_rate": lambda doc, _: (_set(doc, "trainer", "learning_rate", math.inf), "trainer.learning_rate: "),
    "nan_sr_ste_weight": lambda doc, _: (_set(doc, "trainer", "sr_ste_weight", math.nan), "trainer.sr_ste_weight: "),
    "nan_separation": lambda doc, _: (
        {**doc, "dataset": {"kind": "two_gaussians", "samples": 64, "separation": math.nan}}, "dataset.separation: "
    ),
    "infinite_tau": lambda doc, _: ({**doc, "tau": math.inf}, "tau: "),
    "huge_integer_tau": lambda doc, _: ({**doc, "tau": 10**400}, "tau: expected a finite number"),
    "negative_seed": lambda doc, _: ({**doc, "seed": -1}, "seed: seed must be nonnegative"),
    "negative_dataset_seed": lambda doc, _: (_set(doc, "dataset", "seed", -1), "dataset.seed: "),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_cli_malformed_config_is_one_error_line(case, run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    doc, named = MALFORMED_CONFIGS[case](json.loads(cfg_path.read_text()), tmp_path)
    cfg_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err)
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--sizes", "0"), ("--sizes", "4,0"), ("--sizes", ""), ("--sizes", "4,x"), ("--reps", "0")],
    ids=["0", "4,0", "", "4,x", "reps-0"],
)
def test_bench_rejects_column_counts_below_one(flag, value, tmp_path, capsys):
    weight = np.array([[1.0, 0.0, -2.0, 0.0], [0.0, 3.0, 0.0, 4.0]]).reshape(2, 4, 1, 1)  # 2:4 compliant
    model = nn.Model([nn.Layer("linear", "fc0", weight, np.zeros(2), eligible=True)])
    path = tmp_path / "model.nmz"
    save_compressed_archive(path, as_folded(model, None), SparsePattern(2, 4))
    assert main(["bench", "--archive", str(path), flag, value]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: [^\n]*{flag}[^\n]*\n", err)
