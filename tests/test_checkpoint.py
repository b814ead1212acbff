import hashlib
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nmsparse import datasets, nn, runner, training
from nmsparse.checkpoint import MAGIC, VERSION, Checkpoint, load_checkpoint, save_checkpoint
from nmsparse.cli import main
from nmsparse.config import RunConfig
from nmsparse.training import Velocity

GOLDEN_MAXQ_SHA256 = "3b2b3ef7a8b2352dd97fed1f8256c7468733e46b9ab8299e8d3ab010248b5795"


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    """The file that save_checkpoint writes for ``ckpt``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.maxq"
        save_checkpoint(path, ckpt)
        return path.read_bytes()


def run_config(tmp_path, seed=11, out_name="run"):
    return RunConfig.from_dict(
        {
            "pattern": {"n": 2, "m": 4},
            "schedule": {"t_i": 0, "t_f": 4},
            "trainer": {
                "arch": "mlp",
                "hidden": [16, 16],
                "epochs": 6,
                "batch_size": 32,
                "learning_rate": 0.1,
            },
            "dataset": {"kind": "two_spirals", "samples": 160, "noise": 0.01, "seed": 5},
            "tau": 0.1,
            "seed": seed,
            "out_dir": str(tmp_path / out_name),
        }
    )


def test_checkpoint_save_load_round_trip(tmp_path):
    config = run_config(tmp_path)
    dataset = datasets.build(config.dataset)
    model = runner.build_model(config, dataset)
    result = training.fit(model, dataset, config.to_train_config())
    ckpt = Checkpoint(
        config=config,
        epoch=config.trainer.epochs,
        iteration=result.iteration,
        model=result.model,
        velocity=result.velocity,
        metrics_csv=training.metrics_to_csv(result.metrics),
    )
    path = tmp_path / "ck.maxq"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    assert loaded.epoch == ckpt.epoch
    assert loaded.iteration == ckpt.iteration
    assert loaded.metrics_csv == ckpt.metrics_csv
    for a, b in zip(loaded.model.layers, model.layers):
        assert a.name == b.name and a.kind == b.kind
        assert a.stride == b.stride and a.padding == b.padding and a.eligible == b.eligible
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
    for a, b in zip(loaded.velocity.w, result.velocity.w):
        np.testing.assert_array_equal(a, b)
    # re-serializing the loaded checkpoint is byte-identical
    assert checkpoint_bytes(loaded) == checkpoint_bytes(ckpt)


def test_magic_is_checked(tmp_path):
    path = tmp_path / "junk.maxq"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_resume_from_midpoint_checkpoint_matches_full_run(tmp_path):
    config = run_config(tmp_path, out_name="resume")
    dataset = datasets.build(config.dataset)
    train_cfg = config.to_train_config()

    model_full = runner.build_model(config, dataset)
    full = training.fit(model_full, dataset, train_cfg)

    # same run stopped after 3 of 6 epochs, checkpointed, reloaded, resumed
    model_part = runner.build_model(config, dataset)
    part = training.fit(model_part, dataset, train_cfg, stop_epoch=3)
    ckpt_path = tmp_path / "mid.maxq"
    save_checkpoint(
        ckpt_path,
        Checkpoint(
            config=config,
            epoch=3,
            iteration=part.iteration,
            model=part.model,
            velocity=part.velocity,
            metrics_csv=training.metrics_to_csv(part.metrics),
        ),
    )
    loaded = load_checkpoint(ckpt_path)
    resumed = training.fit(
        loaded.model,
        dataset,
        train_cfg,
        start_epoch=loaded.epoch,
        velocity=loaded.velocity,
        metrics=training.parse_metrics_csv(loaded.metrics_csv),
        iteration=loaded.iteration,
    )
    assert training.metrics_to_csv(resumed.metrics) == training.metrics_to_csv(full.metrics)
    for a, b in zip(resumed.model.layers, full.model.layers):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
    for a, b in zip(resumed.velocity.w + resumed.velocity.b, full.velocity.w + full.velocity.b):
        np.testing.assert_array_equal(a, b)


def test_run_training_resumed_from_midpoint_writes_the_same_bytes(tmp_path):
    config = run_config(tmp_path, out_name="resume_bytes")
    _, out_dir = runner.run_training(config)
    full = {name: (out_dir / name).read_bytes() for name in ("metrics.csv", "checkpoint.maxq")}

    dataset = datasets.build(config.dataset)
    part = training.fit(runner.build_model(config, dataset), dataset, config.to_train_config(), stop_epoch=3)
    mid = tmp_path / "mid.maxq"
    save_checkpoint(
        mid,
        Checkpoint(
            config=config,
            epoch=3,
            iteration=part.iteration,
            model=part.model,
            velocity=part.velocity,
            metrics_csv=training.metrics_to_csv(part.metrics),
        ),
    )
    runner.run_training(config, resume_from=mid)
    assert {name: (out_dir / name).read_bytes() for name in full} == full


def test_run_training_writes_artifacts_and_resume_cli_path(tmp_path):
    config = run_config(tmp_path, out_name="artifacts")
    result, out_dir = runner.run_training(config)
    assert (out_dir / "checkpoint.maxq").exists()
    assert (out_dir / "metrics.csv").exists()
    csv_text = (out_dir / "metrics.csv").read_text()
    assert csv_text == training.metrics_to_csv(result.metrics)
    ckpt = load_checkpoint(out_dir / "checkpoint.maxq")
    assert ckpt.epoch == config.trainer.epochs
    # resuming a finished run is a no-op that rewrites identical artifacts
    result2, _ = runner.run_training(config, resume_from=out_dir / "checkpoint.maxq")
    assert training.metrics_to_csv(result2.metrics) == csv_text


def _assert_folds_at(ckpt: Checkpoint, epoch: int) -> dict:
    """``fold_checkpoint(ckpt)`` is the model folded with the masks of ``epoch``."""
    folded = runner.fold_checkpoint(ckpt)
    train_cfg = ckpt.config.to_train_config()
    expected = training.export_folded(ckpt.model, training.final_masks(ckpt.model, train_cfg, epoch=epoch))
    assert folded.pattern == train_cfg.pattern
    assert [l.name for l in folded.layers] == [l.name for l in ckpt.model.layers]
    for f, l in zip(folded.layers, ckpt.model.layers):
        assert (f.kind, f.eligible, f.stride, f.padding) == (l.kind, l.eligible, l.stride, l.padding)
        np.testing.assert_array_equal(f.weight.values, expected[l.name].values)
        np.testing.assert_array_equal(f.bias, l.bias)
    return {f.name: f.weight.values for f in folded.layers}


def test_fold_checkpoint_folds_at_the_last_trained_epoch(tmp_path):
    config = run_config(tmp_path, out_name="fold")
    dataset = datasets.build(config.dataset)
    part = training.fit(runner.build_model(config, dataset), dataset, config.to_train_config(), stop_epoch=3)
    mid = Checkpoint(config, 3, part.iteration, part.model, part.velocity, "")
    _assert_folds_at(mid, epoch=2)

    untrained = runner.build_model(config, dataset)
    at_zero = _assert_folds_at(Checkpoint(config, 0, 0, untrained, Velocity.zeros_like(untrained), ""), epoch=0)
    # delta is 0 at epoch 0, so no block is pruned, unlike a fold at the end of the ramp
    assert all(np.count_nonzero(w) == w.size for w in at_zero.values())
    at_end = training.export_folded(untrained, training.final_masks(untrained, config.to_train_config()))
    assert np.count_nonzero(at_end["fc1"].values) == at_end["fc1"].values.size // 2


def _golden_checkpoint() -> Checkpoint:
    def values(shape, scale):
        return (np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape) * 0.37 % 1.0 - 0.5) * scale

    config = RunConfig.from_dict(
        {
            "pattern": {"n": 2, "m": 4},
            "schedule": {"t_i": 0, "t_f": 2},
            "trainer": {"arch": "cnn", "epochs": 3, "batch_size": 8, "learning_rate": 0.05},
            "dataset": {"kind": "two_spirals", "samples": 32, "noise": 0.01, "seed": 1},
            "tau": 0.1,
            "seed": 4,
            "out_dir": "runs/golden",
        }
    )
    conv = nn.Layer("conv", "conv0", values((4, 2, 3, 3), 1.0), values((4,), 0.1), stride=2, padding=1, eligible=True)
    fc = nn.Layer("linear", "fc1", values((3, 4, 1, 1), 2.0), values((3,), 0.2))
    velocity = Velocity(
        [values(conv.weight.shape, 0.01), values(fc.weight.shape, -0.02)],
        [values(conv.bias.shape, 0.03), values(fc.bias.shape, -0.04)],
    )
    return Checkpoint(
        config=config,
        epoch=2,
        iteration=7,
        model=nn.Model([conv, fc]),
        velocity=velocity,
        metrics_csv="epoch,loss\n0,1.25\n1,0.75\n",
    )


def test_golden_checkpoint_bytes_and_owned_writable_arrays(tmp_path):
    ckpt = _golden_checkpoint()
    path = tmp_path / "golden.maxq"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_MAXQ_SHA256
    loaded = load_checkpoint(path)
    assert checkpoint_bytes(loaded) == blob
    arrays = [a for l in loaded.model.layers for a in (l.weight, l.bias)]
    arrays += loaded.velocity.w + loaded.velocity.b
    for a in arrays:
        assert a.flags.writeable and a.flags.owndata


def _golden_sections() -> list[tuple[bytes, bytes]]:
    """The golden file's (tag, payload) sections, in file order."""
    blob = checkpoint_bytes(_golden_checkpoint())
    sections, off = [], len(MAGIC) + 6
    while off < len(blob):
        (length,) = struct.unpack_from("<Q", blob, off + 4)
        sections.append((blob[off : off + 4], blob[off + 12 : off + 12 + length]))
        off += 12 + length
    return sections


def _layout(sections: list[tuple[bytes, bytes]], tail: bytes = b"") -> bytes:
    """A .maxq file whose header counts ``sections``, then each section, then ``tail``."""
    body = b"".join(tag + struct.pack("<Q", len(payload)) + payload for tag, payload in sections)
    return MAGIC + struct.pack("<HI", VERSION, len(sections)) + body + tail


def _padded(section: tuple[bytes, bytes], extra: int) -> tuple[bytes, bytes]:
    tag, payload = section
    return tag, payload + bytes(extra)


def _eligible_byte(sections: list[tuple[bytes, bytes]], value: int) -> list[tuple[bytes, bytes]]:
    """The sections with conv0's eligible byte, which follows its name and kind byte, set to ``value``."""
    cfg, ctr, (tag, lyr), met = sections
    at = lyr.index(b"conv0") + len(b"conv0") + 1
    return [cfg, ctr, (tag, lyr[:at] + bytes([value]) + lyr[at + 1 :]), met]


# name -> the golden file's (tag, payload) sections -> a layout save_checkpoint never writes
MALFORMED_LAYOUTS = {
    "bytes_after_met": lambda s: _layout(s, tail=bytes(4)),
    "fifth_unknown_section": lambda s: _layout([*s, (b"XTR\x00", b"")]),
    "reversed_sections": lambda s: _layout(s[::-1]),
    "lyr_twice": lambda s: _layout([*s[:3], *s[2:]]),
    "long_ctr": lambda s: _layout([s[0], _padded(s[1], 8), *s[2:]]),
    "bytes_after_last_layer": lambda s: _layout([*s[:2], _padded(s[2], 3), s[3]]),
    "eligible_byte_0x81": lambda s: _layout(_eligible_byte(s, 0x81)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LAYOUTS))
def test_layouts_the_writer_never_makes_are_rejected_at_load(tmp_path, capsys, case):
    sections = _golden_sections()
    assert _layout(sections) == checkpoint_bytes(_golden_checkpoint())  # the edit alone makes the file malformed
    path = tmp_path / "bad.maxq"
    path.write_bytes(MALFORMED_LAYOUTS[case](sections))
    with pytest.raises(ValueError, match="malformed checkpoint") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert main(["train", "--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err) and str(path) in err


@pytest.mark.parametrize("array, shape", [("momentum w", (3, 3, 1, 1)), ("momentum b", (5,)), ("bias", (2,))])
def test_layer_arrays_of_the_wrong_shape_are_rejected_at_load(tmp_path, capsys, array, shape):
    ckpt = _golden_checkpoint()
    if array == "bias":
        ckpt.model.layers[0].bias = np.zeros(shape)
    else:
        getattr(ckpt.velocity, array[-1])[0] = np.zeros(shape)
    path = tmp_path / "bad.maxq"
    save_checkpoint(path, ckpt)
    with pytest.raises(ValueError, match="do not match") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert main(["train", "--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err) and str(path) in err


@pytest.mark.parametrize("array", ["nan weight", "inf momentum"])
def test_non_finite_layer_arrays_are_rejected_at_load(tmp_path, capsys, array):
    ckpt = _golden_checkpoint()
    if array == "nan weight":
        ckpt.model.layers[1].weight[0, 1, 0, 0] = np.nan
    else:
        ckpt.velocity.w[0][2, 0, 1, 1] = np.inf
    path = tmp_path / "bad.maxq"
    save_checkpoint(path, ckpt)
    with pytest.raises(ValueError, match="NaN or Inf") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    for argv in (["train", "--resume", str(path)],
                 ["fold", "--ckpt", str(path), "--out", str(tmp_path / "folded.npz")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err) and str(path) in err


def test_resuming_a_finished_checkpoint_without_metrics_is_one_error(tmp_path, capsys):
    config = run_config(tmp_path)
    model = runner.build_model(config, datasets.build(config.dataset))
    path = tmp_path / "finished.maxq"
    save_checkpoint(path, Checkpoint(config, config.trainer.epochs, 0, model, Velocity.zeros_like(model), ""))
    with pytest.raises(ValueError, match="0 metrics rows for 6 completed epochs") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert main(["train", "--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err) and str(path) in err


def _metrics_lines(model: nn.Model, epochs: int) -> list[str]:
    header = training.metrics_header(model)
    rows = [dict(zip(header, [e, 0.0, 0.1, 0.5, 0.25, *[0.0] * len(model.layers)])) for e in range(epochs)]
    return training.metrics_to_csv(rows).splitlines()


# name -> (completed epochs, edit of the metrics CSV lines, what the error must say); the config trains 6 epochs
BAD_COUNTERS_OR_METRICS = {
    "epoch_past_trainer_epochs": (7, lambda lines: lines, "7 completed epochs exceed trainer.epochs 6"),
    "short_row": (2, lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0]], "metrics line 3 has"),
    "long_row": (2, lambda lines: [lines[0], lines[1] + ",1.0", lines[2]], "metrics line 2 has"),
    "unknown_layer_column": (2, lambda lines: [lines[0].rsplit(",", 1)[0] + ",sparsity_zz", *lines[1:]], "sparsity_zz"),
    "repeated_column": (2, lambda lines: [lines[0] + ",loss", *[line + ",0.1" for line in lines[1:]]], "repeats a column"),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTERS_OR_METRICS))
def test_counters_and_metrics_unlike_the_run_are_rejected_at_load(tmp_path, capsys, case):
    epochs, edit, named = BAD_COUNTERS_OR_METRICS[case]
    config = run_config(tmp_path)
    model = runner.build_model(config, datasets.build(config.dataset))
    text = "\n".join(edit(_metrics_lines(model, epochs))) + "\n"
    path = tmp_path / "bad.maxq"
    save_checkpoint(path, Checkpoint(config, epochs, 0, model, Velocity.zeros_like(model), text))
    with pytest.raises(ValueError, match=re.escape(named)) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    for argv in (["train", "--resume", str(path)], ["fold", "--ckpt", str(path), "--out", str(tmp_path / "f.npz")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err) and str(path) in err


def test_metrics_that_keep_some_of_the_columns_resume_and_keep_them(tmp_path):
    config = run_config(tmp_path)
    model = runner.build_model(config, datasets.build(config.dataset))
    lines = _metrics_lines(model, 2)
    kept = [",".join(cells[0::3]) for cells in (line.split(",") for line in lines)]  # epoch, loss, ...
    path = tmp_path / "narrow.maxq"
    save_checkpoint(path, Checkpoint(config, 2, 0, model, Velocity.zeros_like(model), "\n".join(kept) + "\n"))
    out = Path(config.out_dir)
    assert main(["train", "--resume", str(path)]) == 0
    rows = training.parse_metrics_csv((out / "metrics.csv").read_text())
    assert [list(r) for r in rows] == [kept[0].split(",")] * 6
    assert main(["train", "--resume", str(out / "checkpoint.maxq")]) == 0  # finished: no new row has accuracy
    assert (out / "metrics.csv").read_text().count("\n") == 7


@pytest.mark.parametrize("layer, shape", [(2, (2, 16)), (1, (16, 16, 1))], ids=["2d_head", "3d_interior"])
def test_layer_weight_that_is_not_4d_is_rejected_at_load(tmp_path, capsys, layer, shape):
    config = run_config(tmp_path)
    model = runner.build_model(config, datasets.build(config.dataset))
    velocity = Velocity.zeros_like(model)
    model.layers[layer].weight = model.layers[layer].weight.reshape(shape)
    velocity.w[layer] = velocity.w[layer].reshape(shape)  # only the rank is wrong
    path = tmp_path / "flat.maxq"
    save_checkpoint(path, Checkpoint(config, 0, 0, model, velocity, ""))
    with pytest.raises(ValueError, match="4D") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert main(["train", "--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: [^\n]*\n", err) and str(path) in err
