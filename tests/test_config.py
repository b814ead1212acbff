import hashlib
import json
from pathlib import Path

import pytest

from nmsparse.config import RunConfig, TrainerSettings
from nmsparse.masks import SparsePattern
from nmsparse.schedule import Schedule


def sample_doc():
    return {
        "pattern": {"n": 2, "m": 4},
        "schedule": {"t_i": 0, "t_f": 30, "kind": "cubic", "ordering": "l1_descending", "mode": "block_percentage"},
        "trainer": {
            "arch": "mlp",
            "hidden": [32, 32],
            "epochs": 40,
            "batch_size": 64,
            "learning_rate": 0.3,
            "lr_schedule": "cosine",
            "momentum": 0.9,
            "weight_decay": 0.0001,
            "sr_ste_weight": None,
        },
        "dataset": {"kind": "two_spirals", "samples": 2000, "noise": 0.2, "seed": 7},
        "tau": 0.1,
        "seed": 1234,
        "out_dir": "runs/demo",
    }


def test_parse_serialize_parse_is_identity():
    cfg = RunConfig.from_dict(sample_doc())
    text = cfg.to_json()
    again = RunConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text


def test_parsed_fields():
    cfg = RunConfig.from_dict(sample_doc())
    assert cfg.pattern == SparsePattern(2, 4)
    assert cfg.schedule == Schedule(0, 30)
    assert cfg.trainer.hidden == (32, 32)
    assert cfg.seed == 1234
    tc = cfg.to_train_config()
    assert tc.sr_weight == pytest.approx(2e-4)
    assert tc.pattern == SparsePattern(2, 4)


def test_null_pattern_means_dense():
    doc = sample_doc()
    doc["pattern"] = None
    cfg = RunConfig.from_dict(doc)
    assert cfg.pattern is None
    assert cfg.to_train_config().pattern is None


def test_unknown_keys_rejected():
    doc = sample_doc()
    doc["extra"] = 1
    with pytest.raises(ValueError):
        RunConfig.from_dict(doc)


def test_invalid_values_rejected_up_front():
    bad_pattern = sample_doc()
    bad_pattern["pattern"] = {"n": 4, "m": 4}
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad_pattern)

    bad_sched = sample_doc()
    bad_sched["schedule"]["t_f"] = 0
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad_sched)

    bad_tau = sample_doc()
    bad_tau["tau"] = 0.0
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad_tau)

    bad_lr = sample_doc()
    bad_lr["trainer"]["learning_rate"] = -1.0
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad_lr)

    bad_dataset = sample_doc()
    bad_dataset["dataset"] = {"kind": "csv"}
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad_dataset)

    bad_arch = sample_doc()
    bad_arch["trainer"]["arch"] = "transformer"
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad_arch)


def test_json_integers_survive_bit_exactly():
    doc = sample_doc()
    doc["seed"] = 2**53 - 1
    cfg = RunConfig.from_dict(doc)
    assert json.loads(cfg.to_json())["seed"] == 2**53 - 1


def test_trainer_settings_defaults():
    t = TrainerSettings()
    assert t.arch == "mlp" and t.hidden == (32, 32)
    with pytest.raises(ValueError):
        TrainerSettings(arch="mlp", hidden=())


# SHA-256 of to_json(), recorded before the schema was read from the dataclasses
GOLDEN_TO_JSON = {
    "two_spirals_2of4": "a7347e86dedd388a12c053b03bd726a94c2f0b966a01e4b8d065483e3f9a615a",
    "all_defaults": "07435fb42e6c110d344ce26f1ce0510a5c4786a10d066c2cd32dc995023b5927",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TO_JSON))
def test_to_json_golden_digest(name):
    if name == "two_spirals_2of4":
        cfg = RunConfig.from_file(Path(__file__).parent.parent / "configs" / "two_spirals_2of4.json")
    else:
        cfg = RunConfig.from_dict({"schedule": {"t_f": 10}, "dataset": {"kind": "two_spirals"}})
    assert hashlib.sha256(cfg.to_json().encode()).hexdigest() == GOLDEN_TO_JSON[name]


def test_int_is_taken_as_float_and_serialized_as_float():
    doc = sample_doc()
    doc["trainer"]["learning_rate"] = 1
    doc["tau"] = 2
    cfg = RunConfig.from_dict(doc)
    assert type(cfg.trainer.learning_rate) is float and type(cfg.tau) is float
    assert json.loads(cfg.to_json())["trainer"]["learning_rate"] == 1.0
    assert '"learning_rate": 1.0' in cfg.to_json()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("trainer", "epochs", True),
        ("trainer", "learning_rate", False),
        ("trainer", "hidden", [32, True]),
        ("trainer", "epochs", 40.0),
        ("schedule", "t_i", "0"),
        ("pattern", "n", 2.0),
        ("dataset", "noise", True),
        (None, "seed", None),
        (None, "out_dir", 3),
    ],
)
def test_wrong_json_types_name_the_key(section, key, value):
    doc = sample_doc()
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(ValueError, match=rf"^{section + '.' if section else ''}{key}(\[1\])?: expected "):
        RunConfig.from_dict(doc)


def test_defaults_come_from_the_declarations():
    cfg = RunConfig.from_dict({"schedule": {"t_f": 10}, "dataset": {"kind": "two_spirals"}})
    assert cfg.pattern is None and cfg.trainer == TrainerSettings()
    assert (cfg.tau, cfg.seed, cfg.out_dir) == (0.1, 0, "runs/out")
    assert cfg.schedule == Schedule(0, 10)
    assert cfg.dataset == {"kind": "two_spirals"}  # stored verbatim; the builder holds the defaults


@pytest.mark.parametrize(
    "dataset, message",
    [
        ({"kind": "two_spirals", "sampels": 500}, r"unknown dataset keys: \['sampels'\]"),
        ({"kind": "two_gaussians", "noise": 0.1}, r"unknown dataset keys: \['noise'\]"),
        ({"kind": "csv", "path": "x.csv"}, r"dataset.label_column: required key missing"),
        ({"kind": "idx", "images": "a.idx", "labels": 3}, r"dataset.labels: expected str"),
        ({"kind": ["two_spirals"]}, r"unknown dataset kind"),
        ({}, r"unknown dataset kind None"),
    ],
)
def test_dataset_keys_follow_the_builder_signature(dataset, message):
    doc = sample_doc()
    doc["dataset"] = dataset
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("section", ["pattern", "schedule"])
def test_unknown_nested_keys_rejected(section):
    doc = sample_doc()
    doc[section]["bogus"] = 1
    with pytest.raises(ValueError, match=rf"unknown {section} keys: \['bogus'\]"):
        RunConfig.from_dict(doc)


def test_dataset_is_copied_from_the_document():
    doc = sample_doc()
    cfg = RunConfig.from_dict(doc)
    doc["dataset"]["samples"] = 1
    assert cfg.dataset["samples"] == 2000
