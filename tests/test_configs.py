"""Configs read from JSON: keys are dataclass fields, defaults live on the
dataclass, and unknown keys are rejected the same way everywhere."""

import json
import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from shiftmri import cli, harness, learned
from shiftmri import data as dm

SPEC = dm.DistributionSpec("P", "textured-phantom", dm.Contrast(gamma=1.8),
                           15.0, 6, (48, 32), 7)

# skewed reads distributions P and Q and nothing else it lacks a default for
MINIMAL_EXPERIMENT = {"template": "skewed", "seed": 0,
                      "distributions": {"P": {"name": "P"}, "Q": {"name": "Q"}}}

# (class, minimal JSON object, value it must equal, non-default value to round-trip)
CASES = {
    "DistributionSpec": (dm.DistributionSpec, {"name": "P"}, dm.DistributionSpec("P"), SPEC),
    "ModelConfig": (learned.ModelConfig, {}, learned.ModelConfig(),
                    learned.ModelConfig("varnet_lite", cascades=2, seed=1)),
    "TrainConfig": (learned.TrainConfig, {}, learned.TrainConfig(),
                    learned.TrainConfig(epochs=2, accelerations=(2.0, 4.0), seed=3)),
    "ExperimentConfig": (
        harness.ExperimentConfig, MINIMAL_EXPERIMENT,
        harness.ExperimentConfig("skewed", 0, distributions={
            "P": dm.DistributionSpec("P"), "Q": dm.DistributionSpec("Q")}),
        harness.ExperimentConfig(
            "accel_combo", 5, learned.ModelConfig(channels=4),
            learned.TrainConfig(epochs=1), {"P": SPEC}, [SPEC], SPEC, 4, 2, [0, 1],
            [2.0, 4.0], 3.0, 4.0, 2)),
}


def _read(cls, d):
    """`cls` as read from the JSON object d."""
    return cls.from_dict(d) if cls is harness.ExperimentConfig else dm.from_fields(cls, d)


def _as_json(x) -> dict:
    """What a config file holding x reads back as."""
    return json.loads(json.dumps(x.to_dict() if hasattr(x, "to_dict") else asdict(x)))


@pytest.mark.parametrize("name", CASES)
def test_minimal_dict_equals_dataclass_defaults(name):
    cls, minimal, expected, _ = CASES[name]
    assert _read(cls, minimal) == expected


@pytest.mark.parametrize("name", CASES)
def test_from_dict_inverts_to_dict(name):
    cls, _, _, value = CASES[name]
    assert _read(cls, _as_json(value)) == value


@pytest.mark.parametrize("name", CASES)
def test_unknown_key_is_rejected(name):
    cls, minimal, _, _ = CASES[name]
    error = harness.ConfigError if cls is harness.ExperimentConfig else TypeError
    with pytest.raises(error, match="unexpected keyword argument 'snr_dB'"):
        _read(cls, {**minimal, "snr_dB": 5})


@pytest.mark.parametrize("where", ["model", "train", "target", "sources", "distributions"])
def test_unknown_nested_key_is_a_config_error(where):
    bad = {"name": "Q", "test_cont": 99}
    value = {"model": {"test_cont": 99}, "train": {"test_cont": 99}, "target": bad,
             "sources": [bad], "distributions": {"P": bad}}[where]
    with pytest.raises(harness.ConfigError, match="test_cont"):
        harness.ExperimentConfig.from_dict({"template": "skewed", "seed": 0, where: value})


@pytest.mark.parametrize("where, value", [("distributions", []), ("sources", 3),
                                          ("target", None), ("model", [])])
def test_wrongly_typed_section_is_a_config_error(where, value):
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig.from_dict({"template": "skewed", "seed": 0, where: value})


def test_missing_required_key_is_rejected():
    with pytest.raises(TypeError, match="name"):
        dm.from_fields(dm.DistributionSpec, {"coils": 2})
    with pytest.raises(harness.ConfigError, match="template"):
        harness.ExperimentConfig.from_dict({"seed": 0})
    with pytest.raises(TypeError, match="JSON object"):
        dm.from_fields(dm.DistributionSpec, ["P"])


def test_canonical_json_holds_every_field_defaults_included():
    cfg = harness.ExperimentConfig.from_dict({**MINIMAL_EXPERIMENT, "seed": 3, "train_count": 6})
    text = cfg.canonical_json()
    assert text.startswith('{"accelerations":[4.0],"distributions":{"P":{"coils":4,"contrast":'
                           '{"gamma":1.0,"kind":"gamma"},"extents":[32,32],"name":"P",')
    d = json.loads(text)
    assert list(d) == sorted(f.name for f in fields(harness.ExperimentConfig))
    assert (d["seed"], d["train_count"], d["test_count"], d["skew_factor"]) == (3, 6, 8, 10.0)
    assert d["model"] == learned.ModelConfig().to_dict()
    assert d["distributions"]["Q"] == dm.DistributionSpec("Q").to_dict()
    with pytest.raises(harness.ConfigError, match="unexpected keyword argument 'out'"):
        harness.ExperimentConfig.from_dict({**MINIMAL_EXPERIMENT, "out": "somewhere"})


def test_python_built_config_hashes_as_its_json_twin():
    _, minimal, built, value = CASES["ExperimentConfig"]
    assert built.canonical_json() == harness.ExperimentConfig.from_dict(minimal).canonical_json()
    assert value.canonical_json() == _read(harness.ExperimentConfig,
                                           _as_json(value)).canonical_json()


def test_a_changed_field_changes_the_canonical_json():
    cfg = CASES["ExperimentConfig"][2]
    assert replace(cfg, seed=5).canonical_json() != cfg.canonical_json()
    assert replace(cfg, seed=0).canonical_json() == cfg.canonical_json()
    assert replace(cfg, test_count=9).canonical_json() != cfg.canonical_json()


def test_model_config_dict_golden():
    # sets the header bytes of every checkpoint
    d = learned.ModelConfig().to_dict()
    assert d == {"kind": "unet_lite", "channels": 8, "pool_levels": 2, "cascades": 3,
                 "denoiser_channels": 6, "seed": 0}
    assert list(d) == ["kind", "channels", "pool_levels", "cascades", "denoiser_channels",
                       "seed"]


def test_distribution_spec_dict_golden():
    # lands in every dataset manifest and content hash
    d = dm.DistributionSpec("P", extents=(48, 32), seed=3).to_dict()
    assert d == {"name": "P", "shape_family": "ellipse-phantom",
                 "contrast": {"kind": "gamma", "gamma": 1.0}, "snr_db": 30.0, "coils": 4,
                 "extents": [48, 32], "seed": 3}
    assert type(d["extents"]) is list
    assert json.dumps(d, sort_keys=True) == (
        '{"coils": 4, "contrast": {"gamma": 1.0, "kind": "gamma"}, "extents": [48, 32], '
        '"name": "P", "seed": 3, "shape_family": "ellipse-phantom", "snr_db": 30.0}')


# ---------------------------------------------------------------------------
# The CLI exits 2 on every config it cannot read as written.
# ---------------------------------------------------------------------------


def _cli(tmp_path, capsys, *argv):
    capsys.readouterr()
    rc = cli.main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip().splitlines()
    return rc, err


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("spec, count", [
    ({"name": "P", "extents": [32, 32], "snr_dB": 5}, 1),
    ({"name": "P", "extents": [32, 32], "coils": 0}, 1),
    ({"extents": [32, 32], "coils": 2}, 1),
    ({"name": "P", "extents": [32, 32]}, 0),
], ids=["unknown-key", "coils-0", "no-name", "count-0"])
def test_gen_data_bad_input_exits_2(tmp_path, capsys, spec, count):
    path = _write(tmp_path, "spec.json", spec)
    rc, err = _cli(tmp_path, capsys, "gen-data", "--spec", path, "--count", str(count))
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["top", "spec", "train"])
def test_run_unknown_key_exits_2(tmp_path, capsys, where):
    spec = {"name": "P", "extents": [32, 32], "coils": 2}
    config = {"template": "overfit_monitor", "seed": 0, "distributions": {"P": spec},
              "train": {"epochs": 4}}
    if where == "top":
        config["test_cont"] = 99
    elif where == "spec":
        spec["snr_dB"] = 5
    else:
        config["train"]["epoch"] = 1
    rc, err = _cli(tmp_path, capsys, "run", "--config", _write(tmp_path, "exp.json", config))
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["gen-data", "--count", "1", "--spec"],
                                     ["train", "--config"], ["run", "--seed", "1", "--config"]])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, command):
    rc, err = _cli(tmp_path, capsys, *command, _write(tmp_path, "c.json", [1]))
    assert rc == 2
    assert len(err) == 1 and "JSON object" in err[0]


@pytest.mark.parametrize("section", ["model", "train"])
def test_train_unknown_key_exits_2(tmp_path, capsys, section):
    config = {"dataset": str(tmp_path / "none"), section: {"sed": 1}}
    rc, err = _cli(tmp_path, capsys, "train", "--config", _write(tmp_path, "train.json", config))
    assert rc == 2
    assert len(err) == 1 and "sed" in err[0]


# (section, field, value) that a model or train field's type rejects
MISTYPED = [("train", "epochs", "3"), ("train", "center_fraction", "0.08"),
            ("train", "epochs", 1.5), ("train", "seed", "3"), ("train", "epochs", True),
            ("train", "acceleration", False),
            ("model", "channels", "4"), ("model", "kind", 3), ("train", "accelerations", "48")]
MISTYPED_IDS = [f"{section}-{name}-{value!r}" for section, name, value in MISTYPED]
SECTION_CLASS = {"model": learned.ModelConfig, "train": learned.TrainConfig}


@pytest.mark.parametrize("section, name, value", MISTYPED, ids=MISTYPED_IDS)
def test_mistyped_field_names_the_field(section, name, value):
    cls = SECTION_CLASS[section]
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.{name} must be "):
        dm.from_fields(cls, {name: value})
    nested = rf"^ExperimentConfig\.{section}\.{name} must be "
    with pytest.raises(harness.ConfigError, match=nested):
        harness.ExperimentConfig.from_dict({**MINIMAL_EXPERIMENT, section: {name: value}})


@pytest.mark.parametrize("section, name, value", MISTYPED, ids=MISTYPED_IDS)
def test_train_mistyped_field_exits_2_naming_it(tmp_path, capsys, section, name, value):
    # the dataset does not exist: the field is rejected before it is read
    config = {"dataset": str(tmp_path / "none"), section: {name: value}}
    rc, err = _cli(tmp_path, capsys, "train", "--config", _write(tmp_path, "train.json", config))
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(f"error: TrainJob.{section}.{name} must be ")
    assert not (tmp_path / "o").exists()


# former optimizer settings, now learned's recipe constants: each is an unknown
# key, whatever its value
BAD_OPTIMIZER = [("beta1", 1.0), ("beta1", -1e-3), ("beta2", 1.5), ("beta2", float("nan")),
                 ("lr_max", float("nan")),
                 ("lr_max", float("inf")), ("lr_min", float("inf")),
                 ("clip_norm", float("nan")), ("clip_norm", float("inf"))]


@pytest.mark.parametrize("name, value", BAD_OPTIMIZER,
                         ids=[f"{n}-{v!r}" for n, v in BAD_OPTIMIZER])
def test_unusable_optimizer_setting_names_the_field(name, value):
    unknown = rf"\b.* argument '{name}'$"
    with pytest.raises(TypeError, match="^TrainConfig" + unknown):
        learned.TrainConfig(**{name: value})
    with pytest.raises(TypeError, match="^TrainConfig" + unknown):
        dm.from_fields(learned.TrainConfig, {name: value})
    with pytest.raises(harness.ConfigError, match=r"^ExperimentConfig\.train" + unknown):
        harness.ExperimentConfig.from_dict({**MINIMAL_EXPERIMENT, "train": {name: value}})


def test_float_field_takes_an_int():
    cfg = dm.from_fields(learned.TrainConfig, {"acceleration": 8, "accelerations": [4, 6]})
    assert (cfg.acceleration, cfg.accelerations) == (8.0, (4.0, 6.0))
    assert all(type(r) is float for r in (cfg.acceleration, *cfg.accelerations))
    assert dm.from_fields(learned.TrainConfig, {"acceleration": 1.5}).acceleration == 1.5


# (class, field, value) that the field's annotation rejects; the error names
# the field (and the element of a list)
MISTYPED_FIELDS = [
    (dm.DistributionSpec, "coils", 2.5), (dm.DistributionSpec, "coils", True),
    (dm.DistributionSpec, "snr_db", "30"), (dm.DistributionSpec, "name", 5),
    (dm.DistributionSpec, "seed", 1.9), (dm.DistributionSpec, "extents", [32.0, 32]),
    (dm.DistributionSpec, "extents", [32, 32, 32]), (dm.DistributionSpec, "extents", "32"),
    (dm.DistributionSpec, "contrast", "gamma"),
    (harness.ExperimentConfig, "seed", 2.7), (harness.ExperimentConfig, "seed", "3"),
    (harness.ExperimentConfig, "train_count", 4.9), (harness.ExperimentConfig, "seeds", [0.5]),
    (harness.ExperimentConfig, "unseen_acceleration", True),
    (harness.ExperimentConfig, "accelerations", ["4"]),
    (harness.ExperimentConfig, "accelerations", 4), (harness.ExperimentConfig, "skew_factor", "10"),
    (harness.ExperimentConfig, "template", 5),
]
MISTYPED_FIELD_IDS = [f"{cls.__name__}-{name}-{value!r}" for cls, name, value in MISTYPED_FIELDS]


def _changes(cls, name, value) -> dict:
    """Changes to MINIMAL_EXPERIMENT that set the field of `cls`: on the
    experiment itself, its model or train section, or distribution Q."""
    if cls is harness.ExperimentConfig:
        return {name: value}
    if cls in SECTION_CLASS.values():
        return {"model" if cls is learned.ModelConfig else "train": {name: value}}
    return {"distributions": {"P": {"name": "P"}, "Q": {"name": "Q", name: value}}}


def _where(cls) -> str:
    """Where `_changes` puts a field of `cls`, as errors name it."""
    return {harness.ExperimentConfig: "ExperimentConfig",
            learned.ModelConfig: "ExperimentConfig.model",
            learned.TrainConfig: "ExperimentConfig.train",
            dm.DistributionSpec: "ExperimentConfig.distributions['Q']"}[cls]


def _mistyped_config(cls, name, value) -> dict:
    return {**MINIMAL_EXPERIMENT, **_changes(cls, name, value)}


@pytest.mark.parametrize("cls, name, value", MISTYPED_FIELDS, ids=MISTYPED_FIELD_IDS)
def test_mistyped_spec_or_experiment_field_names_it(cls, name, value):
    named = rf"\.{name}(\[\d+\])? must "
    if cls is dm.DistributionSpec:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}" + named):
            dm.from_fields(cls, {"name": "P", name: value})
    with pytest.raises(harness.ConfigError, match="^" + re.escape(_where(cls)) + named):
        harness.ExperimentConfig.from_dict(_mistyped_config(cls, name, value))


@pytest.mark.parametrize("cls, name, value", MISTYPED_FIELDS, ids=MISTYPED_FIELD_IDS)
def test_mistyped_spec_or_experiment_field_exits_2(tmp_path, capsys, monkeypatch, cls, name,
                                                   value):
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    if cls is dm.DistributionSpec:
        path = _write(tmp_path, "spec.json", {"name": "P", name: value})
        rc, err = _cli(tmp_path, capsys, "gen-data", "--spec", path, "--count", "1")
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: bad spec ")
        assert f"DistributionSpec.{name}" in err[0]
    config = _write(tmp_path, "exp.json", _mistyped_config(cls, name, value))
    rc, err = _cli(tmp_path, capsys, "run", "--config", config)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(f"error: {_where(cls)}.{name}")
    assert not (tmp_path / "o").exists()


ACCEL_COMBO = {"template": "accel_combo", "seed": 0, "accelerations": [4],
               "distributions": {"P": {"name": "P"}}}


# Well-typed values out of range: each was once accepted or failed only after
# data generation or training. (changes to MINIMAL_EXPERIMENT, field named)
OUT_OF_RANGE_FIELDS = [
    ({"train_count": 0}, "ExperimentConfig.train_count"),
    ({"test_count": -1}, "ExperimentConfig.test_count"),
    ({"overfit_window": 0}, "ExperimentConfig.overfit_window"),
    ({"template": "overfit_monitor", "overfit_window": -2}, "ExperimentConfig.overfit_window"),
    ({"skew_factor": 1}, "ExperimentConfig.skew_factor"),
    ({"skew_factor": 0.5}, "ExperimentConfig.skew_factor"),
    ({"seeds": [0, 1, 0]}, "ExperimentConfig.seeds"),
    ({"seeds": [0, -1]}, "ExperimentConfig.seeds[1] must be in [0, inf), got -1"),
    ({**ACCEL_COMBO, "accelerations": []}, "ExperimentConfig.accelerations"),
    ({"model": {"pool_levels": 3},
      "distributions": {"P": {"name": "P"}, "Q": {"name": "Q", "extents": [36, 32]}}},
     "ExperimentConfig.model.pool_levels"),
    ({"template": "diversity_robustness", "sources": [{"name": "S"}], "target": {"name": "T"},
      "train": {"epochs": 1}}, "ExperimentConfig.train.epochs"),
    ({"train": {"accelerations": [4, 0.5]}}, "ExperimentConfig.train.accelerations[1]"),
    ({"train": {"accelerations": [float("nan")]}}, "ExperimentConfig.train.accelerations[0]"),
    ({"template": "finetune_ablation", "sources": [{"name": "S"}],
      "distributions": {"a b": {"name": "A"}, "ab": {"name": "B"}}},
     "ExperimentConfig.distributions keys 'a b' and 'ab'"),
    ({**ACCEL_COMBO, "accelerations": [4, 4.0000001]},
     "ExperimentConfig.accelerations[1] 4.0000001 and [0] 4.0 share the label R4"),
    ({**ACCEL_COMBO, "accelerations": [8, 4, 4]},
     "ExperimentConfig.accelerations[2] 4.0 and [1] 4.0 share the label R4"),
    ({**ACCEL_COMBO, "accelerations": [4, 8], "unseen_acceleration": 4},
     "ExperimentConfig.unseen_acceleration 4.0 shares the label R4"),
    ({**ACCEL_COMBO, "accelerations": [4], "unseen_acceleration": 4.0000001},
     "ExperimentConfig.unseen_acceleration 4.0000001 shares the label R4"),
    ({"train_count": 4, "skew_factor": 10},
     "ExperimentConfig.skew_factor 10.0 leaves no item of train_count 4 in the small set"),
]
OUT_OF_RANGE_IDS = ["train_count-0", "test_count--1", "overfit_window-0", "overfit_window--2",
                    "skew_factor-1", "skew_factor-0.5", "seeds-repeated", "seeds-negative",
                    "accelerations-empty",
                    "pool_levels-too-deep", "diversity_robustness-epochs-1",
                    "train-accelerations-0.5", "train-accelerations-nan",
                    "finetune_ablation-colliding-checkpoint-dirs",
                    "accelerations-same-label", "accelerations-repeated",
                    "unseen_acceleration-trained", "unseen_acceleration-same-label",
                    "skewed-empty-small-set"]

# Templates that train one model on a union of training sets, given specs of
# two extents: (changes to MINIMAL_EXPERIMENT, the two fields named)
SMALL = {"extents": [16, 16]}
UNEQUAL_UNIONS = {
    **{t: ({"template": t, "distributions": {"P": {"name": "P", **SMALL}, "Q": {"name": "Q"}}},
           "distributions['Q'] extents 32x32", "distributions['P'] extents 16x16")
       for t in ("joint_vs_separate", "skewed", "coil_shift")},
    "pathology": ({"template": "pathology", "distributions": {
        "P": {"name": "P", "extents": [72, 72]}, "Q": {"name": "Q", "extents": [80, 80]}}},
        "distributions['Q'] extents 80x80", "distributions['P'] extents 72x72"),
    "diversity_robustness-target": (
        {"template": "diversity_robustness", "target": {"name": "T"},
         "sources": [{"name": "S1", **SMALL}, {"name": "S2", **SMALL}]},
        "target extents 32x32", "sources[0] extents 16x16"),
    "diversity_robustness-sources": (
        {"template": "diversity_robustness", "sources": [{"name": "S1"}, {"name": "S2", **SMALL}],
         "target": {"name": "T"}}, "sources[1] extents 16x16", "sources[0] extents 32x32"),
    "finetune_ablation": ({"template": "finetune_ablation", "distributions": {"Q": {"name": "Q"}},
                           "sources": [{"name": "S1"}, {"name": "S2", **SMALL}]},
                          "sources[1] extents 16x16", "sources[0] extents 32x32"),
}
OUT_OF_RANGE_FIELDS += [(changes, f"ExperimentConfig.{a} must equal ExperimentConfig.{b}")
                        for changes, a, b in UNEQUAL_UNIONS.values()]
OUT_OF_RANGE_IDS += [f"{name}-unequal-extents" for name in UNEQUAL_UNIONS]

# (class, field, value) outside a choice or bound declared on the field
OUT_OF_RANGE_VALUES = [
    (learned.ModelConfig, "kind", "resnet"), (learned.ModelConfig, "channels", 0),
    (learned.ModelConfig, "pool_levels", 0), (learned.ModelConfig, "cascades", 0),
    (learned.ModelConfig, "denoiser_channels", 0),
    (learned.TrainConfig, "epochs", -1), (learned.TrainConfig, "acceleration", 0.5),
    (learned.TrainConfig, "acceleration", float("nan")),
    (learned.TrainConfig, "center_fraction", 1.5), (learned.TrainConfig, "center_fraction", 0.0),
    (dm.DistributionSpec, "shape_family", "blob"), (dm.DistributionSpec, "snr_db", float("inf")),
    (dm.DistributionSpec, "coils", 0), (dm.DistributionSpec, "seed", -1),
    (learned.ModelConfig, "seed", -1), (learned.TrainConfig, "seed", -2),
    (harness.ExperimentConfig, "seed", -1),
]
OUT_OF_RANGE_FIELDS += [(_changes(cls, name, value), f"{_where(cls)}.{name}")
                        for cls, name, value in OUT_OF_RANGE_VALUES]
OUT_OF_RANGE_IDS += [f"{cls.__name__}-{name}-{value!r}" for cls, name, value in OUT_OF_RANGE_VALUES]

# distribution Q's contrast, outside its gamma bound or its one kind
BAD_CONTRAST_FIELDS = {"Contrast-gamma-0": ("gamma", 0.0),
                       "Contrast-gamma-nan": ("gamma", float("nan")),
                       "Contrast-gamma-inf": ("gamma", float("inf")),
                       "Contrast-kind-piecewise": ("kind", "piecewise")}
OUT_OF_RANGE_FIELDS += [
    ({"distributions": {"P": {"name": "P"}, "Q": {"name": "Q", "contrast": {name: value}}}},
     f"ExperimentConfig.distributions['Q'].contrast.{name} must be ")
    for name, value in BAD_CONTRAST_FIELDS.values()]
OUT_OF_RANGE_IDS += list(BAD_CONTRAST_FIELDS)

# former ExperimentConfig fields, now the constants data.LESION_AMPLITUDE and
# harness.OVERFIT_EPS and OVERFIT_DELTA: each is an unknown key, whatever its value
DELETED_FIELDS = {"lesion_amplitude-nan": ("lesion_amplitude", float("nan")),
                  "lesion_amplitude-inf": ("lesion_amplitude", float("inf")),
                  "ExperimentConfig-overfit_eps-nan": ("overfit_eps", float("nan")),
                  "ExperimentConfig-overfit_delta--inf": ("overfit_delta", float("-inf"))}
OUT_OF_RANGE_FIELDS += [({name: value}, f"unexpected keyword argument '{name}'")
                        for name, value in DELETED_FIELDS.values()]
OUT_OF_RANGE_IDS += list(DELETED_FIELDS)


@pytest.mark.parametrize("changes, named", OUT_OF_RANGE_FIELDS, ids=OUT_OF_RANGE_IDS)
def test_out_of_range_field_exits_2_before_data(tmp_path, capsys, monkeypatch, changes, named):
    config = {**MINIMAL_EXPERIMENT, **changes}
    with pytest.raises(harness.ConfigError, match=re.escape(named)):
        harness.ExperimentConfig.from_dict(config)
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    rc, err = _cli(tmp_path, capsys, "run", "--config", _write(tmp_path, "exp.json", config))
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not (tmp_path / "o").exists()


# the cases above and the experiment's own bounds, each refused on direct construction
CONSTRUCTED_OUT_OF_RANGE = OUT_OF_RANGE_VALUES + [
    (harness.ExperimentConfig, "train_count", 0), (harness.ExperimentConfig, "test_count", -1),
    (harness.ExperimentConfig, "overfit_window", 0), (harness.ExperimentConfig, "skew_factor", 1.0),
    (harness.ExperimentConfig, "seeds", [0, 1, 0]),
]


@pytest.mark.parametrize("cls, name, value", CONSTRUCTED_OUT_OF_RANGE,
                         ids=[f"{c.__name__}-{n}-{v!r}" for c, n, v in CONSTRUCTED_OUT_OF_RANGE])
def test_out_of_range_value_is_refused_at_construction(cls, name, value):
    error = harness.ConfigError if cls is harness.ExperimentConfig else ValueError
    with pytest.raises(error, match=rf"^{cls.__name__}\.{name} must "):
        replace(CASES[cls.__name__][2], **{name: value})


def test_templates_without_a_union_accept_unequal_extents():
    # overfit_monitor scores Q and finetune_ablation finetunes on each target
    # alone, so they may differ in extent from what the model trained on
    cfg = harness.ExperimentConfig.from_dict({
        **MINIMAL_EXPERIMENT, "template": "overfit_monitor", "overfit_window": 1,
        "distributions": {"P": {"name": "P"}, "Q": {"name": "Q", "extents": [16, 16]}}})
    assert cfg.distributions["Q"].extents == (16, 16)
    harness.ExperimentConfig.from_dict({
        "template": "finetune_ablation", "seed": 0, "sources": [{"name": "S"}, {"name": "S2"}],
        "distributions": {"a": {"name": "A", "extents": [16, 16]}, "b": {"name": "B"}}})


# sampling fields no mask can use; `train` once refused each only after training began
BAD_SAMPLING = [("acceleration", 0.5), ("acceleration", float("nan")), ("center_fraction", 1.5),
                ("center_fraction", 0.0), ("accelerations", [4, 0.5]),
                ("accelerations", [float("nan")])]


@pytest.mark.parametrize("name, value", BAD_SAMPLING,
                         ids=[f"{n}-{v!r}" for n, v in BAD_SAMPLING])
def test_train_out_of_range_sampling_field_exits_2(tmp_path, capsys, name, value):
    # the dataset does not exist: the field is rejected before it is read
    config = {"dataset": str(tmp_path / "none"), "train": {name: value}}
    rc, err = _cli(tmp_path, capsys, "train", "--config", _write(tmp_path, "train.json", config))
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(f"error: TrainJob.train.{name}")
    assert "must be in " in err[0]
    assert not (tmp_path / "o").exists()


# a nested section's type and bound errors name where it sits in the experiment
NESTED_ERRORS = {
    "sources-1-snr_db": ({"sources": [{"name": "S"}, {"name": "T", "snr_db": "x"}]},
                         "ExperimentConfig.sources[1].snr_db must be float, got 'x'"),
    "P-contrast-gamma": ({"distributions": {"P": {"name": "P", "contrast": {"gamma": -1}},
                                            "Q": {"name": "Q"}}},
                         "ExperimentConfig.distributions['P'].contrast.gamma "
                         "must be in (0, inf), got -1.0"),
}


@pytest.mark.parametrize("changes, says", NESTED_ERRORS.values(), ids=list(NESTED_ERRORS))
def test_nested_section_error_names_its_place(tmp_path, capsys, monkeypatch, changes, says):
    config = {**MINIMAL_EXPERIMENT, **changes}
    with pytest.raises(harness.ConfigError) as caught:
        harness.ExperimentConfig.from_dict(config)
    assert str(caught.value) == says
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    rc, err = _cli(tmp_path, capsys, "run", "--config", _write(tmp_path, "exp.json", config))
    assert (rc, err) == (2, [f"error: {says}"])
    assert not (tmp_path / "o").exists()


# an unknown or missing key is named by where it sits, as a bad value is
KEY_ERRORS = {
    "train-unknown": ({"train": {"beta1": 0.9}},
                      "ExperimentConfig.train got an unexpected keyword argument 'beta1'"),
    "top-level-unknown": ({"trian": {"epochs": 1}},
                          "ExperimentConfig got an unexpected keyword argument 'trian'"),
    "P-missing": ({"distributions": {"P": {"coils": 2}, "Q": {"name": "Q"}}},
                  "ExperimentConfig.distributions['P'] lacks the required key 'name'"),
}


@pytest.mark.parametrize("changes, says", KEY_ERRORS.values(), ids=list(KEY_ERRORS))
def test_unknown_or_missing_key_names_its_place(tmp_path, capsys, monkeypatch, changes, says):
    config = {**MINIMAL_EXPERIMENT, **changes}
    with pytest.raises(harness.ConfigError) as caught:
        harness.ExperimentConfig.from_dict(config)
    assert str(caught.value) == says
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    rc, err = _cli(tmp_path, capsys, "run", "--config", _write(tmp_path, "exp.json", config))
    assert (rc, err) == (2, [f"error: {says}"])
    assert not (tmp_path / "o").exists()


def test_empty_train_accelerations_exit_2_before_data(tmp_path, capsys, monkeypatch):
    # an empty list once read as () and trained at train.acceleration without a word
    with pytest.raises(ValueError, match=r"^TrainConfig\.accelerations must not be empty$"):
        learned.TrainConfig(accelerations=())
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    monkeypatch.setattr(dm, "load", None)  # and so would reading the dataset
    config = {**MINIMAL_EXPERIMENT, "train": {"accelerations": []}}
    rc, err = _cli(tmp_path, capsys, "run", "--config", _write(tmp_path, "exp.json", config))
    assert (rc, err) == (2, ["error: ExperimentConfig.train.accelerations must not be empty"])
    config = {"dataset": str(tmp_path / "none"), "train": {"accelerations": []}}
    rc, err = _cli(tmp_path, capsys, "train", "--config", _write(tmp_path, "train.json", config))
    assert (rc, err) == (2, ["error: TrainJob.train.accelerations must not be empty"])
    assert not (tmp_path / "o").exists()


def test_int_becomes_float_where_a_float_is_declared():
    # these values reach dataset manifests, content hashes and details.json
    spec = dm.from_fields(dm.DistributionSpec, {"name": "P", "snr_db": 30})
    assert json.dumps(spec.to_dict()["snr_db"]) == "30.0"
    cfg = harness.ExperimentConfig.from_dict({
        **MINIMAL_EXPERIMENT, "accelerations": [4, 8], "unseen_acceleration": 6,
        "skew_factor": 10, "train": {"accelerations": [2, 4]}})
    assert json.dumps([*cfg.accelerations, cfg.unseen_acceleration, cfg.skew_factor,
                       *cfg.train.accelerations]) == "[4.0, 8.0, 6.0, 10.0, 2.0, 4.0]"
    assert type(cfg.train.accelerations) is tuple
    assert harness.ExperimentConfig.from_dict(MINIMAL_EXPERIMENT).unseen_acceleration is None


def test_accel_combo_rejects_train_accelerations(tmp_path, capsys, monkeypatch):
    config = {**ACCEL_COMBO, "train": {"accelerations": [2]}}
    with pytest.raises(harness.ConfigError, match="train.accelerations"):
        harness.ExperimentConfig.from_dict(config)
    harness.ExperimentConfig.from_dict(ACCEL_COMBO)
    harness.ExperimentConfig.from_dict({**MINIMAL_EXPERIMENT, "train": config["train"]})
    monkeypatch.setattr(dm, "generate", None)  # any data generation would raise
    rc, err = _cli(tmp_path, capsys, "run", "--config", _write(tmp_path, "exp.json", config))
    assert rc == 2
    assert len(err) == 1 and "train.accelerations" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, named", [
    ({"trian": {"epochs": 1}}, "trian"),
    ({"dataset": None, "train": {"epochs": 1}}, "dataset"),
    ({"model": []}, "TrainJob.model must be dict, got []"),
], ids=["unknown-key", "no-dataset", "model-not-object"])
def test_train_config_top_level_is_read_by_its_fields(tmp_path, capsys, config, named):
    # a real dataset, so only the config can make the command fail
    dm.save(dm.generate(dm.DistributionSpec("P", coils=1), 1), tmp_path / "ds")
    config = {k: v for k, v in {"dataset": str(tmp_path / "ds"), **config}.items()
              if v is not None}
    rc, err = _cli(tmp_path, capsys, "train", "--config", _write(tmp_path, "train.json", config))
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not (tmp_path / "o").exists()


def test_readme_json_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    spec, experiment = (json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme,
                                                                  re.DOTALL))
    assert dm.from_fields(dm.DistributionSpec, spec).name == "P"
    cfg = dm.from_fields(harness.ExperimentConfig, experiment)
    assert (cfg.template, cfg.train) == ("joint_vs_separate", learned.TrainConfig(epochs=5))
