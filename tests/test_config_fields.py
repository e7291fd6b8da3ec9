"""Every ``float`` field of every config dataclass must be finite, both
JSON readers (``--config`` for ``PipelineConfig``, ``meta.json`` for
``SynthSpec``) apply one type rule to every field, and a training
setting below its lower bound is an error that names that setting.

The fields are found by reflection, so a setting added later is covered
without a new test.
"""

import json
import math
import re
import shutil
from dataclasses import fields, replace

import pytest

from hyperrag.cli import load_config, main
from hyperrag.errors import ConfigurationError
from hyperrag.generation import GenConfig
from hyperrag.pipeline import PipelineConfig
from hyperrag.synth import SynthSpec, load_bundle, synth_bundle, write_bundle

CONFIGS = [PipelineConfig, GenConfig, SynthSpec]
# Annotations are strings under ``from __future__ import annotations``.
FLOAT_FIELDS = [(cls, f.name) for cls in CONFIGS for f in fields(cls) if f.type == "float"]


def test_every_config_has_a_float_field_and_its_defaults_validate():
    assert {cls for cls, _ in FLOAT_FIELDS} == set(CONFIGS)
    for cls in CONFIGS:
        cls().validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS]
)
def test_non_finite_float_field_is_config_error(cls, name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        replace(cls(), **{name: value}).validate()


# Every training setting has a lower bound, and -1 lies below each; 0 lies
# below every bound but these fields'.
TRAINING_FIELDS = [(cls, f) for cls in (PipelineConfig, GenConfig) for f in fields(cls)]
ZERO_IS_VALID = {"seed", "weight_decay", "rho"}


def fields_named(cls, message):
    """The fields of ``cls`` whose name appears as a word of ``message``."""
    return [f.name for f in fields(cls) if re.search(rf"\b{f.name}\b", message)]


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "cls, field", TRAINING_FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in TRAINING_FIELDS]
)
def test_value_below_the_bound_names_its_field(cls, field, value):
    config = replace(cls(), **{field.name: float(value) if field.type == "float" else value})
    if value == 0 and field.name in ZERO_IS_VALID:
        config.validate()
        return
    with pytest.raises(ConfigurationError) as info:
        config.validate()
    assert fields_named(cls, str(info.value)) == [field.name], str(info.value)


def mistyped(cls):
    """``(field, value)`` pairs that the JSON readers must refuse: a bool and
    a string for every field, a float for an ``int`` field, and an int past
    the float range for a ``float`` field."""
    cases = []
    for f in fields(cls):
        wrong = 2.5 if f.type == "int" else 10**400
        cases += [(f.name, True), (f.name, "1"), (f.name, wrong)]
    return cases


def case_id(case):
    name, value = case
    return f"{name}={type(value).__name__}"


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("reader") / "bundle"
    spec = SynthSpec(num_queries=6, num_items=9, num_clusters=3, graph_size=9, seed=1)
    write_bundle(synth_bundle(spec), out)
    return out


def run_main(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def edited_bundle(bundle_dir, tmp_path, **changes):
    out = tmp_path / "bundle"
    shutil.copytree(bundle_dir, out)
    meta = json.loads((out / "meta.json").read_text())
    (out / "meta.json").write_text(json.dumps({**meta, **changes}))
    return out


@pytest.mark.parametrize("case", mistyped(PipelineConfig), ids=case_id)
def test_config_file_refuses_mistyped_value(tmp_path, capsys, case):
    name, value = case
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: value}))
    code, err = run_main(["cheeger", "--config", str(path)], capsys)
    assert code == 3, err
    record = json.loads(err)
    assert record["category"] == "config"
    assert repr(name) in record["message"]


@pytest.mark.parametrize("name", ["crm_lr", "crm_hidden", "crm_epochs"])
def test_config_file_value_below_the_bound_names_its_key(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: 0}))
    code, err = run_main(["cheeger", "--config", str(path)], capsys)
    assert code == 3, err
    record = json.loads(err)
    assert record["category"] == "config"
    assert fields_named(PipelineConfig, record["message"]) == [name], record["message"]


@pytest.mark.parametrize("case", mistyped(SynthSpec), ids=case_id)
def test_meta_json_refuses_mistyped_value(bundle_dir, tmp_path, capsys, case):
    name, value = case
    bundle = edited_bundle(bundle_dir, tmp_path, **{name: value})
    code, err = run_main(["cheeger", "--bundle", str(bundle)], capsys)
    assert code == 8, err
    record = json.loads(err)
    assert record["category"] == "data_format"
    assert "meta.json" in record["message"] and repr(name) in record["message"]


# ``validate`` is switched off so that no value rule (alpha < 1, say) can
# hide what the type rule does with an int.
def test_config_file_takes_int_for_float_field(tmp_path, monkeypatch):
    monkeypatch.setattr(PipelineConfig, "validate", lambda self: None)
    names = [f.name for f in fields(PipelineConfig) if f.type == "float"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: 1 for name in names}))
    config = load_config(str(path), None)
    assert all(type(getattr(config, name)) is float for name in names)
    assert all(getattr(config, name) == 1.0 for name in names)


def test_meta_json_takes_int_for_float_field(bundle_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(SynthSpec, "validate", lambda self: None)
    names = [f.name for f in fields(SynthSpec) if f.type == "float"]
    spec = load_bundle(edited_bundle(bundle_dir, tmp_path, **{n: 1 for n in names})).spec
    assert all(type(getattr(spec, name)) is float for name in names)
    assert all(getattr(spec, name) == 1.0 for name in names)


def test_synth_items_not_covering_clusters_is_config_error(tmp_path, capsys):
    argv = ["synth", "--queries", "5", "--items", "4", "--clusters", "5", "--graph-size", "10"]
    code, err = run_main([*argv, "--out", str(tmp_path / "b")], capsys)
    assert code == 3, err
    record = json.loads(err)
    assert record["category"] == "config"
    assert "cannot cover 5 clusters" in record["message"]


def test_meta_json_items_not_covering_clusters_is_data_format_error(bundle_dir, tmp_path, capsys):
    uncovered = {"num_queries": 5, "num_items": 4, "num_clusters": 5, "graph_size": 10}
    bundle = edited_bundle(bundle_dir, tmp_path, **uncovered)
    code, err = run_main(["cheeger", "--bundle", str(bundle)], capsys)
    assert code == 8, err
    record = json.loads(err)
    assert record["category"] == "data_format"
    assert "cannot cover 5 clusters" in record["message"]
