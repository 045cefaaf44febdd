"""The config layer: every field's kind is checked where a config is built,
and every JSON section is parsed by `from_json`, naming the field, the key,
the section or the file at fault."""

import copy
import json
import math
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pixtext.cli import main
from pixtext.config import (
    Choice,
    ClassSignature,
    Count,
    ImageEncoderConfig,
    ListOf,
    LossConfig,
    MapOf,
    OfType,
    OptimConfig,
    PipelineConfig,
    Real,
    TaskSpec,
    TextEncoderConfig,
    check,
)
from pixtext.datagen import generate, load_dataset, save_dataset
from pixtext.harness import load_run
from pixtext.pipeline import build_pipeline, load_checkpoint, micro_config, save_checkpoint
from pixtext.tensor import ContractError

CONFIGS = [ImageEncoderConfig, TextEncoderConfig, LossConfig, PipelineConfig, OptimConfig,
           ClassSignature, TaskSpec]


def valid(cls):
    if cls is ClassSignature:
        return ClassSignature(mean=[0.5, 0.5, 0.5], freq=1.0, angle=0.0, amp=0.1)
    return cls()


def bad_values(kind) -> list:
    """A value of the wrong type, then one out of the kind's range (a seed
    has none; a nested config's range is its own fields')."""
    if isinstance(kind, Count):
        return [2.5, True] if kind.least is None else [2.5, kind.least - 1]
    if isinstance(kind, Real):
        if kind.low == -math.inf:
            return ["1", math.inf]
        return ["1", kind.low if kind.open else kind.low - 1]
    if isinstance(kind, Choice):
        return [1, "bogus"]
    if isinstance(kind, OfType):
        return [{}, None]
    if isinstance(kind, ListOf):
        if kind.length is not None:
            return ["abc", [0.5] * (kind.length + 1)]
        return ["abc", [] if kind.least else [1]]
    if isinstance(kind, MapOf):
        return [[], {kind.keys[0]: -1.0}]
    raise AssertionError(f"no bad values for {kind!r}")


FIELDS = [(cls, f) for cls in CONFIGS for f in fields(cls)]


@pytest.mark.parametrize("cls, f", FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in FIELDS])
def test_every_field_checks_its_kind(cls, f):
    for value in bad_values(f.metadata["kind"]):
        pattern = rf"^{cls.__name__}\.{f.name}\b"
        with pytest.raises(ValueError, match=pattern):
            cls(**{**vars(valid(cls)), f.name: value})
        cfg = valid(cls)
        setattr(cfg, f.name, value)  # assigned after the config was built
        with pytest.raises(ValueError, match=pattern):
            check(cfg)


# ---------------------------------------------------------------------------
# Inputs that used to build, or fail from deep inside, with no name


@pytest.mark.parametrize("field, value", [
    ("noise_sigma", math.nan), ("k", 2.5), ("seed", 1.5), ("shape_kinds", ["hexagon"]),
    ("min_shapes", 2.0), ("jitter_gain", -1.0),
])
def test_task_spec_field_named(field, value):
    with pytest.raises(ValueError, match=rf"^TaskSpec\.{field}\b"):
        TaskSpec(**{field: value})


@pytest.mark.parametrize("kwargs, pattern", [
    ({"shape_min_px": 9, "shape_max_px": 8}, r"^TaskSpec\.shape_min_px 9 exceeds shape_max_px 8$"),
    ({"min_shapes": 3, "max_shapes": 2}, r"^TaskSpec\.min_shapes 3 exceeds max_shapes 2$"),
    ({"height": 8, "shape_max_px": 16}, r"^TaskSpec\.shape_max_px 16 exceeds height 8$"),
    ({"class_names": ["a", "b"]}, r"^TaskSpec\.class_names has 2 entries for k=8$"),
])
def test_task_spec_rules_between_fields_named(kwargs, pattern):
    with pytest.raises(ValueError, match=pattern):
        TaskSpec(**kwargs)


@pytest.mark.parametrize("field, value, pattern", [
    ("prompt_mode", "Post",
     r"'Post' is not one of PROMPT_MODES: template\|coop\|pre\|post, or None"),
    ("task_mode", "det", r"'det' is not one of TASK_MODES: segmentation\|detection"),
    ("gate_preset", "x", r"'x' is not one of GATE_PRESETS"),
    ("image", {"patch": 4}, r"must be of type ImageEncoderConfig, got \{'patch': 4\}"),
])
def test_pipeline_config_checked_when_built(field, value, pattern):
    with pytest.raises(ValueError, match=rf"^PipelineConfig\.{field} {pattern}"):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("run, error, pattern", [
    ({"pipeline": {"image": {"foo": 1}}}, ContractError,
     r"^pipeline\.image in run config: unknown key\(s\) \['foo'\], missing key\(s\) \[\]$"),
    ({"pipeline": {"image": [1]}}, ContractError,
     r"^pipeline\.image in run config must be a JSON object, got list \[1\]$"),
    ({"optim": [1]}, ContractError, r"^optim in run config must be a JSON object, got list \[1\]$"),
    ({"pipeline": {"loss": {"temperature": "0.07"}}}, ValueError,
     r"^LossConfig\.temperature must be a finite number in \(0, inf\), got '0\.07'$"),
], ids=["unknown_nested_key", "nested_list", "optim_list", "nested_value"])
def test_run_sections_named(run, error, pattern):
    with pytest.raises(error, match=pattern):
        load_run(run)


@pytest.fixture()
def dataset_dir(tmp_path, micro_spec):
    save_dataset(micro_spec, generate(micro_spec, 2, seed=3), tmp_path)
    return tmp_path


def _edit_spec(path, edit):
    spec = json.loads((path / "spec.json").read_text())
    edit(spec)
    (path / "spec.json").write_text(json.dumps(spec))


@pytest.mark.parametrize("edit, error, pattern", [
    (lambda s: s.pop("k"), ContractError,
     r"spec\.json: unknown key\(s\) \[\], missing key\(s\) \['k'\]$"),
    (lambda s: s["signatures"][1].pop("amp"), ContractError,
     r"^signatures\[1\] in .*spec\.json: unknown key\(s\) \[\], missing key\(s\) \['amp'\]$"),
    (lambda s: s["signatures"][0].update(mean=[0.5, 0.5]), ValueError,
     r"^ClassSignature\.mean must be a list of 3 entries, got \[0\.5, 0\.5\]$"),
    (lambda s: s.update(noise_sigma="0.2"), ValueError, r"^TaskSpec\.noise_sigma must be"),
    (lambda s: s.update(signatures={}), ValueError, r"^TaskSpec\.signatures must be a list"),
], ids=["missing_k", "signature_without_amp", "mean_of_two", "noise_sigma_str",
        "signatures_object"])
def test_spec_json_named(dataset_dir, edit, error, pattern):
    _edit_spec(dataset_dir, edit)
    with pytest.raises(error, match=pattern):
        load_dataset(dataset_dir)


def test_synth_spec_parsed_by_from_json(tmp_path, micro_spec):
    spec = micro_spec.to_dict()
    del spec["k"]
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    with pytest.raises(ContractError, match=r"spec\.json: unknown key\(s\) \[\], "
                                            r"missing key\(s\) \['k'\]$"):
        main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "ds"),
              "--n", "2"])
    assert not (tmp_path / "ds").exists()


# ---------------------------------------------------------------------------
# Fuzz: drop, retype or rename any key of a JSON section


VALUES = st.sampled_from([None, "x", 1.5, True, -1, [], {}])


def _paths(obj, prefix=()):
    """Every key of nested objects, and every object in a list, as a path."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(obj, dict) or isinstance(value, dict):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(data, obj, roots):
    """Drop, retype or rename one drawn key below one of `roots`; returns
    the name the error must carry, the last key of the path."""
    path = data.draw(st.sampled_from([p for p in _paths(obj) if p[:1] in roots or not roots]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    op, key = data.draw(st.sampled_from(["drop", "retype", "rename"])), path[-1]
    if op == "drop":
        parent.pop(key)
    elif op == "rename" and isinstance(parent, dict):
        parent[f"{key}_x"] = parent.pop(key)
    else:
        parent[key] = data.draw(VALUES)
    return next(k for k in reversed(path) if isinstance(k, str))


def _fails_named(call, name, also=()):
    """`call` succeeds, or raises a package error whose message names `name`."""
    try:
        call()
    except (ValueError, ContractError) as exc:
        assert name in str(exc), (name, exc)
    except also as exc:
        assert "checkpoint" in str(exc), exc


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_run_config_fuzz(data):
    run = {"mode": "post", "seed": 1, "pipeline": micro_config("post").to_dict(),
           "optim": {"steps": 2, "multipliers": {"other": 1.0}}, "train_fraction": 0.75}
    name = _mutate(data, run, ())
    _fails_named(lambda: load_run(run), name)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, micro_spec):
    path = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(build_pipeline(micro_config("post"), micro_spec.class_names, 2), path)
    return path, json.loads((path / "manifest.json").read_text())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_manifest_section_fuzz(checkpoint, data):
    path, manifest = checkpoint
    manifest = copy.deepcopy(manifest)
    name = _mutate(data, manifest, (("config",), ("backbone",)))
    (path / "manifest.json").write_text(json.dumps(manifest))
    # a valid setting that builds another pipeline (prompt_mode null) fails on
    # the parameter list, naming the parameter, as a KeyError
    _fails_named(lambda: load_checkpoint(path), name, also=KeyError)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_manifest_params_fuzz(checkpoint, data):
    path, manifest = checkpoint
    manifest = copy.deepcopy(manifest)
    name = data.draw(st.sampled_from(sorted(manifest["params"])))
    entry = manifest["params"][name]
    if data.draw(st.booleans()):
        _mutate(data, entry, ())  # drop, retype or rename file or group
    else:
        entry[data.draw(st.sampled_from(["shape", "dtype", "File"]))] = data.draw(VALUES)
    (path / "manifest.json").write_text(json.dumps(manifest))
    # no mutation leaves an entry that loads: every one names the parameter
    with pytest.raises((ContractError, KeyError), match=re.escape(name)):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory, micro_spec):
    path = tmp_path_factory.mktemp("data")
    save_dataset(micro_spec, generate(micro_spec, 2, seed=3), path)
    return path, json.loads((path / "spec.json").read_text())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_spec_json_fuzz(spec_dir, data):
    path, spec = spec_dir
    spec = copy.deepcopy(spec)
    name = _mutate(data, spec, ())
    (path / "spec.json").write_text(json.dumps(spec))
    _fails_named(lambda: load_dataset(path), name)
