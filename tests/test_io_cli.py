"""Serialization fidelity and command line behavior."""
from __future__ import annotations

import collections
import copy
import dataclasses
import errno
import itertools
import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from scenediff import datagen
from scenediff.cli import main
from scenediff.config import SceneConfig
from scenediff.datagen import AssetLibrary, generate_dataset
from scenediff.errors import (
    FormatError,
    MissingStyleCodesError,
    OutputError,
    SceneDiffError,
    UnknownStyleError,
    VocabularyError,
)
from scenediff.evaluation import scene_satisfies
from scenediff.graph import derive_semantic_graph, pad_graph
from scenediff.graph_diffusion import (
    KERNELS,
    build_graph_schedule,
    build_schedule,
    schedule_to_json,
)
from scenediff.instructions import Instruction, parse_instruction, render_instruction
from scenediff.pipeline import GenerationConfig, ScenePipeline
from scenediff.relations import RelationLabel
from scenediff.scene import ObjectInstance, Scene
from scenediff.scene_io import (
    config_from_dict,
    config_to_dict,
    dump_json,
    instruction_from_dict,
    instruction_to_dict,
    load_bundle,
    load_scenes,
    object_from_dict,
    object_to_dict,
    save_bundle,
    save_scenes,
    scene_from_dict,
    scene_to_dict,
)

# ---------------------------------------------------------------------------
# JSON roundtrips


def test_object_roundtrip_is_exact(toy):
    obj = toy.scenes[0].objects[1]
    data = json.loads(json.dumps(object_to_dict(obj)))
    back = object_from_dict(data)
    assert back.category == obj.category
    assert back.location == obj.location
    assert back.size == obj.size
    assert back.rotation == obj.rotation
    assert np.array_equal(back.feature, obj.feature)
    assert back.asset_id == obj.asset_id


def test_float_fidelity_survives_json():
    # repr-based JSON floats reparse to the identical double
    src = object_to_dict_obj = {
        "category": 0,
        "location": [0.1 + 0.2, -1.0 / 3.0, 1e-17],
        "size": [0.30000000000000004, 2.0 / 3.0, 0.1],
        "rotation": -2.718281828459045,
        "feature": [1.0 / 7.0] * 4,
        "asset_id": None,
    }
    back = object_from_dict(json.loads(json.dumps(src)))
    assert back.location == (0.1 + 0.2, -1.0 / 3.0, 1e-17)
    assert back.size == (0.30000000000000004, 2.0 / 3.0, 0.1)
    assert back.rotation == -2.718281828459045


def test_malformed_object_record():
    with pytest.raises(ValueError, match="malformed object record"):
        object_from_dict({"category": 0, "location": [0, 0, 0]})
    with pytest.raises(ValueError, match="malformed object record"):
        object_from_dict({"category": 0, "location": None, "size": [1, 1, 1],
                          "rotation": 0.0, "feature": [0.0]})


def test_scene_roundtrip_and_errors(toy):
    scene = toy.scenes[0]
    back = scene_from_dict(json.loads(json.dumps(scene_to_dict(scene))))
    assert back.id == scene.id
    assert back.n_objects == scene.n_objects
    assert scene_to_dict(back) == scene_to_dict(scene)
    with pytest.raises(ValueError, match="need id and objects"):
        scene_from_dict({"id": "x"})
    with pytest.raises(ValueError, match="need id and objects"):
        scene_from_dict(["not", "a", "dict"])


def test_save_load_scenes(tmp_path, toy):
    path = tmp_path / "scenes.json"
    save_scenes(toy.scenes[:3], path, meta={"note": "subset"})
    loaded = load_scenes(path)
    assert [s.id for s in loaded] == [s.id for s in toy.scenes[:3]]
    assert [scene_to_dict(s) for s in loaded] == [scene_to_dict(s) for s in toy.scenes[:3]]
    bad = tmp_path / "bad.json"
    dump_json({"objects": []}, bad)
    with pytest.raises(ValueError, match="lacks a 'scenes' list"):
        load_scenes(bad)


# ---------------------------------------------------------------------------
# The scene writer against json.dumps

RANDOM_CONFIG = SceneConfig(
    category_names=("table", "chair", "lamp", "shelf", "sofa", "desk"),
    k_f=3, n_f=4, n_max=6, d=16, style_names=("oak", "walnut", "steel"),
)


@pytest.fixture(scope="module")
def random_bundle():
    return generate_dataset(RANDOM_CONFIG, 50, seed=1)


def _reference_bytes(scenes, meta=None) -> bytes:
    """What save_scenes wrote when it serialised through json.dumps."""
    payload = {"scenes": [scene_to_dict(s) for s in scenes]}
    if meta:
        payload["meta"] = meta
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("family", ["toy", "random"])
def test_scene_writer_matches_json_dumps_on_generated_and_bundle_scenes(
        tmp_path, toy, random_bundle, family):
    bundle = toy if family == "toy" else random_bundle
    instruction = bundle.instructions[0] if family == "toy" else None
    pipe = ScenePipeline(bundle, GenerationConfig(graph_steps=25, layout_steps=10))
    scenes = pipe.generate(instruction, rng=np.random.default_rng(0), n=200)
    text = None if instruction is None else render_instruction(instruction, bundle.config)
    path = tmp_path / "out.json"
    for meta in (None, {}, {"seed": 0, "instruction": text, "kernel": "independent-mask"}):
        save_scenes(scenes, path, meta=meta)
        assert path.read_bytes() == _reference_bytes(scenes, meta)
    save_scenes([], path)
    assert path.read_bytes() == _reference_bytes([])
    save_bundle(bundle, tmp_path / "bundle")
    assert (tmp_path / "bundle" / "scenes.json").read_bytes() == _reference_bytes(bundle.scenes)


def test_scene_writer_keeps_signed_zero_features_apart(tmp_path, toy):
    base = toy.scenes[0].objects[0]
    plus = np.zeros_like(base.feature)
    plus[1:] = 0.5
    minus = plus.copy()
    minus[0] = -0.0
    scene = Scene(id="zeros", objects=(dataclasses.replace(base, feature=plus),
                                       dataclasses.replace(base, feature=minus)))
    path = tmp_path / "zeros.json"
    save_scenes([scene], path)
    assert path.read_bytes() == _reference_bytes([scene])
    (back,) = load_scenes(path)
    assert [bool(np.signbit(o.feature[0])) for o in back.objects] == [False, True]


_SPECIAL_FLOATS = st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 1e300, -1e300, 0.1])
_FLOATS = st.one_of(st.floats(), _SPECIAL_FLOATS)
_SIZES = st.one_of(st.floats(min_value=5e-324),
                   st.sampled_from([5e-324, 2.5e-310, 1e300, math.inf, math.nan]))
_TEXT = st.one_of(st.text(max_size=8),
                  st.sampled_from(['say "hi"', "back\\slash", "caf\u00e9 \u2603", "tab\tnew\nline"]))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_OBJECTS = st.builds(
    ObjectInstance,
    category=st.integers(min_value=0, max_value=2**40),
    location=st.tuples(_FLOATS, _FLOATS, _FLOATS),
    size=st.tuples(_SIZES, _SIZES, _SIZES),
    rotation=_FLOATS,
    # A fixed pool as well, so that some features repeat within a file.
    feature=st.one_of(st.lists(_FLOATS, max_size=4),
                      st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (0.25, math.nan)])),
    asset_id=st.none() | _TEXT,
)
_SCENES = st.lists(st.builds(Scene, id=_TEXT, objects=st.lists(_OBJECTS, min_size=1,
                                                                max_size=3)), max_size=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(scenes=_SCENES, meta=st.none() | st.dictionaries(_TEXT, _JSON, max_size=4))
def test_scene_writer_matches_json_dumps_on_any_scenes(tmp_path_factory, scenes, meta):
    path = tmp_path_factory.mktemp("writer") / "scenes.json"
    save_scenes(scenes, path, meta=meta)
    assert path.read_bytes() == _reference_bytes(scenes, meta)


def test_malformed_records_and_bundles_raise_format_error(tmp_path, toy):
    assert issubclass(FormatError, SceneDiffError) and issubclass(FormatError, ValueError)
    with pytest.raises(FormatError, match="objects must be a list"):
        scene_from_dict({"id": "x", "objects": 3})
    with pytest.raises(FormatError, match="malformed scene record: a scene holds"):
        scene_from_dict({"id": "x", "objects": []})
    save_bundle(toy, tmp_path / "bundle")
    config = json.loads((tmp_path / "bundle" / "config.json").read_text())
    del config["k_f"]
    dump_json(config, tmp_path / "bundle" / "config.json")
    with pytest.raises(FormatError, match="malformed bundle in .*'k_f'"):
        load_bundle(tmp_path / "bundle")
    (tmp_path / "bundle" / "library.json").unlink()
    with pytest.raises(FormatError, match="not a scene bundle: missing library.json$"):
        load_bundle(tmp_path / "bundle")


def test_instruction_roundtrip(toy):
    for instr in (*toy.instructions, Instruction()):
        back = instruction_from_dict(json.loads(json.dumps(instruction_to_dict(instr))))
        assert back == instr
        for _, rel, _ in back.triplets:
            assert isinstance(rel, RelationLabel)


def test_config_roundtrip_and_format_guard(toy):
    data = json.loads(json.dumps(config_to_dict(toy.config)))
    assert config_from_dict(data) == toy.config
    data["format"] = "scene-bundle-v0"
    with pytest.raises(ValueError, match="unsupported bundle format"):
        config_from_dict(data)
    with pytest.raises(ValueError, match="unsupported bundle format"):
        config_from_dict({})


def test_bundle_roundtrip(tmp_path, toy):
    save_bundle(toy, tmp_path / "bundle")
    back = load_bundle(tmp_path / "bundle")
    assert back.config == toy.config
    assert [s.id for s in back.scenes] == [s.id for s in toy.scenes]
    assert all(a == b for a, b in zip(back.graphs, toy.graphs))
    assert np.array_equal(np.asarray(back.layouts), np.asarray(toy.layouts))
    assert np.array_equal(back.codebook.entries, toy.codebook.entries)
    assert [a.asset_id for a in back.library] == [a.asset_id for a in toy.library]
    assert back.instructions == toy.instructions
    assert back.scenes == toy.scenes
    assert back.library == toy.library
    # Saving the loaded bundle reproduces the files byte for byte.
    save_bundle(back, tmp_path / "again")
    for name in ("config.json", "codebook.json", "library.json",
                 "scenes.json", "instructions.json"):
        assert (tmp_path / "bundle" / name).read_bytes() == \
            (tmp_path / "again" / name).read_bytes()


def _one_ulp_up(feature):
    bumped = np.array(feature)
    bumped[0] = np.nextafter(bumped[0], np.inf)
    return bumped


def test_objects_assets_and_scenes_compare_by_value(toy):
    obj, asset, scene = toy.scenes[0].objects[1], toy.library.assets[0], toy.scenes[0]
    assert obj == dataclasses.replace(obj)
    assert obj != dataclasses.replace(obj, feature=_one_ulp_up(obj.feature))
    assert asset == dataclasses.replace(asset)
    assert asset != dataclasses.replace(asset, feature=_one_ulp_up(asset.feature))
    copies = tuple(dataclasses.replace(o) for o in scene.objects)
    assert scene == dataclasses.replace(scene, objects=copies)
    bumped = (dataclasses.replace(copies[0], feature=_one_ulp_up(copies[0].feature)),
              *copies[1:])
    assert scene != dataclasses.replace(scene, objects=bumped)
    assert toy.library == AssetLibrary(tuple(dataclasses.replace(a) for a in toy.library))
    assert obj != scene and obj != "object"


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory, toy):
    path = tmp_path_factory.mktemp("cli") / "bundle"
    save_bundle(toy, path)
    return str(path)


@pytest.fixture(scope="module")
def partial_path(tmp_path_factory, toy):
    path = tmp_path_factory.mktemp("cli-partial") / "partial.json"
    save_scenes([Scene(id="partial", objects=toy.scenes[0].objects[:2])], path)
    return str(path)


FAST = ["--graph-steps", "10", "--layout-steps", "5"]


def _run(args, env=None):
    return CliRunner().invoke(main, args, env=env, catch_exceptions=False)


def test_cli_make_dataset_toy_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(["make-dataset", "--out", a, "--family", "toy"]).exit_code == 0
    assert _run(["make-dataset", "--out", b, "--family", "toy"]).exit_code == 0
    for name in ("config.json", "scenes.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert load_bundle(a).n_scenes == 18


def test_cli_make_dataset_random(tmp_path):
    out = str(tmp_path / "rand")
    res = _run(["make-dataset", "--out", out, "--family", "random",
                "--n-scenes", "8", "--seed", "3"])
    assert res.exit_code == 0
    bundle = load_bundle(out)
    assert bundle.n_scenes == 8
    assert bundle.config.style_names == ("oak", "walnut", "steel")


def test_cli_generate_is_byte_deterministic(tmp_path, bundle_dir, toy):
    text = render_instruction(toy.instructions[1], toy.config)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["generate", "--bundle", bundle_dir, "--instruction", text,
            "--n", "2", *FAST, "--seed", "1"]
    assert _run(args + ["--out", a]).exit_code == 0
    assert _run(args + ["--out", b]).exit_code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    for scene in load_scenes(a):
        assert scene_satisfies(scene, toy.instructions[1], toy.config, toy.codebook)


def test_cli_seed_falls_back_to_the_environment(tmp_path, bundle_dir):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["uncond", "--bundle", bundle_dir, "--n", "1", *FAST]
    assert _run(base + ["--out", a, "--seed", "7"]).exit_code == 0
    assert _run(base + ["--out", b], env={"SCENEDIFF_SEED": "7"}).exit_code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    res = CliRunner().invoke(main, base + ["--out", str(tmp_path / "c.json")],
                             env={"SCENEDIFF_SEED": "lots"})
    assert res.exit_code == 2
    assert "must be an integer" in res.stderr


def test_cli_rejects_unparsable_instructions(tmp_path, bundle_dir):
    res = CliRunner().invoke(main, [
        "generate", "--bundle", bundle_dir, "--instruction",
        "frobnicate the widgets", "--out", str(tmp_path / "x.json"), *FAST,
    ])
    assert res.exit_code == 2


def test_cli_unsatisfiable_instruction_exits_3(tmp_path, bundle_dir, toy):
    text = render_instruction(
        Instruction(triplets=((2, RelationLabel.LEFT_OF, 3),)), toy.config)
    res = CliRunner().invoke(main, [
        "generate", "--bundle", bundle_dir, "--instruction", text,
        "--out", str(tmp_path / "x.json"), *FAST, "--seed", "0",
    ])
    assert res.exit_code == 3
    assert "unsatisfiable instruction [triplets]:" in res.stderr


def test_cli_complete(tmp_path, bundle_dir, partial_path, toy):
    out = str(tmp_path / "done.json")
    res = _run(["complete", "--bundle", bundle_dir, "--scenes", partial_path,
                "--out", out, *FAST, "--seed", "2"])
    assert res.exit_code == 0
    (scene,) = load_scenes(out)
    partial = load_scenes(partial_path)[0]
    assert scene.n_objects >= 2
    assert scene_to_dict(scene)["objects"][:2] == scene_to_dict(partial)["objects"]


def test_cli_complete_bad_index(tmp_path, bundle_dir, partial_path):
    res = CliRunner().invoke(main, [
        "complete", "--bundle", bundle_dir, "--scenes", partial_path,
        "--index", "5", "--out", str(tmp_path / "x.json"), *FAST,
    ])
    assert res.exit_code == 2
    assert "outside" in res.stderr


def test_cli_rearrange_follows_instruction(tmp_path, bundle_dir, toy):
    scenes_path = str(tmp_path / "src.json")
    save_scenes([toy.scenes[0]], scenes_path)
    out = str(tmp_path / "moved.json")
    text = render_instruction(toy.instructions[1], toy.config)
    res = _run(["rearrange", "--bundle", bundle_dir, "--scenes", scenes_path,
                "--instruction", text, "--out", out, *FAST, "--seed", "4"])
    assert res.exit_code == 0
    (scene,) = load_scenes(out)
    assert scene.objects[1].location[0] == pytest.approx(-0.7, abs=1e-6)


def test_cli_stylize(tmp_path, bundle_dir, toy):
    scenes_path = str(tmp_path / "src.json")
    save_scenes([toy.scenes[0]], scenes_path)
    out = str(tmp_path / "styled.json")
    res = _run(["stylize", "--bundle", bundle_dir, "--scenes", scenes_path,
                "--style", "oak", "--out", out, *FAST, "--seed", "5"])
    assert res.exit_code == 0
    (scene,) = load_scenes(out)
    assert scene.objects[0].location == toy.scenes[0].objects[0].location
    res = CliRunner().invoke(main, [
        "stylize", "--bundle", bundle_dir, "--scenes", scenes_path,
        "--style", "walnut", "--out", str(tmp_path / "x.json"), *FAST,
    ])
    assert res.exit_code == 3
    assert "unsatisfiable instruction" in res.stderr


def _assert_typed_failure(res, message):
    assert res.exit_code == 4
    assert res.stderr.splitlines() == [f"error: {message}"]
    assert "Traceback" not in res.output


def test_writers_raise_output_error_naming_the_path(tmp_path, toy):
    assert issubclass(OutputError, SceneDiffError) and issubclass(OutputError, OSError)
    missing = tmp_path / "nodir" / "x.json"
    with pytest.raises(OutputError, match=f"cannot write {missing}: "):
        save_scenes(toy.scenes[:1], missing)
    with pytest.raises(OutputError, match=f"cannot write {tmp_path}: "):
        dump_json({"a": 1}, tmp_path)
    a_file = tmp_path / "file"
    a_file.write_text("")
    with pytest.raises(OutputError, match=f"cannot create bundle directory {a_file}: "):
        save_bundle(toy, a_file)


# Each command with an --out it cannot write: (arguments, the path, errno).
_UNWRITABLE = {
    "generate-missing-dir": (["generate", "--n", "1", *FAST], "nodir/x.json", errno.ENOENT),
    "uncond-missing-dir": (["uncond", "--n", "1", *FAST], "nodir/x.json", errno.ENOENT),
    "generate-onto-dir": (["generate", "--n", "1", *FAST], "adir", errno.EISDIR),
    "schedule-dump-missing-dir": (["schedule-dump", "--steps", "5"], "nodir/s.json",
                                  errno.ENOENT),
    "eval-missing-dir": (["eval", "--scenes", "{partial}", "--instruction",
                          "Arrange a chair closely to the left of a table."],
                         "nodir/r.json", errno.ENOENT),
    "render-svg-missing-dir": (["render-svg", "--scenes", "{partial}"], "nodir/s.svg",
                               errno.ENOENT),
}


@pytest.mark.parametrize("case", sorted(_UNWRITABLE))
def test_cli_unwritable_output_path_exits_4(tmp_path, bundle_dir, partial_path, case):
    args, out, code = _UNWRITABLE[case]
    (tmp_path / "adir").mkdir()
    out = tmp_path / out
    args = [a.format(partial=partial_path) for a in args]
    res = CliRunner().invoke(main, [*args, "--bundle", bundle_dir, "--out", str(out)])
    _assert_typed_failure(res, f"cannot write {out}: {os.strerror(code)}")


def test_cli_make_dataset_onto_a_file_exits_4(tmp_path):
    out = tmp_path / "taken"
    out.write_text("")
    res = CliRunner().invoke(main, ["make-dataset", "--out", str(out)])
    _assert_typed_failure(
        res, f"cannot create bundle directory {out}: {os.strerror(errno.EEXIST)}")


def test_cli_scene_file_without_scenes_list_exits_4(tmp_path, bundle_dir):
    scenes_path = tmp_path / "oops.json"
    scenes_path.write_text('{"oops": 1}')
    res = CliRunner().invoke(main, ["complete", "--bundle", bundle_dir, "--scenes",
                                    str(scenes_path), "--out", str(tmp_path / "x.json"), *FAST])
    _assert_typed_failure(res, "scene file lacks a 'scenes' list")


def test_cli_object_record_without_location_exits_4(tmp_path, bundle_dir, toy):
    record = object_to_dict(toy.scenes[0].objects[0])
    del record["location"]
    scenes_path = tmp_path / "no-location.json"
    dump_json({"scenes": [{"id": "x", "objects": [record]}]}, scenes_path)
    res = CliRunner().invoke(main, ["complete", "--bundle", bundle_dir, "--scenes",
                                    str(scenes_path), "--out", str(tmp_path / "x.json"), *FAST])
    _assert_typed_failure(res, "malformed object record: 'location'")


def test_cli_eval_on_a_non_json_scene_file_exits_4(tmp_path, bundle_dir, toy):
    scenes_path = tmp_path / "scenes.json"
    scenes_path.write_text("not json\n")
    text = render_instruction(toy.instructions[0], toy.config)
    res = CliRunner().invoke(main, ["eval", "--bundle", bundle_dir, "--scenes", str(scenes_path),
                                    "--instruction", text])
    _assert_typed_failure(
        res, f"{scenes_path} is not valid JSON: Expecting value: line 1 column 1 (char 0)")


def test_cli_uncond_on_an_empty_bundle_directory_exits_4(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    res = CliRunner().invoke(main, ["uncond", "--bundle", str(empty),
                                    "--out", str(tmp_path / "u.json"), *FAST])
    _assert_typed_failure(
        res, f"{empty} is not a scene bundle: missing config.json, codebook.json, "
             "library.json, scenes.json, instructions.json")


# Edits of a toy scene's object records that leave it unfit for the toy
# config (4 categories, 16-dimensional features, 4 slots), with the reason.
_MISFITS = {
    "category": (lambda objects: objects[0].update(category=99),
                 "category 99 outside vocabulary of 4"),
    "feature": (lambda objects: objects[0]["feature"].append(0.0),
                "object feature dimension disagrees with config"),
    "count": (lambda objects: objects.extend(copy.deepcopy(objects)),
              "a scene holds 6 objects, more than 4 slots"),
}


@pytest.mark.parametrize("misfit", sorted(_MISFITS))
def test_cli_bundle_whose_scene_does_not_fit_exits_4(tmp_path, toy, misfit):
    edit, reason = _MISFITS[misfit]
    path = tmp_path / "bundle"
    save_bundle(toy, path)
    data = json.loads((path / "scenes.json").read_text())
    edit(data["scenes"][3]["objects"])
    dump_json(data, path / "scenes.json")
    message = f"malformed bundle in {path}: ValueError({reason!r})"
    with pytest.raises(FormatError) as info:
        load_bundle(path)
    assert str(info.value) == message
    out = tmp_path / "u.json"
    res = CliRunner().invoke(main, ["uncond", "--bundle", str(path), "--out", str(out), *FAST])
    _assert_typed_failure(res, message)
    assert not out.exists()


def _drop_category_0(assets):
    assets[:] = [a for a in assets if a["category"] != 0]


# Edits of a toy bundle's asset records that leave the library unfit for the
# bundle, with the reason.
BAD_LIBRARIES = {
    "feature-length": (lambda assets: assets[0]["feature"].append(0.0),
                       "malformed asset 'asset-00-00': feature of shape (17,), config d is 16"),
    "category-high": (lambda assets: assets[0].update(category=4),
                      "malformed asset 'asset-00-00': category 4 outside vocabulary of 4"),
    "category-negative": (lambda assets: assets[0].update(category=-1),
                          "malformed asset 'asset-00-00': category -1 outside vocabulary of 4"),
    "nan-feature": (lambda assets: assets[1]["feature"].__setitem__(3, math.nan),
                    "malformed asset 'asset-00-01': non-finite feature or size value"),
    "infinite-size": (lambda assets: assets[2]["size"].__setitem__(2, math.inf),
                      "malformed asset 'asset-01-00': non-finite feature or size value"),
    "missing-category": (_drop_category_0,
                         "the library has no asset of category 0, which the scenes use"),
}


def write_bad_library(toy, path, name):
    """Save the toy bundle to ``path`` with one BAD_LIBRARIES edit."""
    save_bundle(toy, path)
    data = json.loads((path / "library.json").read_text())
    BAD_LIBRARIES[name][0](data["assets"])
    dump_json(data, path / "library.json")


@pytest.mark.parametrize("name", sorted(BAD_LIBRARIES))
def test_cli_bundle_with_a_malformed_library_exits_4(tmp_path, toy, name):
    path = tmp_path / "bundle"
    write_bad_library(toy, path, name)
    with pytest.raises(FormatError) as info:
        load_bundle(path)
    assert str(info.value) == BAD_LIBRARIES[name][1]
    out = tmp_path / "u.json"
    res = CliRunner().invoke(main, ["uncond", "--bundle", str(path), "--out", str(out), *FAST])
    _assert_typed_failure(res, BAD_LIBRARIES[name][1])
    assert not out.exists()


@pytest.mark.parametrize("misfit", sorted(_MISFITS))
@pytest.mark.parametrize("command", ["complete", "rearrange", "stylize"])
def test_cli_edit_of_a_scene_that_does_not_fit_exits_4(tmp_path, bundle_dir, toy, command,
                                                       misfit):
    edit, reason = _MISFITS[misfit]
    record = scene_to_dict(toy.scenes[0])
    edit(record["objects"])
    scenes_path = tmp_path / "misfit.json"
    dump_json({"scenes": [record]}, scenes_path)
    out = tmp_path / "x.json"
    style = ["--style", "oak"] if command == "stylize" else []
    res = CliRunner().invoke(main, [command, "--bundle", bundle_dir, "--scenes",
                                    str(scenes_path), *style, "--out", str(out), *FAST])
    _assert_typed_failure(res, f"{scenes_path}: scene 0 does not fit the bundle: {reason}")
    assert not out.exists()


def test_cli_unknown_style_is_a_usage_error(tmp_path, bundle_dir, toy):
    with pytest.raises(VocabularyError):
        toy.config.style_signature("steel")
    with pytest.raises(KeyError):
        toy.config.style_signature("steel")
    scenes_path = tmp_path / "src.json"
    save_scenes([toy.scenes[0]], scenes_path)
    out = tmp_path / "x.json"
    res = CliRunner().invoke(main, ["stylize", "--bundle", bundle_dir, "--scenes",
                                    str(scenes_path), "--style", "steel", "--out", str(out),
                                    *FAST])
    assert res.exit_code == 2
    assert res.stderr.splitlines()[-1] == "Error: unknown style 'steel'"
    assert "Traceback" not in res.output
    assert not out.exists()


@pytest.fixture(scope="module")
def codeless_bundle_dir(tmp_path_factory, toy):
    """The toy bundle with its config's style codes removed: it still names
    the styles."""
    path = tmp_path_factory.mktemp("cli-codeless") / "bundle"
    save_bundle(toy, path)
    config = json.loads((path / "config.json").read_text())
    assert "oak" in config["style_names"] and config["style_codes"]
    config["style_codes"] = []
    dump_json(config, path / "config.json")
    return str(path)


CODELESS_MESSAGE = "style 'oak' has no code signature: the config holds no style codes"


def test_cli_stylize_on_a_bundle_without_style_codes_exits_4(tmp_path, codeless_bundle_dir,
                                                               toy):
    # This was a bare KeyError traceback (exit 1).
    scenes_path = tmp_path / "src.json"
    save_scenes([toy.scenes[0]], scenes_path)
    out = tmp_path / "x.json"
    res = CliRunner().invoke(main, ["stylize", "--bundle", codeless_bundle_dir, "--scenes",
                                    str(scenes_path), "--style", "oak", "--out", str(out),
                                    *FAST])
    _assert_typed_failure(res, CODELESS_MESSAGE)
    assert not out.exists()


def test_cli_style_instruction_on_a_bundle_without_style_codes_exits_4(tmp_path,
                                                                        codeless_bundle_dir):
    # This was the usage error "unknown style 'oak'" (exit 2), although the
    # bundle names the style.
    out = tmp_path / "g.json"
    res = CliRunner().invoke(main, ["generate", "--bundle", codeless_bundle_dir,
                                    "--instruction", "Let the room be oak style.",
                                    "--out", str(out), *FAST])
    _assert_typed_failure(res, CODELESS_MESSAGE)
    assert not out.exists()


def test_missing_style_codes_are_not_an_unknown_style(toy):
    config = dataclasses.replace(toy.config, style_codes=())
    with pytest.raises(MissingStyleCodesError, match="no code signature"):
        config.style_signature("oak")
    with pytest.raises(MissingStyleCodesError):
        parse_instruction("Let the room be oak style.", config)
    for cfg in (config, toy.config):
        with pytest.raises(UnknownStyleError, match="unknown style 'steel'"):
            parse_instruction("Let the room be steel style.", cfg)
    assert parse_instruction("Let the room be oak style.", toy.config).style is not None


def _dataset_graph_keys_of(scenes_path, bundle_dir):
    bundle = load_bundle(bundle_dir)
    keys = {g.key() for g in bundle.graphs}
    graphs = [pad_graph(derive_semantic_graph(s, bundle.codebook, bundle.config),
                        bundle.config.n_max) for s in load_scenes(scenes_path)]
    return [g.key() in keys for g in graphs]


def test_cli_random_bundle_uncond_returns_dataset_graphs(tmp_path):
    # Random-family scenes hold two to four objects. Drawing each slot from
    # its own marginal could mix an empty category with a real code, which
    # no dataset graph explains, and this command exited 4; one drawn
    # dataset graph per chain and step keeps every chain on the dataset.
    bundle = str(tmp_path / "rand")
    assert _run(["make-dataset", "--out", bundle, "--family", "random",
                 "--seed", "0"]).exit_code == 0
    out = str(tmp_path / "u.json")
    assert _run(["uncond", "--bundle", bundle, "--n", "5", "--seed", "0",
                 "--out", out]).exit_code == 0
    assert _dataset_graph_keys_of(out, bundle) == [True] * 5


def test_cli_gaussian_embedding_with_identity_last_step(tmp_path, bundle_dir):
    # From 23 graph steps on, this kernel's step at t = 1 is exactly the
    # identity, so a chain keeps whatever graph t = 2 drew; a mixed graph
    # then had zero likelihood and the command exited 4.
    out = str(tmp_path / "u.json")
    res = _run(["uncond", "--bundle", bundle_dir, "--n", "500", "--kernel",
                "gaussian-embedding", "--graph-steps", "30", "--layout-steps", "5",
                "--seed", "0", "--out", out])
    assert res.exit_code == 0
    assert len(load_scenes(out)) == 500


def test_cli_complete_outside_support_exits_4(tmp_path, bundle_dir, toy):
    # No toy scene has a table and a lamp as its first two slots.
    scenes_path = str(tmp_path / "table-lamp.json")
    objects = toy.scenes[0].objects
    save_scenes([Scene(id="table-lamp", objects=(objects[0], objects[2]))], scenes_path)
    res = CliRunner().invoke(main, ["complete", "--bundle", bundle_dir, "--scenes", scenes_path,
                                    "--out", str(tmp_path / "x.json"), *FAST])
    _assert_typed_failure(res, "frozen slots are inconsistent with every dataset graph")


def test_cli_make_dataset_codebook_failure_exits_4(tmp_path, monkeypatch):
    # The seeded fit fails for this seed and size; with no retries left the
    # build fails.
    monkeypatch.setattr(datagen, "_CODEBOOK_RETRIES", 0)
    res = CliRunner().invoke(main, ["make-dataset", "--out", str(tmp_path / "rand"),
                                    "--family", "random", "--n-scenes", "500", "--seed", "0"])
    _assert_typed_failure(res, "codebook failed to separate the style centroids")


@pytest.mark.parametrize("seed, n_scenes", [(0, 300), (0, 500), (2, 300), (3, 500), (4, 50),
                                            (4, 200)])
def test_cli_make_dataset_retries_the_codebook_fit(tmp_path, seed, n_scenes):
    # The seeded codebook fit gives two styles one signature for these
    # pairs; a restart from a child of the seed separates them.
    out = str(tmp_path / "rand")
    res = _run(["make-dataset", "--out", out, "--family", "random",
                "--n-scenes", str(n_scenes), "--seed", str(seed)])
    assert res.exit_code == 0
    bundle = load_bundle(out)
    signatures = bundle.config.style_codes
    assert len(signatures) == 3 and len(set(signatures)) == 3
    for asset in bundle.library:
        style = int(asset.asset_id.split("-")[2])
        assert tuple(bundle.codebook.encode(asset.feature)) == signatures[style]


@pytest.mark.parametrize("command, option, value", [
    pytest.param("uncond", "--n", "0", id="--n"),
    pytest.param("uncond", "--graph-steps", "0", id="--graph-steps"),
    pytest.param("uncond", "--layout-steps", "0", id="--layout-steps"),
    pytest.param("uncond", "--seed", "-1", id="--seed"),
    pytest.param("uncond", "--leak", "-1", id="--leak"),
    pytest.param("uncond", "SCENEDIFF_SEED", "-1", id="SCENEDIFF_SEED"),
    pytest.param("schedule-dump", "--steps", "0", id="schedule-dump:--steps"),
    pytest.param("schedule-dump", "--leak", "-1", id="schedule-dump:--leak"),
    pytest.param("make-dataset", "--n-scenes", "0", id="make-dataset:--n-scenes"),
    pytest.param("make-dataset", "--seed", "-1", id="make-dataset:--seed"),
])
def test_cli_rejects_a_zero_count_as_usage_error(tmp_path, bundle_dir, command, option,
                                                  value):
    # Counts below 1 and negative seeds and leaks.
    out = tmp_path / "x.json"
    args = {"uncond": ["--bundle", bundle_dir, *FAST], "schedule-dump": ["--bundle", bundle_dir],
            "make-dataset": ["--family", "random"]}[command]
    if option.startswith("--"):
        env, args, expect = None, [*args, option, value], f"Invalid value for '{option}'"
    else:
        env, expect = {option: value}, f"{option} must be non-negative"
    res = CliRunner().invoke(main, [command, *args, "--out", str(out)], env=env)
    assert res.exit_code == 2
    assert expect in res.stderr
    assert "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("kernel", ["independent-mask", "uniform"])
@pytest.mark.parametrize("command", ["uncond", "schedule-dump"])
@pytest.mark.parametrize("leak", ["nan", "inf", "1e400"])
def test_cli_rejects_a_non_finite_leak_as_usage_error(tmp_path, bundle_dir, command, kernel,
                                                       leak):
    # NaN passes FloatRange(min=0), and a masking schedule then raised a
    # bare ValueError; uniform kernels ignored the leak and exited 0.
    out = tmp_path / "x.json"
    fast = FAST if command == "uncond" else []
    res = CliRunner().invoke(main, [command, "--bundle", bundle_dir, *fast, "--kernel", kernel,
                                    "--leak", leak, "--out", str(out)])
    assert res.exit_code == 2
    assert "Invalid value for '--leak'" in res.stderr and "not a finite number" in res.stderr
    assert "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("leak", [math.nan, math.inf, -1.0])
def test_schedules_reject_a_non_finite_or_negative_leak(toy, kernel, leak):
    with pytest.raises(ValueError, match="leak must be finite and non-negative"):
        build_schedule(5, 3, kernel, leak=leak)
    with pytest.raises(ValueError, match="leak must be finite and non-negative"):
        build_graph_schedule(toy.config, 5, kernel, leak=leak)


def test_cli_eval_of_scenes_from_another_bundle_exits_4(tmp_path, bundle_dir, toy,
                                                        random_bundle):
    # Random-family scenes use six categories; the toy bundle has four.
    other = random_bundle
    index = next(i for i, scene in enumerate(other.scenes)
                 if any(o.category >= toy.config.k_c for o in scene.objects))
    category = next(o.category for o in other.scenes[index].objects
                    if o.category >= toy.config.k_c)
    scenes_path = tmp_path / "random.json"
    save_scenes(other.scenes, scenes_path)
    out = tmp_path / "report.json"
    text = render_instruction(toy.instructions[0], toy.config)
    res = CliRunner().invoke(main, ["eval", "--bundle", bundle_dir, "--scenes", str(scenes_path),
                                    "--instruction", text, "--out", str(out)])
    _assert_typed_failure(res, f"{scenes_path}: scene {index} does not fit the bundle: "
                               f"category {category} outside vocabulary of 4")
    assert not out.exists()


_NON_FINITE_FIELDS = {
    "size": lambda obj, value: obj["size"].__setitem__(0, value),
    "location": lambda obj, value: obj["location"].__setitem__(1, value),
    "rotation": lambda obj, value: obj.__setitem__("rotation", value),
    "feature": lambda obj, value: obj["feature"].__setitem__(3, value),
}


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field", sorted(_NON_FINITE_FIELDS))
def test_object_records_with_non_finite_numbers_raise_format_error(toy, field, value):
    record = object_to_dict(toy.scenes[0].objects[0])
    _NON_FINITE_FIELDS[field](record, value)
    with pytest.raises(FormatError, match="non-finite location, size, rotation or feature"):
        object_from_dict(record)


@pytest.mark.parametrize("command, field, literal", [
    ("complete", "size", "Infinity"),
    ("complete", "location", "1e400"),
    ("render-svg", "location", "NaN"),
    ("render-svg", "feature", "-Infinity"),
])
def test_cli_scene_file_with_a_non_finite_number_exits_4(tmp_path, bundle_dir, toy, command,
                                                         field, literal):
    # complete wrote Infinity, which is not JSON, and render-svg wrote nan
    # into the SVG; both exited 0.
    record = scene_to_dict(toy.scenes[0])
    _NON_FINITE_FIELDS[field](record["objects"][1], "@")
    scenes_path = tmp_path / "scene.json"
    scenes_path.write_text(json.dumps({"scenes": [record]}).replace('"@"', literal))
    out = tmp_path / ("x.json" if command == "complete" else "x.svg")
    extra = FAST if command == "complete" else []
    res = CliRunner().invoke(main, [command, "--bundle", bundle_dir, "--scenes",
                                    str(scenes_path), "--out", str(out), *extra])
    _assert_typed_failure(res, "malformed object record: non-finite location, size, "
                               "rotation or feature value")
    assert not out.exists()


def test_cli_has_no_guidance_option(tmp_path, bundle_dir):
    # Guidance changes no sample of the exact denoiser, so the sampling
    # commands offer no option for it.
    out = tmp_path / "x.json"
    res = CliRunner().invoke(main, ["uncond", "--bundle", bundle_dir, *FAST,
                                    "--guidance-scale", "1", "--out", str(out)])
    assert res.exit_code == 2
    assert "No such option" in res.stderr and "--guidance-scale" in res.stderr
    assert not out.exists()


def test_cli_eval_reports_recall(tmp_path, bundle_dir, toy):
    text = render_instruction(toy.instructions[0], toy.config)
    gen_out = str(tmp_path / "gen.json")
    assert _run(["generate", "--bundle", bundle_dir, "--instruction", text,
                 "--n", "3", "--out", gen_out, *FAST, "--seed", "6"]).exit_code == 0
    report_path = tmp_path / "report.json"
    res = _run(["eval", "--bundle", bundle_dir, "--scenes", gen_out,
                "--instruction", text, "--out", str(report_path)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["n_scenes"] == 3
    assert payload["irecall"] == 1.0
    assert json.loads(report_path.read_text()) == payload


def test_cli_render_svg(tmp_path, bundle_dir, toy):
    scenes_path = str(tmp_path / "src.json")
    save_scenes([toy.scenes[0]], scenes_path)
    out = tmp_path / "scene.svg"
    res = _run(["render-svg", "--bundle", bundle_dir, "--scenes", scenes_path,
                "--out", str(out)])
    assert res.exit_code == 0
    text = out.read_text()
    assert text.startswith("<svg") and "</svg>" in text


def test_cli_schedule_dump_matches_library(bundle_dir, toy):
    res = _run(["schedule-dump", "--bundle", bundle_dir, "--steps", "10"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    want = schedule_to_json(build_graph_schedule(toy.config, 10, leak=0.01))
    assert payload == want
    assert res.output == json.dumps(want, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Fault sweep: every CLI failure is typed


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _scene_file_edits(record):
    """Malformed scene files built from one valid scene record, by name:
    (file text or payload)."""
    def edited(edit):
        data = copy.deepcopy(record)
        edit(data)
        return {"scenes": [data]}

    def obj(field, value):
        return edited(lambda d: d["objects"][0].__setitem__(field, value))

    valid = json.dumps({"scenes": [record]})
    return {
        "truncated": valid[:len(valid) // 2],
        "not-an-object": "[1, 2, 3]",
        "scenes-a-dict": {"scenes": {}},
        "objects-a-string": edited(lambda d: d.__setitem__("objects", "chair")),
        "no-objects": edited(lambda d: d.__setitem__("objects", [])),
        "category-a-string": obj("category", "chair"),
        "location-a-string": obj("location", "here"),
        "location-two-values": obj("location", [0.0, 0.0]),
        "size-negative": obj("size", [-1.0, 1.0, 1.0]),
        "missing-id": edited(lambda d: d.pop("id")),
        "missing-feature": edited(lambda d: d["objects"][0].pop("feature")),
        "nan-location": obj("location", [math.nan, 0.0, 0.0]),
        "infinite-size": obj("size", [1.0, math.inf, 1.0]),
        "huge-feature": json.dumps(edited(
            lambda d: d["objects"][0]["feature"].__setitem__(0, "1e400"))).replace(
                '"1e400"', "1e400"),
        "category-out-of-vocabulary": obj("category", 99),
        "category-negative": obj("category", -1),
    }


def test_cli_fault_sweep_ends_in_defined_exit_codes(tmp_path, toy):
    """Sampling subcommands x kernels x steps on a toy and a small random
    bundle, edge leak values, and malformed scene and library files: each
    call exits 0, 2, 3 or 4 with no traceback, and writes strict JSON."""
    small = generate_dataset(RANDOM_CONFIG, 7, seed=0)
    calls = []
    for name, bundle in (("toy", toy), ("random", small)):
        directory = tmp_path / name
        save_bundle(bundle, directory)
        scenes = tmp_path / f"{name}-scenes.json"
        save_scenes(bundle.scenes[:2], scenes)
        text = render_instruction(bundle.instructions[0], bundle.config)
        edit = ["--scenes", str(scenes), "--index", "1"]
        commands = {
            "generate": ["--instruction", text, "--n", "3"],
            "uncond": ["--n", "3"],
            "complete": edit,
            "rearrange": edit,
            "stylize": [*edit, "--style", "oak"],
        }
        for (command, extra), kernel, steps in itertools.product(
                commands.items(), KERNELS, ("1", "2")):
            calls.append([command, "--bundle", str(directory), *extra, "--kernel", kernel,
                          "--graph-steps", steps, "--layout-steps", steps])
        for kernel, leak in itertools.product(KERNELS, ("0", "inf", "nan", "1e308")):
            calls.append(["uncond", "--bundle", str(directory), "--n", "2", "--kernel", kernel,
                          "--leak", leak, "--graph-steps", "2", "--layout-steps", "2"])
            calls.append(["schedule-dump", "--bundle", str(directory), "--steps", "2",
                          "--kernel", kernel, "--leak", leak])
    toy_dir = str(tmp_path / "toy")
    for name, content in _scene_file_edits(scene_to_dict(toy.scenes[0])).items():
        path = tmp_path / f"bad-{name}.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        source = ["--bundle", toy_dir, "--scenes", str(path)]
        for command in ("complete", "rearrange", "stylize"):
            style = ["--style", "oak"] if command == "stylize" else []
            calls.append([command, *source, *style, *FAST])
        calls.append(["eval", *source, "--instruction", render_instruction(
            toy.instructions[0], toy.config)])
        calls.append(["render-svg", *source])
    for name in BAD_LIBRARIES:
        directory = tmp_path / f"library-{name}"
        write_bad_library(toy, directory, name)
        calls.append(["uncond", "--bundle", str(directory), *FAST])
        calls.append(["schedule-dump", "--bundle", str(directory), "--steps", "2"])
    codes = collections.Counter()
    for i, args in enumerate(calls):
        out = tmp_path / f"out-{i}.json"
        res = CliRunner().invoke(main, [*args, "--out", str(out)])
        assert res.exit_code in (0, 2, 3, 4), (args, res.output, res.exception)
        assert "Traceback" not in res.output, args
        if out.exists():
            json.loads(out.read_text(), parse_constant=_reject_constant)
        codes[res.exit_code] += 1
    # The sweep reaches every defined outcome.
    assert set(codes) == {0, 2, 3, 4}, codes
