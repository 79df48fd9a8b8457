"""Deterministic JSON serialization for scenes and dataset bundles.

Bundles live in a directory of five files (config, codebook, library,
scenes, instructions). Graphs and layouts are derived again at every load,
from the scenes, in one batched pass (``derive_graphs_and_layouts``: one
quantizer call per chunk of scenes, padded arrays written directly), and
nothing of it is kept from one load to the next. That keeps the stored form
small and guarantees the loaded bundle is self-consistent. All writers sort
keys and end with a newline, so equal inputs produce byte-identical files;
a path they cannot write raises OutputError. The readers raise FormatError
on a file that is not JSON or lacks a record they need, on a bundle
directory that lacks one of its files, and on a bundle whose scenes do not
fit its config.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import SceneConfig
from .datagen import Asset, AssetLibrary, DatasetBundle, derive_graphs_and_layouts
from .errors import FormatError, OutputError, SceneDiffError
from .instructions import Instruction, StyleConstraint
from .quantizer import Codebook
from .relations import RelationLabel
from .scene import ObjectInstance, Scene

BUNDLE_FORMAT = "scene-bundle-v1"
BUNDLE_FILES = ("config.json", "codebook.json", "library.json", "scenes.json",
                "instructions.json")


def write_text(path: Path | str, text: str) -> None:
    """Write ``text`` to ``path``; OutputError, naming the path, when the
    file cannot be written (a missing parent directory, a directory there)."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def dump_json(payload, path: Path | str) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_json(path: Path | str):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def object_to_dict(obj: ObjectInstance) -> dict:
    return {
        "category": int(obj.category),
        "location": [float(v) for v in obj.location],
        "size": [float(v) for v in obj.size],
        "rotation": float(obj.rotation),
        "feature": [float(v) for v in obj.feature],
        "asset_id": obj.asset_id,
    }


def object_from_dict(data: dict) -> ObjectInstance:
    # ObjectInstance converts location, size and feature itself.
    try:
        obj = ObjectInstance(
            category=int(data["category"]),
            location=data["location"],
            size=data["size"],
            rotation=float(data["rotation"]),
            feature=data["feature"],
            asset_id=data.get("asset_id"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed object record: {exc}") from exc
    # json reads NaN, Infinity and out-of-range numbers such as 1e400.
    if not all(map(math.isfinite, (*obj.location, *obj.size, obj.rotation,
                                   *obj.feature.tolist()))):
        raise FormatError("malformed object record: non-finite location, size, rotation "
                          "or feature value")
    return obj


def scene_to_dict(scene: Scene) -> dict:
    return {"id": scene.id, "objects": [object_to_dict(o) for o in scene.objects]}


def scene_from_dict(data: dict) -> Scene:
    if not isinstance(data, dict) or "id" not in data or "objects" not in data:
        raise FormatError("malformed scene record: need id and objects")
    if not isinstance(data["objects"], list):
        raise FormatError("malformed scene record: objects must be a list")
    objects = tuple(object_from_dict(o) for o in data["objects"])
    try:
        return Scene(id=str(data["id"]), objects=objects)
    except ValueError as exc:
        raise FormatError(f"malformed scene record: {exc}") from exc


# Templates of json.dumps(..., indent=2, sort_keys=True) for one scene and
# one object at their depth in a scene file: keys in sorted order, one item
# per line, nested levels two spaces deeper.
_SCENE = '{{\n      "id": {},\n      "objects": [\n        {}\n      ]\n    }}'
_OBJECTS_SEP = ",\n        "
_OBJECT = (
    '{{\n'
    '          "asset_id": {},\n'
    '          "category": {},\n'
    '          "feature": {},\n'
    '          "location": [\n            {},\n            {},\n            {}\n          ],\n'
    '          "rotation": {},\n'
    '          "size": [\n            {},\n            {},\n            {}\n          ]\n'
    '        }}'
)
_FEATURE_SEP = ",\n            "
# float.__repr__ of the values json writes as its non-finite literals.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def save_scenes(scenes, path: Path | str, *, meta: dict | None = None) -> None:
    """Write scenes, and ``meta`` when it is truthy, to a scene file.

    The file's bytes equal ``json.dumps(payload, indent=2, sort_keys=True)``
    plus a newline, where payload is ``{"scenes": [scene_to_dict(s) ...]}``
    with ``"meta": meta`` added when meta is truthy; ``scene_to_dict`` is
    the reference the tests compare against. The text is built from
    fixed templates instead, because json falls back to its pure-Python
    encoder whenever ``indent`` is set. Each distinct feature vector is
    formatted once per call (keyed by its bytes, so -0.0 and 0.0 stay
    apart). OutputError when the path cannot be written.
    """
    features: dict[bytes, str] = {}

    def object_text(obj: ObjectInstance) -> str:
        key = obj.feature.tobytes()
        feature = features.get(key)
        if feature is None:
            values = obj.feature.tolist()
            feature = features[key] = (
                f"[\n            {_FEATURE_SEP.join(map(_float_text, values))}\n          ]"
                if values else "[]")
        return _OBJECT.format(json.dumps(obj.asset_id), int(obj.category), feature,
                              *map(_float_text, obj.location), _float_text(obj.rotation),
                              *map(_float_text, obj.size))

    scene_texts = [
        _SCENE.format(json.dumps(scene.id),
                      _OBJECTS_SEP.join(map(object_text, scene.objects)))
        for scene in scenes
    ]
    parts = ["{\n"]
    if meta:
        # JSON strings hold no raw newline, so each newline starts a line to indent.
        meta_text = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
        parts.append(f'  "meta": {meta_text},\n')
    if scene_texts:
        parts += ['  "scenes": [\n    ', ",\n    ".join(scene_texts), "\n  ]\n}\n"]
    else:
        parts.append('  "scenes": []\n}\n')
    write_text(path, "".join(parts))


def load_scenes(path: Path | str) -> list[Scene]:
    data = load_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("scenes"), list):
        raise FormatError("scene file lacks a 'scenes' list")
    return [scene_from_dict(s) for s in data["scenes"]]


def instruction_to_dict(instr: Instruction) -> dict:
    style = None
    if instr.style is not None:
        style = {
            "codes": [int(c) for c in instr.style.codes],
            "category": instr.style.category,
        }
    return {
        "triplets": [[int(s), int(r), int(o)] for s, r, o in instr.triplets],
        "style": style,
        "text": instr.text,
    }


def instruction_from_dict(data: dict) -> Instruction:
    style = None
    if data.get("style") is not None:
        raw = data["style"]
        style = StyleConstraint(
            codes=tuple(int(c) for c in raw["codes"]),
            category=raw.get("category"),
        )
    return Instruction(
        triplets=tuple(
            (int(s), RelationLabel(int(r)), int(o)) for s, r, o in data.get("triplets", ())
        ),
        style=style,
        text=str(data.get("text", "")),
    )


def config_to_dict(config: SceneConfig) -> dict:
    return {
        "format": BUNDLE_FORMAT,
        "categories": list(config.category_names),
        "k_f": config.k_f,
        "n_f": config.n_f,
        "n_max": config.n_max,
        "d": config.d,
        "style_names": list(config.style_names),
        "style_codes": [list(codes) for codes in config.style_codes],
    }


def config_from_dict(data: dict) -> SceneConfig:
    found = data.get("format") if isinstance(data, dict) else None
    if found != BUNDLE_FORMAT:
        raise FormatError(f"unsupported bundle format {found!r}; expected {BUNDLE_FORMAT!r}")
    return SceneConfig(
        category_names=tuple(data["categories"]),
        k_f=int(data["k_f"]),
        n_f=int(data["n_f"]),
        n_max=int(data["n_max"]),
        d=int(data["d"]),
        style_names=tuple(data["style_names"]),
        style_codes=tuple(tuple(int(c) for c in row) for row in data["style_codes"]),
    )


def save_bundle(bundle: DatasetBundle, directory: Path | str) -> None:
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create bundle directory {directory}: "
                          f"{exc.strerror or exc}") from exc
    dump_json(config_to_dict(bundle.config), directory / "config.json")
    dump_json(
        {"entries": [[float(v) for v in row] for row in bundle.codebook.entries],
         "n_f": bundle.codebook.n_f},
        directory / "codebook.json",
    )
    dump_json(
        {"assets": [
            {"asset_id": a.asset_id, "category": a.category,
             "feature": [float(v) for v in a.feature],
             "size": [float(v) for v in a.size]}
            for a in bundle.library
        ]},
        directory / "library.json",
    )
    save_scenes(bundle.scenes, directory / "scenes.json")
    dump_json(
        {"instructions": [instruction_to_dict(i) for i in bundle.instructions]},
        directory / "instructions.json",
    )


def load_bundle(directory: Path | str) -> DatasetBundle:
    directory = Path(directory)
    missing = [name for name in BUNDLE_FILES if not (directory / name).is_file()]
    if missing:
        raise FormatError(f"{directory} is not a scene bundle: missing {', '.join(missing)}")
    try:
        config = config_from_dict(load_json(directory / "config.json"))
        cb = load_json(directory / "codebook.json")
        codebook = Codebook(entries=np.asarray(cb["entries"], dtype=np.float64),
                            n_f=int(cb["n_f"]))
        lib = load_json(directory / "library.json")
        library = AssetLibrary(tuple(
            Asset(asset_id=a["asset_id"], category=int(a["category"]),
                  feature=a["feature"],
                  size=tuple(float(v) for v in a["size"]))
            for a in lib["assets"]
        ))
        scenes = tuple(load_scenes(directory / "scenes.json"))
        instrs = tuple(
            instruction_from_dict(d)
            for d in load_json(directory / "instructions.json")["instructions"]
        )
        graphs, layouts = derive_graphs_and_layouts(scenes, codebook, config)
    except SceneDiffError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed bundle in {directory}: {exc!r}") from exc
    return DatasetBundle(
        config=config,
        scenes=scenes,
        graphs=graphs,
        layouts=layouts,
        codebook=codebook,
        library=library,
        instructions=instrs,
    )
