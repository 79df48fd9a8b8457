"""Command line interface.

Sampling commands resolve their seed from --seed, then the SCENEDIFF_SEED
environment variable, then 0, and write deterministic JSON, so a repeated
invocation with the same arguments produces byte-identical files. Exit codes:
0 on success, 2 on bad arguments or unparsable instructions (click's usage
failure), 3 when an instruction is well formed but unsatisfiable, 4 on any
other SceneDiffError (a sampler state outside the dataset's support, a
dataset that could not be built, a malformed scene or bundle file, an output
path that cannot be written), reported as one ``error:`` line.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from .datagen import generate_dataset, toy_support
from .config import SceneConfig
from .errors import (
    FormatError,
    InstructionParseError,
    SceneDiffError,
    UnsatisfiableInstructionError,
    VocabularyError,
)
from .evaluation import evaluate_scenes
from .graph import check_scenes_fit
from .graph_diffusion import (
    KERNEL_INDEPENDENT,
    KERNELS,
    build_graph_schedule,
    schedule_to_json,
)
from .instructions import parse_instruction
from .pipeline import GenerationConfig, ScenePipeline
from .scene_io import (
    dump_json,
    load_bundle,
    load_scenes,
    save_bundle,
    save_scenes,
    write_text,
)
from .svg_render import render_svg

ENV_SEED = "SCENEDIFF_SEED"


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(ENV_SEED)
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise click.UsageError(f"{ENV_SEED} must be an integer, got {env!r}")
    if seed < 0:
        raise click.UsageError(f"{ENV_SEED} must be non-negative, got {env!r}")
    return seed


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except UnsatisfiableInstructionError as exc:
            click.echo(f"unsatisfiable instruction [{exc.stage}]: {exc}", err=True)
            sys.exit(3)
        except (InstructionParseError, VocabularyError) as exc:
            raise click.UsageError(str(exc))
        except SceneDiffError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _options(*options):
    def decorate(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return decorate


_sampling_options = _options(
    click.option("--bundle", "bundle_dir", required=True, type=click.Path(exists=True)),
    click.option("--out", required=True, type=click.Path()),
    click.option("--graph-steps", type=click.IntRange(min=1), default=100, show_default=True,
                 help="Diffusion steps for the graph stage."),
    click.option("--layout-steps", type=click.IntRange(min=1), default=100, show_default=True,
                 help="Diffusion steps for the layout stage."),
    click.option("--kernel", type=click.Choice(KERNELS), default=KERNEL_INDEPENDENT,
                 show_default=True, help="Forward corruption kernel."),
    click.option("--leak", type=click.FloatRange(min=0), default=0.01, show_default=True,
                 help="Uniform label leak of the masking kernels."),
    click.option("--seed", type=click.IntRange(min=0), default=None,
                 help=f"RNG seed; falls back to ${ENV_SEED}, then 0."),
)
_edit_options = _options(
    click.option("--scenes", "scenes_path", required=True, type=click.Path(exists=True)),
    click.option("--index", type=int, default=0, show_default=True),
)


def _sample(draw, *, bundle_dir, out, graph_steps, layout_steps, kernel, leak, seed,
            what=None, **meta):
    """Build the pipeline, ``draw(pipe, rng)`` the scenes, and save them with
    the seed and ``meta``; ``what`` names the output on stdout."""
    seed = _resolve_seed(seed)
    gen = GenerationConfig(graph_steps=graph_steps, layout_steps=layout_steps, kernel=kernel,
                           leak=leak)
    pipe = ScenePipeline(load_bundle(Path(bundle_dir)), gen)
    scenes = draw(pipe, np.random.default_rng(seed))
    save_scenes(scenes, out, meta={"seed": seed, **meta})
    click.echo(f"wrote {what or f'{len(scenes)} scenes'} to {out}")


def _pick_scene(path: str, index: int, config: SceneConfig):
    """Scene ``index`` of a scene file; FormatError unless it fits ``config``."""
    scenes = load_scenes(path)
    if not 0 <= index < len(scenes):
        raise click.UsageError(f"scene index {index} outside 0..{len(scenes) - 1}")
    try:
        check_scenes_fit([scenes[index]], config)
    except ValueError as exc:
        raise FormatError(f"{path}: scene {index} does not fit the bundle: {exc}") from exc
    return scenes[index]


@click.group()
def main():
    """Instruction-driven scene synthesis with exact desk-scale models."""


@main.command("make-dataset")
@click.option("--out", required=True, type=click.Path(), help="Bundle directory to write.")
@click.option("--family", type=click.Choice(["toy", "random"]), default="toy",
              show_default=True)
@click.option("--n-scenes", type=click.IntRange(min=1), default=50, show_default=True,
              help="Scene count for the random family.")
@click.option("--seed", type=click.IntRange(min=0), default=None)
@_guarded
def make_dataset(out, family, n_scenes, seed):
    """Generate a dataset bundle with style-clustered features."""
    seed = _resolve_seed(seed)
    if family == "toy":
        bundle = toy_support(seed=seed)
    else:
        config = SceneConfig(
            category_names=("table", "chair", "lamp", "shelf", "sofa", "desk"),
            k_f=3,
            n_f=4,
            n_max=6,
            d=16,
            style_names=("oak", "walnut", "steel"),
        )
        bundle = generate_dataset(config, n_scenes, seed=seed)
    save_bundle(bundle, out)
    click.echo(f"wrote {bundle.n_scenes} scenes to {out}")


@main.command()
@click.option("--instruction", default=None, help="Instruction text; omit for unconditional.")
@click.option("--n", type=click.IntRange(min=1), default=1, show_default=True)
@_sampling_options
@_guarded
def generate(instruction, n, **opts):
    """Sample scenes, optionally conditioned on an instruction."""
    _sample(lambda pipe, rng: pipe.generate(instruction, rng=rng, n=n),
            instruction=instruction, **opts)


@main.command()
@click.option("--n", type=click.IntRange(min=1), default=1, show_default=True)
@_sampling_options
@_guarded
def uncond(n, **opts):
    """Sample scenes from the unconditional prior."""
    _sample(lambda pipe, rng: pipe.unconditional(rng=rng, n=n), **opts)


@main.command()
@_edit_options
@click.option("--instruction", default=None)
@_sampling_options
@_guarded
def complete(scenes_path, index, instruction, **opts):
    """Extend a partial scene; existing objects are kept bit-identical."""
    _sample(lambda pipe, rng: [pipe.complete(_pick_scene(scenes_path, index, pipe.config),
                                             instruction, rng=rng)],
            what="completed scene", instruction=instruction, **opts)


@main.command()
@_edit_options
@click.option("--instruction", default=None)
@_sampling_options
@_guarded
def rearrange(scenes_path, index, instruction, **opts):
    """Re-place the scene's objects; identities and sizes are preserved."""
    _sample(lambda pipe, rng: [pipe.rearrange(_pick_scene(scenes_path, index, pipe.config),
                                              instruction, rng=rng)],
            what="rearranged scene", instruction=instruction, **opts)


@main.command()
@_edit_options
@click.option("--style", required=True, help="Style name from the bundle config.")
@_sampling_options
@_guarded
def stylize(scenes_path, index, style, **opts):
    """Restyle the scene's objects; geometry is preserved."""
    _sample(lambda pipe, rng: [pipe.stylize(_pick_scene(scenes_path, index, pipe.config),
                                            style, rng=rng)],
            what="stylized scene", style=style, **opts)


@main.command("eval")
@click.option("--bundle", "bundle_dir", required=True, type=click.Path(exists=True))
@click.option("--scenes", "scenes_path", required=True, type=click.Path(exists=True))
@click.option("--instruction", required=True)
@click.option("--out", type=click.Path(), default=None, help="Optional JSON report path.")
@_guarded
def eval_cmd(bundle_dir, scenes_path, instruction, out):
    """Report instruction recall for saved scenes."""
    bundle = load_bundle(Path(bundle_dir))
    scenes = load_scenes(scenes_path)
    instr = parse_instruction(instruction, bundle.config)
    report = evaluate_scenes(scenes, instr, bundle.config, bundle.codebook,
                             text=instruction)
    click.echo(report.to_json())
    if out is not None:
        write_text(out, report.to_json() + "\n")


@main.command("render-svg")
@click.option("--bundle", "bundle_dir", required=True, type=click.Path(exists=True))
@click.option("--scenes", "scenes_path", required=True, type=click.Path(exists=True))
@click.option("--index", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_guarded
def render_svg_cmd(bundle_dir, scenes_path, index, out):
    """Render one saved scene to a top-down SVG."""
    bundle = load_bundle(Path(bundle_dir))
    scene = _pick_scene(scenes_path, index, bundle.config)
    write_text(out, render_svg(scene, bundle.config))
    click.echo(f"wrote {out}")


@main.command("schedule-dump")
@click.option("--bundle", "bundle_dir", required=True, type=click.Path(exists=True))
@click.option("--steps", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--kernel", type=click.Choice(KERNELS), default=KERNEL_INDEPENDENT,
              show_default=True)
@click.option("--leak", type=click.FloatRange(min=0), default=0.01, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Optional JSON path.")
@_guarded
def schedule_dump(bundle_dir, steps, kernel, leak, out):
    """Dump the per-kind schedule parameters and terminal checksums."""
    bundle = load_bundle(Path(bundle_dir))
    payload = schedule_to_json(build_graph_schedule(bundle.config, steps, kernel, leak=leak))
    if out is None:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        dump_json(payload, out)
        click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
