"""Instruction-driven scene synthesis with exact desk-scale diffusion models.

Two stages: a discrete absorbing-mask diffusion prior over semantic scene
graphs (categories, quantized appearance codes, pairwise spatial relations)
and a Gaussian diffusion decoder from graphs to continuous layouts. Both
stages use exact empirical-Bayes denoisers over procedurally generated
datasets, so every probabilistic component can be verified against closed
forms or enumeration.
"""

from .config import N_RELATION_LABELS, SceneConfig
from .datagen import (
    Asset,
    AssetLibrary,
    DatasetBundle,
    generate_dataset,
    toy_instructions,
    toy_support,
)
from .errors import (
    DatasetError,
    FormatError,
    InstructionParseError,
    MissingStyleCodesError,
    OutputError,
    SceneDiffError,
    SupportError,
    UnknownStyleError,
    UnsatisfiableInstructionError,
    VocabularyError,
)
from .evaluation import (
    EvalReport,
    empirical_distribution,
    evaluate_scenes,
    irecall,
    style_match_rate,
    tv_distance,
)
from .graph import (
    GraphArrays,
    SemanticGraph,
    canonical_order,
    canonicalize_scene,
    derive_semantic_graph,
    empty_state,
    mask_state,
    pad_graph,
    permute_graph,
)
from .graph_diffusion import (
    KERNEL_GAUSSIAN,
    KERNEL_INDEPENDENT,
    KERNEL_JOINT,
    KERNEL_UNIFORM,
    KERNELS,
    EmpiricalGraphDenoiser,
    FrozenGraph,
    GraphDenoiser,
    GraphSchedule,
    GuidanceConfig,
    LossWeights,
    MaskSchedule,
    UniformGraphDenoiser,
    apply_cfg,
    build_graph_schedule,
    build_schedule,
    corrupt_graph,
    forward_sample,
    model_posterior,
    reverse_sample,
    reverse_sample_batch,
    true_posterior,
    variational_bound,
)
from .instructions import (
    Instruction,
    StyleConstraint,
    instruction_matches,
    parse_instruction,
    render_instruction,
)
from .layout_diffusion import (
    ExactEpsDenoiser,
    GaussianSchedule,
    LayoutStats,
    build_gaussian_schedule,
    compute_layout_stats,
    cosine_alpha_bar,
    forward_sample_layout,
    reverse_sample_layout,
    simple_loss,
)
from .pipeline import GenerationConfig, ScenePipeline, retrieve_object
from .quantizer import Codebook, fit_codebook, reconstruction_error
from .relations import (
    RelationLabel,
    extract_relations,
    inverse_relation,
    relation_between,
    relation_labels,
)
from .scene import ObjectInstance, Scene, layout_row_to_pose, scene_to_layout
from .scene_io import load_bundle, load_scenes, save_bundle, save_scenes
from .svg_render import render_svg

__version__ = "0.1.0"
