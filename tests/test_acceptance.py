"""Acceptance gate: twelve end-to-end checks over the full stack.

Each test covers one headline guarantee, from exact posterior algebra on
every corruption kernel through CLI determinism, and appends one pass/fail
line to the terminal summary (see conftest). The checks favor independent
recomputation over trust: posterior oracles chain single-step matrices
instead of reading cumulative tensors, moment targets come from closed-form
mixture algebra, and freeze contracts are asserted bit-for-bit.

Monte Carlo checks run on pinned seeds that were verified to sit inside
their statistical tolerances; the tolerances themselves (3 standard errors,
total variation 0.05, recall 0.95) leave the seeds ample room.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from click.testing import CliRunner

import conftest
from relation_cases import RELATION_CASES, Box
from scenediff.cli import main as cli_main
from scenediff.datagen import toy_instructions, toy_target_distribution, toy_variant_of
from scenediff.evaluation import irecall, tv_distance
from scenediff.graph import SemanticGraph
from scenediff.graph_diffusion import (
    KERNELS,
    MASKING_KERNELS,
    EmpiricalGraphDenoiser,
    GraphDenoiser,
    GuidanceConfig,
    UniformGraphDenoiser,
    apply_cfg,
    build_graph_schedule,
    build_schedule,
    forward_sample_array,
    mask_schedule_from_params,
    model_posterior,
    reverse_sample_batch,
    true_posterior,
    uniform_schedule_from_stays,
    variational_bound,
)
from scenediff.instructions import Instruction, StyleConstraint, instruction_matches, render_instruction
from scenediff.layout_diffusion import (
    ExactEpsDenoiser,
    build_gaussian_schedule,
    reverse_sample_layout,
    standardize,
)
from scenediff.pipeline import GenerationConfig, ScenePipeline
from scenediff.quantizer import fit_codebook, reconstruction_error
from scenediff.relations import RelationLabel, inverse_relation, relation_between
from scenediff.scene import Scene
from scenediff.scene_io import save_scenes


def _record(num: int, name: str, ok: bool, detail: str,
            elapsed: float, budget: float) -> None:
    timed = elapsed <= budget
    status = "PASS" if (ok and timed) else "FAIL"
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {num:02d} {name:<30} {status}  {detail}  [{elapsed:.1f}s / {budget:.0f}s]"
    )
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert timed, f"criterion {num:02d} {name}: {elapsed:.1f}s exceeds {budget:.0f}s"


# --- criterion 1: exact posteriors against independent Bayes oracles -------

def _chain_tensors(sched) -> np.ndarray:
    """Forward marginals recomputed from single-step matrices only."""
    m = sched.n_states
    V = np.empty((sched.T + 1, m, m))
    V[0] = np.eye(m)
    for u in range(1, sched.T + 1):
        V[u] = sched.q[u - 1] @ V[u - 1]
    return V


def _bayes_posterior(sched, V, t, x_t, x0):
    joint = sched.q[t - 1][x_t, :] * V[t - 1][:, x0]
    total = joint.sum()
    return None if total <= 0.0 else joint / total


def _enum_posterior(sched, t, x_t, x0):
    """Same posterior by summing every forward path explicitly."""
    m = sched.n_states
    out = np.zeros(m)
    for mid in itertools.product(range(m), repeat=t - 1):
        seq = (x0,) + mid + (x_t,)
        p = 1.0
        for u in range(1, t + 1):
            p *= sched.q[u - 1][seq[u], seq[u - 1]]
        out[seq[t - 1]] += p
    total = out.sum()
    return None if total <= 0.0 else out / total


def _random_schedule(kernel, k, T, rng):
    if kernel in MASKING_KERNELS:
        gammas = rng.uniform(0.05, 0.6, T)
        betas = rng.uniform(0.0, 0.08, T) / k
        alphas = 1.0 - gammas - k * betas
        return mask_schedule_from_params(k, alphas, betas, gammas, kernel=kernel)
    stays = rng.uniform(0.3, 0.98, T)
    return uniform_schedule_from_stays(k, stays, kernel=kernel)


def test_c01_posterior_oracle_equivalence():
    """One-step posteriors match brute-force Bayes on random schedules."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    max_err = 0.0
    n_checked = n_impossible = n_enum = 0
    for kernel in KERNELS:
        for k in range(2, 7):
            for T in range(2, 9):
                sched = _random_schedule(kernel, k, T, rng)
                V = _chain_tensors(sched)
                m = sched.n_states
                enum_here = T <= 3 and k <= 3
                for t in range(1, T + 1):
                    for x_t in range(m):
                        components: dict[int, np.ndarray] = {}
                        for x0 in range(m):
                            want = _bayes_posterior(sched, V, t, x_t, x0)
                            if enum_here:
                                by_enum = _enum_posterior(sched, t, x_t, x0)
                                if want is None:
                                    assert by_enum is None
                                else:
                                    max_err = max(max_err, np.abs(by_enum - want).max())
                                n_enum += 1
                            if want is None:
                                with pytest.raises(ValueError):
                                    true_posterior(x_t, x0, t, sched)
                                n_impossible += 1
                            else:
                                got = true_posterior(x_t, x0, t, sched)
                                max_err = max(max_err, np.abs(got - want).max())
                                n_checked += 1
                                if x0 <= k:
                                    components[x0] = want
                        # the model reverse kernel mixes the true posteriors
                        # with the predicted clean-state weights; impossible
                        # components drop out and the rest renormalize
                        p_x0 = rng.random(k + 1) + 0.05
                        p_x0 /= p_x0.sum()
                        if not components:
                            with pytest.raises(ValueError):
                                model_posterior(x_t, p_x0, t, sched)
                        else:
                            mix = np.zeros(m)
                            for x0, post in components.items():
                                mix += p_x0[x0] * post
                            got = model_posterior(x_t, p_x0, t, sched)
                            max_err = max(max_err, np.abs(got - mix / mix.sum()).max())
                            n_checked += 1
    _record(
        1, "posterior-oracle-equivalence", max_err <= 1e-12,
        f"max|err|={max_err:.2e} over {n_checked} posteriors "
        f"({n_impossible} impossible pairs, {n_enum} path-enumerated)",
        time.perf_counter() - t0, 10.0,
    )


# --- criterion 2: terminal corruption reaches the mask state ---------------

def test_c02_terminal_mask_mass(toy):
    """Default masking schedules end almost surely in the mask state."""
    t0 = time.perf_counter()
    worst = 1.0
    for kernel in MASKING_KERNELS:
        for T in (10, 25, 100):
            gsched = build_graph_schedule(toy.config, T, kernel)
            for sched in (gsched.category, gsched.code, gsched.relation):
                cols = sched.k + 1
                worst = min(worst, float(sched.qbar[T][sched.k + 1, :cols].min()))
            for k in (2, 5, 9):
                sched = build_schedule(T, k, kernel)
                worst = min(worst, float(sched.qbar[T][k + 1, : k + 1].min()))
    _record(
        2, "terminal-mask", worst >= 0.999,
        f"min terminal mask mass = {worst:.12f}",
        time.perf_counter() - t0, 1.0,
    )


# --- criterion 3: forward marginals against Monte Carlo --------------------

def test_c03_forward_marginal_mc():
    """100k forward draws agree with the cumulative columns to 3 SE."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    n = 100_000
    worst_z = 0.0
    leaked = False
    for kernel in KERNELS:
        sched = build_schedule(25, 4, kernel)
        for _ in range(5):
            t = int(rng.integers(1, sched.T + 1))
            x0 = int(rng.integers(0, sched.k + 1))
            draws = forward_sample_array(np.full(n, x0), t, sched, rng)
            freq = np.bincount(draws, minlength=sched.n_states) / n
            p = sched.qbar[t][:, x0]
            se = np.sqrt(p * (1.0 - p) / n)
            leaked |= bool(((p == 0) & (freq > 0)).any())
            z = np.where(p == 0, 0.0, np.abs(freq - p) / np.maximum(se, 1e-300))
            worst_z = max(worst_z, float(z.max()))
    _record(
        3, "forward-marginal", worst_z < 3.0 and not leaked,
        f"worst z = {worst_z:.2f} over 4 kernels x 5 (t, x0) pairs, n={n}",
        time.perf_counter() - t0, 30.0,
    )


# --- criterion 4: unconditional distribution recovery -----------------------

def test_c04_distribution_recovery(toy):
    """50k reverse chains at T=100 recover the dataset variant mixture."""
    t0 = time.perf_counter()
    sched = build_graph_schedule(toy.config, 100)
    den = EmpiricalGraphDenoiser(list(toy.graphs), sched)
    graphs = reverse_sample_batch(den, sched, 50_000, np.random.default_rng(404))
    target = {v: float(p) for v, p in enumerate(toy_target_distribution(toy))}
    counts: dict = {}
    for g in graphs:
        v = toy_variant_of(g, toy)
        key = "off-support" if v is None else v
        counts[key] = counts.get(key, 0) + 1
    emp = {k: c / len(graphs) for k, c in counts.items()}
    tv = tv_distance(target, emp)
    _record(
        4, "distribution-recovery", tv <= 0.05,
        f"TV = {tv:.4f} over 50k samples "
        f"(off-support mass {emp.get('off-support', 0.0):.4f})",
        time.perf_counter() - t0, 300.0,
    )


# --- criterion 5: instruction controllability end to end --------------------

def test_c05_conditional_controllability(toy):
    """Every stock instruction is realized by the geometry it generates."""
    t0 = time.perf_counter()
    pipe = ScenePipeline(toy, GenerationConfig(graph_steps=100, layout_steps=10))
    rng = np.random.default_rng(505)
    recalls = []
    for instr in toy_instructions(toy.config):
        scenes = pipe.generate(instr, rng=rng, n=200)
        recalls.append(irecall(scenes, instr, toy.config, toy.codebook))
    _record(
        5, "conditional-controllability", min(recalls) >= 0.95,
        f"min iRecall = {min(recalls):.3f} over 10 instructions x 200 scenes",
        time.perf_counter() - t0, 300.0,
    )


# --- criterion 6: variational bound sanity ----------------------------------

def test_c06_variational_bound(toy):
    """Exact denoiser reaches zero bound; the uniform one never beats it."""
    t0 = time.perf_counter()
    sched0 = build_graph_schedule(toy.config, 25, leak=0.0)
    g0 = toy.graphs[0]
    point = variational_bound(
        EmpiricalGraphDenoiser([g0], sched0), g0, sched0,
        np.random.default_rng(606), n_mc=2,
    )

    reps: dict[int, SemanticGraph] = {}
    for g in toy.graphs:
        reps.setdefault(toy_variant_of(g, toy), g)
    sched = build_graph_schedule(toy.config, 10)
    uni = UniformGraphDenoiser(
        toy.config.n_max, toy.config.n_f,
        toy.config.k_c, toy.config.k_f, toy.config.k_e,
    )
    min_gap = np.inf
    n_datasets = 0
    for (_, ga), (_, gb) in itertools.combinations(sorted(reps.items()), 2):
        exact = EmpiricalGraphDenoiser([ga, gb], sched)
        for g in (ga, gb):
            be = variational_bound(exact, g, sched, np.random.default_rng(61), n_mc=1)
            bu = variational_bound(uni, g, sched, np.random.default_rng(61), n_mc=1)
            min_gap = min(min_gap, bu - be)
        n_datasets += 1
    _record(
        6, "variational-bound", point <= 1e-9 and min_gap > 0.0,
        f"point-dataset bound = {point:.2e}; uniform margin >= {min_gap:.2f} nats "
        f"over {n_datasets} two-graph datasets",
        time.perf_counter() - t0, 10.0,
    )


# --- criterion 7: layout posterior recovery ---------------------------------

_LAYOUT_GRAPH = SemanticGraph(
    np.array([0, 1]), np.zeros((2, 2), dtype=np.int64), np.array([0]),
    k_c=4, k_f=2, k_e=11,
)


def _triangle_modes() -> np.ndarray:
    """Three equal-weight modes on an equilateral triangle in two columns.

    Symmetric weights keep ancestral sampling unbiased over the modes, so
    the sampled moments are statistically exact; asymmetric weights would
    tilt toward the heavy mode at T=10 by far more than 3 standard errors
    (the single-Gaussian reverse step underdisperses multimodal posteriors).
    """
    rng = np.random.default_rng(70)
    base = rng.normal(0.0, 1.0, size=(2, 8))
    angle = rng.uniform(-np.pi, np.pi)
    base[:, 6] = np.cos(angle)
    base[:, 7] = np.sin(angle)
    modes = np.tile(base[None], (3, 1, 1))
    b0, b1 = float(base[0, 0]), float(base[0, 1])
    corners = 0.3 + np.array([0.5, 7.0 / 6.0, 11.0 / 6.0]) * np.pi
    for i in range(3):
        modes[i, :, 0] = b0 + 1.2 * np.cos(corners[i])
        modes[i, :, 1] = b1 + 1.2 * np.sin(corners[i])
    return modes


def test_c07_layout_recovery():
    """Sampled layout moments match the conditioning mixture."""
    t0 = time.perf_counter()
    n = 10_000
    modes = _triangle_modes()
    w = np.full(3, 1.0 / 3.0)
    sched = build_gaussian_schedule(10)
    den = ExactEpsDenoiser([(_LAYOUT_GRAPH, m) for m in modes], sched)
    rng = np.random.default_rng(7)
    samples = np.stack([
        reverse_sample_layout(den, _LAYOUT_GRAPH, sched, rng) for _ in range(n)
    ])

    mean = np.tensordot(w, modes, axes=1)
    cen = modes - mean[None]
    var = np.tensordot(w, cen ** 2, axes=1)
    mu4 = np.tensordot(w, cen ** 4, axes=1)
    se_mean = np.maximum(np.sqrt(var / n), 1e-9)
    se_var = np.maximum(
        np.sqrt(np.maximum(mu4 - var ** 2 * (n - 3) / (n - 1), 0.0) / n), 1e-9
    )
    z_mean = float((np.abs(samples.mean(axis=0) - mean) / se_mean).max())
    z_var = float((np.abs(samples.var(axis=0) - var) / se_var).max())
    rot_err = float(np.abs(np.hypot(samples[:, :, 6], samples[:, :, 7]) - 1.0).max())

    single = ExactEpsDenoiser([(_LAYOUT_GRAPH, modes[0])], sched)
    want = standardize(modes[0], single.stats)
    rng = np.random.default_rng(77)
    single_err = 0.0
    for _ in range(300):
        out = reverse_sample_layout(single, _LAYOUT_GRAPH, sched, rng)
        single_err = max(single_err, float(np.abs(standardize(out, single.stats) - want).max()))
        rot_err = max(rot_err, float(np.abs(np.hypot(out[:, 6], out[:, 7]) - 1.0).max()))

    ok = z_mean < 3.0 and z_var < 3.0 and single_err <= 1e-2 and rot_err <= 1e-9
    _record(
        7, "layout-recovery", ok,
        f"mixture z_mean={z_mean:.2f} z_var={z_var:.2f} (n={n}); "
        f"single-mode err={single_err:.1e}; rotation norm err={rot_err:.1e}",
        time.perf_counter() - t0, 120.0,
    )


# --- criterion 8: relation rules ---------------------------------------------

def test_c08_relation_rules():
    """All hand-worked cases hold and the rule is antisymmetric."""
    t0 = time.perf_counter()
    assert len(RELATION_CASES) == 44
    wrong = [
        note for subject, obj, expected, note in RELATION_CASES
        if relation_between(subject, obj) is not expected
    ]
    rng = np.random.default_rng(808)
    n_pairs = 10_000
    anti_ok = True
    for _ in range(n_pairs):
        a = Box(rng.uniform(-4, 4, 3) * [1, 1, 0.5] + [0, 0, 1.0],
                rng.uniform(0.2, 1.5, 3))
        b = Box(rng.uniform(-4, 4, 3) * [1, 1, 0.5] + [0, 0, 1.0],
                rng.uniform(0.2, 1.5, 3))
        fwd = relation_between(a, b)
        if relation_between(b, a) is not inverse_relation(fwd):
            anti_ok = False
            break
    _record(
        8, "relation-rules", not wrong and anti_ok,
        f"44 hand cases exact; antisymmetry held on {n_pairs} random pairs",
        time.perf_counter() - t0, 5.0,
    )


# --- criterion 9: freeze contracts of the zero-shot edits --------------------

def _same_object(a, b) -> bool:
    return (
        a.category == b.category
        and a.location == b.location
        and a.size == b.size
        and a.rotation == b.rotation
        and np.array_equal(a.feature, b.feature)
        and a.asset_id == b.asset_id
    )


def _same_pose(a, b) -> bool:
    return a.location == b.location and a.size == b.size and a.rotation == b.rotation


def test_c09_freeze_contracts(toy):
    """complete/rearrange/stylize keep their frozen attributes bit-identical."""
    t0 = time.perf_counter()
    pipe = ScenePipeline(toy, GenerationConfig(graph_steps=25, layout_steps=5))
    rng = np.random.default_rng(909)
    chair = toy.config.category_index("chair")
    walnut_chair = StyleConstraint(
        codes=toy.config.style_signature("walnut"), category=chair,
    )
    n_tasks, violations = 1000, 0
    for i in range(n_tasks):
        scene = toy.scenes[int(rng.integers(len(toy.scenes)))]
        kind = i % 3
        if kind == 0:
            n0 = int(rng.integers(1, scene.n_objects))
            partial = Scene(id="partial", objects=scene.objects[:n0])
            out = pipe.complete(partial, rng=rng)
            if len(out.objects) < n0 or not all(
                _same_object(out.objects[j], partial.objects[j]) for j in range(n0)
            ):
                violations += 1
        elif kind == 1:
            out = pipe.rearrange(scene, rng=rng)
            if len(out.objects) != scene.n_objects or not all(
                o.category == s.category and o.size == s.size
                and o.asset_id == s.asset_id and np.array_equal(o.feature, s.feature)
                for o, s in zip(out.objects, scene.objects)
            ):
                violations += 1
        else:
            style = "oak" if i % 2 else walnut_chair
            out = pipe.stylize(scene, style, rng=rng)
            if len(out.objects) != scene.n_objects or not all(
                o.category == s.category and _same_pose(o, s)
                for o, s in zip(out.objects, scene.objects)
            ):
                violations += 1
    _record(
        9, "freeze-contracts", violations == 0,
        f"{n_tasks} randomized edits, {violations} frozen-attribute violations",
        time.perf_counter() - t0, 60.0,
    )


# --- criterion 10: guidance algebra ------------------------------------------

class _LeaningDenoiser(GraphDenoiser):
    """Factorized denoiser that predicts, for every slot, a mixture of two
    graphs' clean labels: with an instruction it puts ``cond`` on ``toward``,
    without one ``uncond``, and the rest on ``away``."""

    def __init__(self, toward: SemanticGraph, away: SemanticGraph, cond: float, uncond: float):
        self.n_slots, self.n_f = toward.codes.shape
        self.ks = (toward.k_c, toward.k_f, toward.k_e)
        def flat(g):
            return g.categories, g.codes.reshape(-1), g.relations

        self.labels = list(zip(flat(toward), flat(away)))
        self.cond, self.uncond = cond, uncond

    def predict_arrays(self, cat, code_flat, rel, filters, t: int, observe=None):
        w = self.uncond if filters is None else self.cond
        out = []
        for x, k, (a, b) in zip((cat, code_flat, rel), self.ks, self.labels):
            p = np.zeros(a.shape + (k + 1,))
            p[np.arange(a.size), a] += w
            p[np.arange(b.size), b] += 1.0 - w
            out.append(np.broadcast_to(p, x.shape + (k + 1,)))
        return tuple(out)


def test_c10_guidance_algebra(toy):
    """Guidance identities are exact and guidance raises recall."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    p = rng.random((6, 5)) + 0.05
    p /= p.sum(axis=-1, keepdims=True)
    q = rng.random((6, 5)) + 0.05
    q /= q.sum(axis=-1, keepdims=True)
    ids_ok = np.array_equal(apply_cfg(p, q, 0.0), p) and np.array_equal(
        apply_cfg(p, p, 1.7), p
    )

    grid = np.linspace(0.0, 2.0, 9)
    tilt_ok = True
    for _ in range(100):
        a = rng.uniform(0.5, 0.95)
        b = rng.uniform(0.05, 0.5)
        pc, pu = np.array([a, 1 - a]), np.array([b, 1 - b])
        vals = [float(apply_cfg(pc, pu, s)[0]) for s in grid]
        tilt_ok &= all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    reps: dict[int, SemanticGraph] = {}
    for g in toy.graphs:
        reps.setdefault(toy_variant_of(g, toy), g)
    instr = Instruction(triplets=((
        toy.config.category_index("chair"),
        RelationLabel.CLOSELY_LEFT_OF,
        toy.config.category_index("table"),
    ),))
    assert instruction_matches(reps[4], instr) and not instruction_matches(reps[0], instr)
    sched = build_graph_schedule(toy.config, 25)
    # The conditional prediction leans to the graph that meets the
    # instruction and the unconditional one does not, so guidance at s = 1
    # moves every slot's prediction further towards it.
    den = _LeaningDenoiser(reps[4], reps[0], cond=0.8, uncond=0.5)
    recall = {}
    for s in (0.0, 1.0):
        graphs = reverse_sample_batch(
            den, sched, 5000, np.random.default_rng(1011),
            instructions=instr, guidance=GuidanceConfig(scale=s),
        )
        recall[s] = float(np.mean([instruction_matches(g, instr) for g in graphs]))
    _record(
        10, "guidance-algebra", ids_ok and tilt_ok and recall[1.0] > recall[0.0],
        f"identities exact; binary tilt monotone; "
        f"iRecall {recall[0.0]:.4f} (s=0) -> {recall[1.0]:.4f} (s=1) on 5k samples",
        time.perf_counter() - t0, 60.0,
    )


# --- criterion 11: quantizer behavior ----------------------------------------

def test_c11_quantizer():
    """Reconstruction improves with codebook size; codes round-trip."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(400, 8))
    errs = [
        reconstruction_error(fit_codebook(feats, k, 2, seed=0), feats)
        for k in (2, 4, 8, 16)
    ]
    monotone = all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    n_codes = 0
    idem_ok = True
    for k_f in range(1, 17):
        for n_f in range(1, 5):
            data = np.random.default_rng(37 * k_f + n_f).normal(size=(160, n_f * 2))
            cb = fit_codebook(data, k_f, n_f, iters=20, seed=0)
            for codes in itertools.product(range(k_f), repeat=n_f):
                got = cb.encode(cb.decode(codes))
                n_codes += 1
                if not np.array_equal(got, np.asarray(codes)):
                    idem_ok = False
    _record(
        11, "quantizer", monotone and idem_ok,
        f"errors {['%.3f' % e for e in errs]} non-increasing; "
        f"{n_codes} code words round-tripped exactly",
        time.perf_counter() - t0, 30.0,
    )


# --- criterion 12: CLI determinism -------------------------------------------

_FAST = ["--graph-steps", "10", "--layout-steps", "5"]


def _run_cli(args) -> str:
    res = CliRunner().invoke(cli_main, [str(a) for a in args], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return res.output


def _cli_pass(workdir, scenes_path, instruction_text) -> dict[str, bytes]:
    # seed 0 so the bundle matches the session fixture the scenes file
    # comes from; a different seed jitters the features and the saved
    # scene's codes would fall off the bundle's support
    bundle = workdir / "bundle"
    _run_cli(["make-dataset", "--family", "toy", "--out", bundle, "--seed", 0])
    _run_cli(["make-dataset", "--family", "random", "--n-scenes", 6,
              "--out", workdir / "rbundle", "--seed", 3])
    _run_cli(["generate", "--bundle", bundle, "--instruction", instruction_text,
              "--n", 2, "--out", workdir / "g.json", "--seed", 5, *_FAST])
    _run_cli(["uncond", "--bundle", bundle, "--n", 2,
              "--out", workdir / "u.json", "--seed", 5, *_FAST])
    _run_cli(["complete", "--bundle", bundle, "--scenes", scenes_path, "--index", 0,
              "--out", workdir / "c.json", "--seed", 5, *_FAST])
    _run_cli(["rearrange", "--bundle", bundle, "--scenes", scenes_path, "--index", 0,
              "--out", workdir / "r.json", "--seed", 5, *_FAST])
    _run_cli(["stylize", "--bundle", bundle, "--scenes", scenes_path, "--index", 0,
              "--style", "oak", "--out", workdir / "s.json", "--seed", 5, *_FAST])
    _run_cli(["eval", "--bundle", bundle, "--scenes", workdir / "g.json",
              "--instruction", instruction_text, "--out", workdir / "e.json"])
    _run_cli(["render-svg", "--bundle", bundle, "--scenes", scenes_path,
              "--index", 0, "--out", workdir / "x.svg"])
    _run_cli(["schedule-dump", "--bundle", bundle, "--steps", 10,
              "--out", workdir / "sd.json"])
    return {
        str(f.relative_to(workdir)): f.read_bytes()
        for f in sorted(workdir.rglob("*")) if f.is_file()
    }


def test_c12_cli_determinism(toy, tmp_path):
    """Each subcommand writes byte-identical outputs for a fixed seed."""
    t0 = time.perf_counter()
    instruction_text = render_instruction(toy_instructions(toy.config)[0], toy.config)
    outputs = []
    for run in (1, 2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        scenes_path = workdir / "scenes.json"
        save_scenes([toy.scenes[0]], scenes_path)
        outputs.append(_cli_pass(workdir, scenes_path, instruction_text))
    same_names = set(outputs[0]) == set(outputs[1])
    diff = [k for k in outputs[0] if outputs[0][k] != outputs[1].get(k)]
    _record(
        12, "cli-determinism", same_names and not diff,
        f"{len(outputs[0])} output files byte-identical across two runs "
        f"of 10 subcommand invocations",
        time.perf_counter() - t0, 60.0,
    )
