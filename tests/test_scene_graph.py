"""Scene containers, layout codecs, and semantic graph structure."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenediff.graph import (
    SemanticGraph,
    canonical_order,
    canonicalize_scene,
    derive_semantic_graph,
    empty_state,
    mask_state,
    pad_graph,
    permute_graph,
)
from scenediff.relations import RelationLabel, inverse_relation, pair_index
from scenediff.scene import (
    LAYOUT_COLUMNS,
    LAYOUT_DIM,
    ObjectInstance,
    Scene,
    layout_row_to_pose,
    normalize_angle,
    scene_to_layout,
)


def _obj(category=0, location=(0.0, 0.0, 0.2), size=(0.4, 0.4, 0.4),
         rotation=0.0, feature=(0.0, 0.0)):
    return ObjectInstance(category=category, location=location, size=size,
                          rotation=rotation, feature=np.asarray(feature))


def test_normalize_angle():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.pi) == -math.pi
    assert normalize_angle(-math.pi) == -math.pi
    assert normalize_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert normalize_angle(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
    for r in np.linspace(-10.0, 10.0, 41):
        w = normalize_angle(r)
        assert -math.pi <= w < math.pi
        assert math.isclose(math.cos(w), math.cos(r), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(r), abs_tol=1e-12)


def test_object_instance_validation():
    obj = _obj(rotation=3.0 * math.pi / 2.0)
    assert obj.rotation == pytest.approx(-math.pi / 2.0)
    with pytest.raises(ValueError):
        obj.feature[0] = 5.0
    with pytest.raises(ValueError):
        _obj(category=-1)
    with pytest.raises(ValueError):
        _obj(size=(0.4, 0.0, 0.4))
    with pytest.raises(ValueError):
        _obj(location=(1.0, 2.0))


def test_scene_needs_an_object():
    with pytest.raises(ValueError):
        Scene(id="empty", objects=())
    scene = Scene(id="one", objects=(_obj(),))
    assert scene.n_objects == 1


def test_layout_roundtrip():
    assert len(LAYOUT_COLUMNS) == LAYOUT_DIM == 8
    objs = (
        _obj(location=(1.0, -2.0, 0.3), size=(0.5, 0.6, 0.7), rotation=1.2),
        _obj(location=(-0.25, 0.125, 0.0625), size=(1.0, 2.0, 3.0), rotation=-2.9),
    )
    layout = scene_to_layout(Scene(id="s", objects=objs))
    assert layout.shape == (2, 8)
    for row, obj in zip(layout, objs):
        loc, size, rot = layout_row_to_pose(row)
        assert loc == obj.location
        assert size == obj.size
        assert math.isclose(rot, obj.rotation, abs_tol=1e-12)
        assert math.isclose(row[6] ** 2 + row[7] ** 2, 1.0, abs_tol=1e-12)


def test_layout_row_pose_clamps_sizes():
    row = np.array([0.0, 0.0, 0.0, -1.0, 0.0, 2.0, 1.0, 0.0])
    _, size, _ = layout_row_to_pose(row)
    assert size == (1e-3, 1e-3, 2.0)
    with pytest.raises(ValueError):
        layout_row_to_pose(np.zeros(7))


def _graph(cats, codes, rels, k_c=3, k_f=2, k_e=11):
    return SemanticGraph(np.asarray(cats), np.asarray(codes), np.asarray(rels),
                         k_c=k_c, k_f=k_f, k_e=k_e)


def test_graph_validation():
    g = _graph([0, 2, 3], [[1, 0], [0, 1], [2, 2]], [4, 11, 11])
    assert g.n_slots == 3 and g.n_f == 2
    assert g.n_objects == 2
    assert not g.has_mask()
    masked = _graph([0, 4, 3], [[1, 0], [0, 1], [2, 2]], [4, 11, 11])
    assert masked.has_mask()
    with pytest.raises(ValueError):
        _graph([0, 5, 3], [[1, 0], [0, 1], [2, 2]], [4, 11, 11])
    with pytest.raises(ValueError):
        _graph([0, 1], [[1, 0]], [4])
    with pytest.raises(ValueError):
        _graph([0, 1], [[1, 0], [0, 1]], [4, 4])
    with pytest.raises(ValueError):
        g.categories[0] = 1


def test_graph_relation_lookup_inverts():
    rels = [int(RelationLabel.LEFT_OF), int(RelationLabel.ABOVE), 11]
    g = _graph([0, 1, 3], [[0, 0], [1, 1], [2, 2]], rels)
    assert g.relation(0, 1) == int(RelationLabel.LEFT_OF)
    assert g.relation(1, 0) == int(RelationLabel.RIGHT_OF)
    assert g.relation(0, 2) == int(RelationLabel.ABOVE)
    assert g.relation(2, 0) == int(RelationLabel.BELOW)
    # Empty stays empty regardless of direction.
    assert g.relation(1, 2) == 11
    assert g.relation(2, 1) == 11
    with pytest.raises(ValueError):
        g.relation(1, 1)


def test_empty_consistency():
    e_c, e_f, e_e = empty_state(3), empty_state(2), empty_state(11)
    good = _graph([0, 1, e_c], [[0, 1], [1, 0], [e_f, e_f]],
                  [int(RelationLabel.BEHIND), e_e, e_e])
    assert good.empty_consistent()
    # A real slot must carry real codes.
    assert not _graph([0, 1, e_c], [[0, e_f], [1, 0], [e_f, e_f]],
                      [int(RelationLabel.BEHIND), e_e, e_e]).empty_consistent()
    # An empty slot cannot keep a real relation.
    assert not _graph([0, 1, e_c], [[0, 1], [1, 0], [e_f, e_f]],
                      [int(RelationLabel.BEHIND), 3, e_e]).empty_consistent()
    # Two real slots need a real relation, not empty.
    assert not _graph([0, 1, e_c], [[0, 1], [1, 0], [e_f, e_f]],
                      [e_e, e_e, e_e]).empty_consistent()
    # Mask states are never clean.
    assert not _graph([0, 1, mask_state(3)], [[0, 1], [1, 0], [e_f, e_f]],
                      [int(RelationLabel.BEHIND), e_e, e_e]).empty_consistent()


def test_graph_equality_and_hash():
    a = _graph([0, 1], [[0, 1], [1, 0]], [4])
    b = _graph([0, 1], [[0, 1], [1, 0]], [4])
    c = _graph([0, 1], [[0, 1], [1, 1]], [4])
    d = _graph([0, 1], [[0, 1], [1, 0]], [4], k_c=4)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != d
    seen = {a: "first"}
    assert seen[b] == "first"
    assert a.key() == b.key()
    assert a.key() != c.key()


def test_pad_graph():
    g = _graph([1, 0], [[0, 1], [1, 0]], [int(RelationLabel.CLOSELY_BEHIND)])
    padded = pad_graph(g, 4)
    assert padded.n_slots == 4
    assert padded.categories.tolist() == [1, 0, 3, 3]
    assert padded.relations[pair_index(0, 1, 4)] == int(RelationLabel.CLOSELY_BEHIND)
    assert padded.empty_consistent()
    assert pad_graph(padded, 4) is padded
    with pytest.raises(ValueError):
        pad_graph(padded, 3)


def test_permute_graph_moves_relations():
    rels = [int(RelationLabel.LEFT_OF), int(RelationLabel.IN_FRONT_OF),
            int(RelationLabel.CLOSELY_BEHIND)]
    g = _graph([0, 1, 2], [[0, 0], [1, 1], [0, 1]], rels)
    perm = [2, 0, 1]
    p = permute_graph(g, perm)
    assert p.categories.tolist() == [1, 2, 0]
    for j in range(3):
        for k in range(3):
            if j != k:
                assert p.relation(perm[j], perm[k]) == g.relation(j, k)
    # Applying the inverse permutation restores the original graph.
    inverse = np.argsort(np.asarray(perm))
    assert permute_graph(p, inverse) == g
    assert permute_graph(g, [0, 1, 2]) == g
    with pytest.raises(ValueError):
        permute_graph(g, [0, 0, 2])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_permute_graph_keeps_every_directed_relation(data):
    # Real slots first, then empty ones; real pairs draw any label up to none.
    n = data.draw(st.integers(2, 6), label="n")
    n_real = data.draw(st.integers(1, n), label="n_real")
    real = st.integers(0, 2)
    cats = [data.draw(real) for _ in range(n_real)] + [empty_state(3)] * (n - n_real)
    codes = [[data.draw(st.integers(0, 1)) for _ in range(2)] if j < n_real
             else [empty_state(2)] * 2 for j in range(n)]
    rels = [data.draw(st.integers(0, int(RelationLabel.NONE))) if k < n_real
            else empty_state(11) for j in range(n) for k in range(j + 1, n)]
    g = _graph(cats, codes, rels)
    perm = data.draw(st.permutations(range(n)), label="perm")
    p = permute_graph(g, perm)
    for j in range(n):
        for k in range(n):
            if j != k:
                assert p.relation(perm[j], perm[k]) == g.relation(j, k)


def test_canonical_order_sorts_by_category_then_position():
    objs = (
        _obj(category=2, location=(0.0, 0.0, 0.2)),
        _obj(category=0, location=(1.0, 0.0, 0.2)),
        _obj(category=0, location=(-1.0, 0.0, 0.2)),
    )
    scene = Scene(id="s", objects=objs)
    perm = canonical_order(scene)
    # Category 0 objects first (x = -1 before x = 1), category 2 last.
    assert perm.tolist() == [2, 1, 0]
    canon = canonicalize_scene(scene)
    assert [o.category for o in canon.objects] == [0, 0, 2]
    assert canon.objects[0].location[0] == -1.0
    assert canonicalize_scene(canon).objects == canon.objects


def test_derive_graph_invariant_to_input_order(toy):
    scene = toy.scenes[0]
    shuffled = Scene(id=scene.id, objects=tuple(reversed(scene.objects)))
    g_direct = derive_semantic_graph(canonicalize_scene(scene), toy.codebook, toy.config)
    g_shuffled = derive_semantic_graph(canonicalize_scene(shuffled), toy.codebook, toy.config)
    assert g_direct == g_shuffled


def test_derive_graph_checks_vocabulary(toy):
    scene = toy.scenes[0]
    bad = Scene(id="bad", objects=(
        ObjectInstance(category=toy.config.k_c, location=(0.0, 0.0, 0.2),
                       size=(0.4, 0.4, 0.4), rotation=0.0,
                       feature=np.zeros(toy.config.d)),
    ))
    with pytest.raises(ValueError):
        derive_semantic_graph(bad, toy.codebook, toy.config)
    short = Scene(id="short", objects=(
        ObjectInstance(category=0, location=(0.0, 0.0, 0.2), size=(0.4, 0.4, 0.4),
                       rotation=0.0, feature=np.zeros(toy.config.d + 1)),
    ))
    with pytest.raises(ValueError):
        derive_semantic_graph(short, toy.codebook, toy.config)
    derived = derive_semantic_graph(scene, toy.codebook, toy.config)
    assert pad_graph(derived, toy.config.n_max) in toy.graphs
