"""Product quantizer tests against exact small k-means solutions."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from scenediff.quantizer import Codebook, fit_codebook, reconstruction_error


def test_two_cluster_exact_solution():
    # Four 1-d features in two well separated pairs. The optimal 2-means
    # solution is unique: centroids 0.5 and 10.5, per-feature squared error
    # 0.25, all values exactly representable.
    feats = np.array([[0.0], [1.0], [10.0], [11.0]])
    book = fit_codebook(feats, k_f=2, n_f=1, seed=0)
    assert sorted(book.entries.ravel().tolist()) == [0.5, 10.5]
    assert reconstruction_error(book, feats) == 0.25
    low = book.encode(np.array([0.0]))
    high = book.encode(np.array([11.0]))
    assert low != high
    assert book.decode(low)[0] == 0.5
    assert book.decode(high)[0] == 10.5


def test_zero_error_when_codebook_covers_support():
    rng = np.random.default_rng(7)
    centers = rng.normal(size=(3, 2)) * 5.0
    feats = np.repeat(centers, 4, axis=0)
    book = fit_codebook(feats, k_f=3, n_f=1, seed=1)
    assert reconstruction_error(book, feats) == 0.0


def test_encode_breaks_ties_toward_lowest_index():
    book = Codebook(entries=np.array([[0.0], [2.0]]), n_f=2)
    codes = book.encode(np.array([1.0, 1.0]))
    assert codes.tolist() == [0, 0]


def test_encode_matches_bruteforce_nearest():
    rng = np.random.default_rng(3)
    book = Codebook(entries=rng.normal(size=(6, 3)), n_f=4)
    for _ in range(20):
        feat = rng.normal(size=12)
        codes = book.encode(feat)
        for chunk, code in zip(feat.reshape(4, 3), codes):
            d2 = ((book.entries - chunk) ** 2).sum(axis=1)
            assert d2[code] == d2.min()
            assert code == int(np.argmin(d2))


def test_encode_decode_idempotent():
    rng = np.random.default_rng(11)
    book = Codebook(entries=rng.normal(size=(5, 2)), n_f=3)
    for codes in itertools.product(range(5), repeat=3):
        codes = np.array(codes)
        rec = book.decode(codes)
        again = book.decode(book.encode(rec))
        assert np.array_equal(rec, again)


def test_reconstruction_error_monotone_in_codebook_size():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(32, 8))
    errs = [reconstruction_error(fit_codebook(feats, k_f=k, n_f=4, seed=0), feats)
            for k in (2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[0] > errs[-1]


def test_reconstruction_error_matches_the_row_loop(toy):
    book = toy.codebook
    feats = np.stack([o.feature for s in toy.scenes for o in s.objects]
                     + [a.feature for a in toy.library])
    want = sum(float(((row - book.decode(book.encode(row))) ** 2).sum())
               for row in feats) / feats.shape[0]
    assert want > 0.0
    assert reconstruction_error(book, feats) == pytest.approx(want, rel=0.0, abs=1e-12)
    with pytest.raises(ValueError):
        reconstruction_error(book, feats[:, :-1])


def test_fit_is_deterministic():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(20, 6))
    a = fit_codebook(feats, k_f=4, n_f=2, seed=9)
    b = fit_codebook(feats, k_f=4, n_f=2, seed=9)
    assert np.array_equal(a.entries, b.entries)
    assert a.n_f == b.n_f == 2


def test_shapes_and_properties():
    book = Codebook(entries=np.zeros((4, 3)), n_f=2)
    assert book.k_f == 4 and book.d_z == 3 and book.d == 6
    assert np.array_equal(book.encode(np.zeros(6)), [0, 0])
    assert np.array_equal(book.decode([1, 2]), np.zeros(6))


def test_validation_errors():
    with pytest.raises(ValueError):
        Codebook(entries=np.zeros(4), n_f=1)
    with pytest.raises(ValueError):
        Codebook(entries=np.zeros((2, 2)), n_f=0)
    book = Codebook(entries=np.zeros((2, 2)), n_f=2)
    with pytest.raises(ValueError):
        book.encode(np.zeros(5))
    with pytest.raises(ValueError):
        book.decode([0])
    with pytest.raises(ValueError):
        book.decode([0, 2])
    with pytest.raises(ValueError):
        book.decode([-1, 0])
    with pytest.raises(ValueError):
        book.entries[0, 0] = 1.0
    with pytest.raises(ValueError):
        fit_codebook(np.zeros((3, 5)), k_f=2, n_f=2, seed=0)
    with pytest.raises(ValueError):
        fit_codebook(np.zeros((0, 4)), k_f=2, n_f=2, seed=0)
    with pytest.raises(ValueError):
        fit_codebook(np.zeros((1, 4)), k_f=8, n_f=2, seed=0)
