"""PCA and classical MDS projections."""

import logging

import numpy as np
import pytest

from itemsim import (
    Embedding,
    FeatureMatrix,
    ItemsimError,
    SimilarityMatrix,
    mds_project,
    pca_project,
    similarity_from_features,
)

from oracles import reference_mds_gram, reference_mds_project


def _ulps(x: float, k: int) -> float:
    """x moved k floats up (k < 0: down)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


def fm(values, group="statement"):
    values = np.asarray(values, dtype=np.float64)
    return FeatureMatrix(
        item_ids=tuple(f"i{i}" for i in range(values.shape[0])),
        groups=(group,) * values.shape[1],
        names=tuple(f"f{j}" for j in range(values.shape[1])),
        values=values,
    )


def sim_from_distances(d):
    """Similarity matrix whose induced dissimilarity max(S) - S equals d."""
    d = np.asarray(d, dtype=np.float64)
    return SimilarityMatrix(
        item_ids=tuple(f"i{i}" for i in range(len(d))), values=-d, measure_name="m"
    )


def pairwise(x):
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


class TestEmbedding:
    def test_row_count_must_match(self):
        with pytest.raises(ItemsimError, match="one row per item"):
            Embedding(("a",), np.zeros((2, 2)))

    def test_needs_a_dimension(self):
        with pytest.raises(ItemsimError, match="at least one dimension"):
            Embedding(("a",), np.zeros((1, 0)))

    def test_coordinates_must_be_finite(self):
        with pytest.raises(ItemsimError, match="finite"):
            Embedding(("a",), np.array([[np.inf]]))


class TestPcaProject:
    def test_collinear_points_explained_by_first_component(self):
        v = np.outer([0.0, 1.0, 2.0, 3.0], [1.0, 2.0]) + np.array([5.0, -1.0])
        e = pca_project(fm(v), dims=1)
        assert e.explained_variance[0] == pytest.approx(1.0, abs=1e-9)

    def test_full_rank_projection_preserves_distances(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(10, 4))
        e = pca_project(fm(v), dims=4)
        centered = v - v.mean(axis=0)
        assert np.abs(pairwise(e.coordinates) - pairwise(centered)).max() < 1e-9

    def test_explained_variance_is_non_increasing_and_sums_below_one(self):
        rng = np.random.default_rng(1)
        e = pca_project(fm(rng.normal(size=(15, 6))), dims=6)
        shares = np.array(e.explained_variance)
        assert np.all(np.diff(shares) <= 1e-12)
        assert shares.sum() == pytest.approx(1.0, abs=1e-9)

    def test_translation_invariant(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(9, 5))
        a = pca_project(fm(v), dims=3)
        b = pca_project(fm(v + 100.0), dims=3)
        assert np.abs(a.coordinates - b.coordinates).max() < 1e-9

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(8, 3))
        a = pca_project(fm(v), dims=3)
        b = pca_project(fm(v), dims=3)
        assert np.array_equal(a.coordinates, b.coordinates)

    def test_dims_out_of_range(self):
        v = np.zeros((3, 2))
        with pytest.raises(ItemsimError, match="dims=0 out of range"):
            pca_project(fm(v), dims=0)
        with pytest.raises(ItemsimError, match="dims=3 out of range 1..2"):
            pca_project(fm(v), dims=3)

    def test_needs_two_items(self):
        with pytest.raises(ItemsimError, match="at least 2 items"):
            pca_project(fm(np.ones((1, 3))), dims=1)


class TestMdsProject:
    def test_two_items_reproduce_their_distance(self):
        s = sim_from_distances([[0.0, 3.5], [3.5, 0.0]])
        e = mds_project(s, dims=1)
        assert abs(e.coordinates[0, 0] - e.coordinates[1, 0]) == pytest.approx(3.5, abs=1e-9)

    def test_two_items_put_the_first_on_the_positive_side(self):
        # the axis is +x and -x up to rounding, so its sign goes by position:
        # for random matrices and their variants a few ulps off, item 0 is
        # positive (the largest-magnitude rule alone gave 117 of 2000
        # random matrices a negative item 0)
        rng = np.random.default_rng(13)
        firsts = []
        for _ in range(60):
            base = rng.random((2, 2)) * 10.0 ** int(rng.integers(-3, 4))
            for d0, d1, off in np.ndindex(3, 3, 3):
                v = np.array([[_ulps(base[0, 0], d0 - 1), _ulps(base[0, 1], off - 1)],
                              [_ulps(base[0, 1], off - 1), _ulps(base[1, 1], d1 - 1)]])
                s = SimilarityMatrix(("a", "b"), v, "m")
                eigvals = np.linalg.eigvalsh(reference_mds_gram(s))
                if eigvals.max() > 1e-6 * np.abs(eigvals).max():  # a real axis
                    x = mds_project(s, dims=1).coordinates[:, 0]
                    firsts.append(x[0] > 0 > x[1])
        assert all(firsts) and len(firsts) > 800

    def test_euclidean_input_recovered_exactly(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 2))
        e = mds_project(sim_from_distances(pairwise(x)), dims=2)
        assert np.abs(pairwise(e.coordinates) - pairwise(x)).max() < 1e-6

    def test_constant_similarity_spreads_items_evenly(self):
        n = 5
        v = np.full((n, n), 0.4)
        np.fill_diagonal(v, 1.0)
        s = SimilarityMatrix(tuple(f"i{i}" for i in range(n)), v, "m")
        e = mds_project(s, dims=n - 1)
        d = pairwise(e.coordinates)
        off = d[~np.eye(n, dtype=bool)]
        assert np.abs(off - off[0]).max() < 1e-6

    def test_non_euclidean_input_clamps_and_warns(self, caplog):
        # star distances: center at 1 from three tips that are pairwise 2
        # apart; not realizable in any Euclidean space
        d = np.array([
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 2.0, 2.0],
            [1.0, 2.0, 0.0, 2.0],
            [1.0, 2.0, 2.0, 0.0],
        ])
        with caplog.at_level(logging.WARNING, logger="itemsim.projection"):
            e = mds_project(sim_from_distances(d), dims=3)
        assert "clamped" in caplog.text
        assert np.all(np.isfinite(e.coordinates))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 3))
        s = sim_from_distances(pairwise(x))
        a = mds_project(s, dims=3)
        b = mds_project(s, dims=3)
        assert np.array_equal(a.coordinates, b.coordinates)

    def test_agrees_with_centring_matrix_reference(self):
        # random symmetric similarities, most of them not Euclidean, on the
        # axes whose eigenvalue is clearly positive: an eigenvalue at
        # rounding level, or a near-tie of a column's two largest entries,
        # leaves an axis or its sign to the last bits
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 40))
            v = rng.random((n, n)) * 10.0 ** int(rng.integers(-3, 4))
            s = SimilarityMatrix(tuple(f"i{i}" for i in range(n)), np.triu(v) + np.triu(v, 1).T)
            eigvals = np.linalg.eigvalsh(reference_mds_gram(s))
            dims = min(5, int((eigvals > 1e-6 * np.abs(eigvals).max()).sum()))
            if not dims:
                continue
            got = mds_project(s, dims).coordinates
            want = reference_mds_project(s, dims)
            got *= np.where((got * want).sum(axis=0) < 0, -1.0, 1.0)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
            checked += 1
        assert checked > 250

    def test_missing_entries_rejected(self):
        v = np.array([[1.0, np.nan], [np.nan, 1.0]])
        s = SimilarityMatrix(("a", "b"), v, "m")
        with pytest.raises(ItemsimError, match="missing entries"):
            mds_project(s, dims=1)

    def test_dims_out_of_range(self):
        s = sim_from_distances([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ItemsimError, match="out of range"):
            mds_project(s, dims=2)

    @pytest.mark.filterwarnings("error")
    def test_largest_entry_not_finite_rejected(self):
        all_minus_inf = SimilarityMatrix(("a", "b"), np.full((2, 2), -np.inf), "m")
        one_plus_inf = SimilarityMatrix(
            ("a", "b", "c"), [[np.inf, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]], "m")
        for s in (all_minus_inf, one_plus_inf):
            with pytest.raises(ItemsimError, match="largest entry -?inf"):
                mds_project(s, dims=1)
