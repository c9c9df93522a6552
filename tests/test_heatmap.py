"""SVG heatmap rendering."""

import re

import numpy as np
import pytest

from itemsim import ItemsimError, SimilarityMatrix, heatmap_svg, hierarchical_order
from itemsim.measures import compute_measure
from itemsim.serialize import read_square_csv, similarity_csv
from itemsim.synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance

from oracles import reference_heatmap_svg


def rect_fills(svg):
    return re.findall(r'<rect [^>]*fill="([^"]+)"', svg)


class TestHeatmapSvg:
    def test_two_by_two_has_four_rects(self):
        svg = heatmap_svg(("a", "b"), np.array([[1.0, 0.2], [0.2, 1.0]]))
        assert len(rect_fills(svg)) == 4
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")

    def test_constant_matrix_renders_identical_fills(self):
        svg = heatmap_svg(("a", "b"), np.full((2, 2), 0.7))
        fills = rect_fills(svg)
        assert len(set(fills)) == 1

    def test_extremes_use_ramp_endpoints(self):
        svg = heatmap_svg(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        fills = rect_fills(svg)
        assert fills[0] == "#08306b"  # maximum
        assert fills[1] == "#f7fbff"  # minimum

    def test_missing_cells_are_grey(self):
        v = np.array([[1.0, np.nan], [np.nan, 1.0]])
        fills = rect_fills(heatmap_svg(("a", "b"), v))
        assert fills[1] == "#bdbdbd"
        assert fills[2] == "#bdbdbd"

    def test_labels_present_and_escaped(self):
        svg = heatmap_svg(("a<b", "c&d"), np.eye(2))
        assert "a&lt;b" in svg
        assert "c&amp;d" in svg

    def test_hierarchical_ordering_matches_analysis_order(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(6, 6))
        v = (raw + raw.T) / 2
        np.fill_diagonal(v, 1.0)
        ids = tuple(f"i{k}" for k in range(6))
        order = hierarchical_order(SimilarityMatrix(ids, v, "m"))
        svg = heatmap_svg(ids, v, ordering="hierarchical")
        shown = re.findall(r'<text x="\d+" y="\d+">([^<]+)</text>', svg)
        assert shown[:6] == [ids[i] for i in order]

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(5, 5))
        v = (raw + raw.T) / 2
        ids = tuple("abcde")
        assert heatmap_svg(ids, v) == heatmap_svg(ids, v)
        assert heatmap_svg(ids, v, "hierarchical") == heatmap_svg(ids, v, "hierarchical")

    def test_non_square_rejected(self):
        with pytest.raises(ItemsimError, match="square matrix"):
            heatmap_svg(("a", "b"), np.zeros((2, 3)))

    def test_unknown_ordering(self):
        with pytest.raises(ItemsimError, match="unknown ordering"):
            heatmap_svg(("a",), np.ones((1, 1)), ordering="alphabetical")

    def test_hierarchical_needs_full_matrix(self):
        v = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ItemsimError, match="fully defined"):
            heatmap_svg(("a", "b"), v, ordering="hierarchical")


def _ids(n):
    return tuple(f"i{k}" for k in range(n))


@pytest.mark.filterwarnings("error")
class TestHeatmapMatchesReference:
    """The vectorised colour ramp renders the bytes of the per-cell one."""

    def _check(self, ids, values, orderings=("none", "hierarchical")):
        for order in orderings:
            assert heatmap_svg(ids, values, order) == reference_heatmap_svg(ids, values, order)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, n):
        self._check(_ids(n), np.full((n, n), 0.25))

    def test_rounded_random_matrices(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            n = int(rng.integers(2, 9))
            raw = rng.normal(size=(n, n)).round(int(rng.integers(0, 3)))
            self._check(_ids(n), (raw + raw.T) / 2)

    def test_missing_cells_unordered(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            values = rng.normal(size=(n, n))
            values[rng.random((n, n)) < 0.3] = np.nan
            self._check(_ids(n), values, ("none",))
        self._check(_ids(3), np.full((3, 3), np.nan), ("none",))

    def test_constant_matrices(self):
        # span 0: every defined cell takes the middle of the ramp
        for value in (0.0, -0.0, 0.7, -3.0):
            self._check(_ids(4), np.full((4, 4), value))
        self._check(_ids(2), np.array([[0.5, np.nan], [np.nan, 0.5]]), ("none",))

    def test_signed_zero_cells(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            values = rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, n))
            self._check(_ids(n), np.triu(values) + np.triu(values, 1).T)
        self._check(_ids(2), np.array([[0.0, -0.0], [-0.0, 0.0]]))

    def test_escaped_ids(self):
        ids = ("a<b", "c&d", "e>f&amp;", "é")
        values = np.arange(16.0).reshape(4, 4)
        self._check(ids, (values + values.T) / 2)

    @pytest.mark.parametrize("seed", [1, 11])
    def test_analysis_sized_matrices(self, seed):
        # the benchmark's analysis inputs (240 items x 400 learners), as
        # the heatmap command reads them back from sim.csv
        corpus = generate_corpus(CorpusSpec(n_items=240, n_levels=9, seed=seed))
        table = generate_performance(corpus, PerfSpec(n_learners=400, solve_prob=0.7,
                                                      seed=seed + 1))
        for measure in ("bag/log+max+idf+weights/correlation", "perfcorr"):
            s = compute_measure(corpus, measure, performance=table)
            ids, values = read_square_csv(similarity_csv(s))
            self._check(ids, values)
