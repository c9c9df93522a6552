"""Similarity matrices: feature metrics, edit distances, performance."""

import logging
import math
import warnings

import numpy as np
import pytest

from itemsim import (
    Corpus,
    FeatureMatrix,
    Item,
    ItemsimError,
    NwScoring,
    PerformanceTable,
    SimilarityMatrix,
    Solution,
    action_sequence,
    canonize,
    edit_similarity,
    levenshtein,
    needleman_wunsch,
    node_count,
    parse_robot_program,
    performance_similarity,
    similarity_from_features,
    tree_edit_distance,
)
from itemsim.serialize import similarity_csv
from itemsim.similarity import pearson, restrict
from itemsim.synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance

from conftest import make_multi_corpus, make_tiny_corpus, scrambled_records
from oracles import reference_performance_similarity


def fm(values, group="statement"):
    values = np.asarray(values, dtype=np.float64)
    return FeatureMatrix(
        item_ids=tuple(f"i{i}" for i in range(values.shape[0])),
        groups=(group,) * values.shape[1],
        names=tuple(f"f{j}" for j in range(values.shape[1])),
        values=values,
    )


class TestSimilarityMatrix:
    def test_asymmetry_rejected(self):
        v = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ItemsimError, match="exactly symmetric"):
            SimilarityMatrix(("a", "b"), v)

    def test_asymmetric_missingness_rejected(self):
        v = np.array([[1.0, np.nan], [0.4, 1.0]])
        with pytest.raises(ItemsimError, match="missing entries"):
            SimilarityMatrix(("a", "b"), v)

    def test_missing_diagonal_rejected(self):
        v = np.array([[np.nan, np.nan], [np.nan, 1.0]])
        with pytest.raises(ItemsimError, match="diagonal"):
            SimilarityMatrix(("a", "b"), v)

    def test_non_square_rejected(self):
        with pytest.raises(ItemsimError, match="shape"):
            SimilarityMatrix(("a", "b"), np.zeros((2, 3)))

    def test_missing_mask(self):
        v = np.array([[1.0, np.nan], [np.nan, 1.0]])
        s = SimilarityMatrix(("a", "b"), v)
        assert s.missing_mask().sum() == 2

    def test_restrict(self):
        v = np.array([[1.0, 0.2, 0.3], [0.2, 1.0, 0.4], [0.3, 0.4, 1.0]])
        s = SimilarityMatrix(("a", "b", "c"), v, measure_name="m")
        out = restrict(s, ("c", "a"))
        assert out.item_ids == ("c", "a")
        assert out.values[0, 1] == 0.3
        assert out.measure_name == "m"
        with pytest.raises(ItemsimError, match="not in similarity"):
            restrict(s, ("zz",))


class TestFeatureMetrics:
    def test_euclidean_is_negated_distance(self):
        s = similarity_from_features(fm([[0.0, 0.0], [3.0, 4.0]]), "euclidean")
        assert s.values[0, 1] == -5.0
        assert s.values[0, 0] == 0.0

    def test_cosine_orthogonal(self):
        s = similarity_from_features(fm([[1.0, 0.0], [0.0, 1.0]]), "cosine")
        assert s.values[0, 1] == 0.0
        assert s.values[0, 0] == 1.0

    def test_pearson_perfectly_correlated(self):
        s = similarity_from_features(fm([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]), "correlation")
        assert s.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_pearson_equals_cosine_of_centered_rows(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(12, 6))
        direct = similarity_from_features(fm(v), "correlation").values
        centered = v - v.mean(axis=1, keepdims=True)
        via_cosine = similarity_from_features(fm(centered), "cosine").values
        assert np.nanmax(np.abs(direct - via_cosine)) < 1e-9

    def test_values_a_few_ulps_apart_correlate_as_pearson_does(self):
        # centring by the rounded mean alone gave 0.169
        u = 2.0 ** -52
        m = fm([[1.0, 1.0 + u, 1.0, 1.0 + u, 1.0], [1.0, 2.0, 1.0, 2.0, 3.0]])
        got = similarity_from_features(m, "correlation").values[0, 1]
        assert got == pytest.approx(1.0 / math.sqrt(21.0), abs=1e-12)

    def test_constant_row_is_missing_under_pearson(self):
        s = similarity_from_features(fm([[2.0, 2.0], [1.0, 3.0], [0.0, 4.0]]), "correlation")
        assert np.isnan(s.values[0, 1]) and np.isnan(s.values[0, 2])
        assert s.values[0, 0] == 1.0  # diagonal stays defined
        assert not np.isnan(s.values[1, 2])

    def test_zero_row_is_missing_under_cosine(self):
        s = similarity_from_features(fm([[0.0, 0.0], [1.0, 1.0]]), "cosine")
        assert np.isnan(s.values[0, 1])
        assert s.values[0, 0] == 1.0

    def test_values_clipped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(30, 4))
        for metric in ("correlation", "cosine"):
            s = similarity_from_features(fm(v), metric).values
            assert np.nanmax(s) <= 1.0
            assert np.nanmin(s) >= -1.0

    def test_exact_symmetry(self):
        rng = np.random.default_rng(2)
        s = similarity_from_features(fm(rng.normal(size=(25, 7))), "correlation")
        assert np.array_equal(s.values, s.values.T)

    def test_unknown_metric(self):
        with pytest.raises(ItemsimError, match="unknown metric"):
            similarity_from_features(fm([[1.0]]), "manhattan")

    def test_empty_matrix(self):
        m = FeatureMatrix((), (), (), np.zeros((0, 0)))
        with pytest.raises(ItemsimError, match="empty"):
            similarity_from_features(m, "cosine")

    def test_measure_name_defaults_to_metric(self):
        assert similarity_from_features(fm([[1.0]]), "cosine").measure_name == "cosine"
        named = similarity_from_features(fm([[1.0]]), "cosine", measure_name="bag/none/cosine")
        assert named.measure_name == "bag/none/cosine"


class TestEditSimilarity:
    def test_sample_ted(self):
        corpus = make_tiny_corpus()
        s = edit_similarity(corpus, kind="ted")
        assert s.item_ids == ("alpha", "beta", "gamma")
        assert s.measure_name == "ted"
        assert np.all(np.diag(s.values) == 1.0)
        # alpha program(move,move,shoot) vs beta program(left,move,move):
        # relabel move->left twice... best is 2 edits over 4+4 nodes
        assert s.values[0, 1] == pytest.approx(1.0 - 2 / 8)

    def test_sample_levenshtein(self):
        s = edit_similarity(make_tiny_corpus(), kind="levenshtein")
        assert s.measure_name == "levenshtein"
        # canonized token streams include program and delimiters
        assert np.all(np.diag(s.values) == 1.0)
        assert np.all(s.values <= 1.0)

    def test_min_aggregation_takes_closest_cross_pair(self):
        from itemsim import node_count, tree_edit_distance

        corpus = make_tiny_corpus()
        s = edit_similarity(corpus, kind="ted", selector="all", aggregation="min")
        assert s.measure_name == "ted/all/min"
        a_sols = corpus.get("alpha").solutions
        b_sols = corpus.get("beta").solutions
        pairs = [
            (tree_edit_distance(x.ast, y.ast), node_count(x.ast), node_count(y.ast))
            for x in a_sols for y in b_sols
        ]
        d, la, lb = min(pairs, key=lambda p: p[0])
        assert s.values[0, 1] == pytest.approx(1.0 - d / (la + lb))

    # In each case the pair with the lowest distance (for nw, the highest
    # score) is not the pair with the highest similarity, because the
    # pairs' lengths differ; min must pick by the raw value.
    @pytest.mark.parametrize("kind, a_programs, b_programs", [
        ("ted", ["move move move move"], ["left", "move " * 9]),
        ("levenshtein", ["move move move move"], ["left", "move " * 9]),
        ("nw", ["move", "move " * 5], ["move", "move " * 5 + "left"]),
    ], ids=["ted", "levenshtein", "nw"])
    def test_min_aggregation_picks_pair_by_raw_value(self, kind, a_programs, b_programs):
        def item(item_id, programs):
            sols = tuple(Solution(ast=parse_robot_program(p)) for p in programs)
            return Item(id=item_id, statement_text="x", solutions=sols)

        corpus = Corpus((item("a", a_programs), item("b", b_programs)))
        s = edit_similarity(corpus, kind=kind, selector="all", aggregation="min")
        pairs = []
        for x in corpus.items[0].solutions:
            for y in corpus.items[1].solutions:
                if kind == "ted":
                    d = tree_edit_distance(x.ast, y.ast)
                    pairs.append((d, 1.0 - d / (node_count(x.ast) + node_count(y.ast))))
                elif kind == "levenshtein":
                    a, b = canonize(x.ast), canonize(y.ast)
                    d = levenshtein(a, b)
                    pairs.append((d, 1.0 - d / (len(a) + len(b))))
                else:
                    a, b = action_sequence(x.ast), action_sequence(y.ast)
                    score = needleman_wunsch(a, b)
                    pairs.append((-score, score / max(len(a), len(b))))
        by_value = min(pairs, key=lambda p: p[0])[1]
        assert by_value < max(sim for _, sim in pairs)
        assert s.values[0, 1] == by_value

    def test_average_aggregation_means_all_cross_pairs(self):
        corpus = make_tiny_corpus()
        s = edit_similarity(corpus, kind="ted", selector="all", aggregation="average")
        assert s.measure_name == "ted/all/average"
        # beta has 2 solutions, gamma 1: mean of the 2 cross-pair values
        beta = corpus.get("beta").solutions
        gamma = corpus.get("gamma").solutions
        from itemsim import node_count, tree_edit_distance
        expected = np.mean([
            1.0 - tree_edit_distance(b.ast, g.ast) / (node_count(b.ast) + node_count(g.ast))
            for b in beta for g in gamma
        ])
        assert s.values[1, 2] == pytest.approx(expected)

    def test_average_diagonal_pairs_each_solution_with_itself(self):
        s = edit_similarity(make_tiny_corpus(), kind="ted", selector="all",
                            aggregation="average")
        # self-distance is 0 for every solution, so the diagonal is exactly 1
        assert np.all(np.diag(s.values) == 1.0)

    def test_nw_uses_action_sequences(self):
        corpus = make_tiny_corpus()
        s = edit_similarity(corpus, kind="nw")
        assert s.measure_name == "nw"
        # alpha actions [move,move,shoot] vs beta [left,move,move]: the best
        # alignment matches both moves and gaps out left and shoot, scoring
        # 2 - 2 = 0
        assert s.values[0, 1] == pytest.approx(0.0)
        # self-alignment scores length/length = 1 under default scoring
        assert np.all(np.diag(s.values) == 1.0)

    def test_nw_respects_scoring_and_caps(self):
        # the caps are tree's constants now; test_tree.py covers them
        corpus = make_tiny_corpus()
        s = edit_similarity(corpus, kind="nw", nw_scoring=NwScoring(match=2.0))
        assert np.all(np.diag(s.values) == 2.0)

    def test_overflowing_mean_is_an_error(self):
        # each one-action alignment scores a finite 1.7e308; a's two
        # solutions average two of them, which overflows
        p = parse_robot_program("move")
        corpus = Corpus((
            Item(id="a", statement_text="x",
                 solutions=(Solution(ast=p), Solution(ast=p, kind="learner"))),
            Item(id="b", statement_text="x", solutions=(Solution(ast=p),)),
        ))
        scoring = NwScoring(1.7e308, -1.0, -1.0)
        kwargs = {"kind": "nw", "selector": "all", "nw_scoring": scoring}
        assert np.all(edit_similarity(corpus, aggregation="min", **kwargs).values == 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ItemsimError, match="nw alignment scores overflow float64 under "
                                                   r"match=1\.7e\+308, mismatch=-1\.0, gap=-1\.0"):
                edit_similarity(corpus, aggregation="average", **kwargs)

    def test_missing_solutions_rejected(self):
        corpus = make_tiny_corpus()
        with pytest.raises(ItemsimError, match="top_learner.*gamma"):
            edit_similarity(corpus, selector="top_learner")

    def test_unknown_kind_and_aggregation(self):
        corpus = make_tiny_corpus()
        with pytest.raises(ItemsimError, match="unknown edit-distance kind"):
            edit_similarity(corpus, kind="hamming")
        with pytest.raises(ItemsimError, match="unknown aggregation"):
            edit_similarity(corpus, aggregation="median")


def _brute_force_edit(corpus, kind, aggregation, scoring):
    """edit_similarity with one kernel call per solution pair and nothing
    shared between pairs: the diagonal pairs each solution with itself,
    the other cells take every cross pair."""

    def scored(x, y):  # (value minimised by min, similarity)
        if kind == "ted":
            d = tree_edit_distance(x, y)
            return d, 1.0 - d / max(node_count(x) + node_count(y), 1)
        if kind == "levenshtein":
            a, b = canonize(x), canonize(y)
            d = levenshtein(a, b)
            return d, 1.0 - d / max(len(a) + len(b), 1)
        a, b = action_sequence(x), action_sequence(y)
        score = needleman_wunsch(a, b, scoring)
        return -score, score / max(len(a), len(b), 1)

    sols = [[s.ast for s in it.solutions] for it in corpus.items]
    n = len(sols)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            pairs = [(x, x) for x in sols[i]] if i == j else [(x, y) for x in sols[i] for y in sols[j]]
            results = [scored(x, y) for x, y in pairs]
            if aggregation == "min":
                v = min(results, key=lambda r: r[0])[1]
            else:
                v = float(np.mean([sim for _, sim in results]))
            values[i, j] = values[j, i] = v
    return values


class TestEditSimilarityPairSharing:
    """Each distinct solution pair is computed once, and ted and levenshtein
    self pairs are known to be 0; the matrices must not change."""

    @pytest.mark.parametrize("kind, scoring", [
        ("ted", NwScoring()),
        ("levenshtein", NwScoring()),
        ("nw", NwScoring()),
        ("nw", NwScoring(1.0, -0.5, -0.7)),
        # match < 2 * gap: gaps beat matches, even against itself
        ("nw", NwScoring(-1.0, -2.0, -0.3)),
    ], ids=["ted", "levenshtein", "nw", "nw-fractional", "nw-gaps-win"])
    @pytest.mark.parametrize("aggregation", ["min", "average"])
    def test_equals_one_kernel_call_per_pair(self, kind, scoring, aggregation):
        corpus = make_multi_corpus()
        s = edit_similarity(corpus, kind=kind, selector="all", aggregation=aggregation,
                            nw_scoring=scoring)
        assert np.array_equal(s.values, _brute_force_edit(corpus, kind, aggregation, scoring))

    def test_nw_self_pairs_are_computed(self):
        corpus = make_multi_corpus()
        s = edit_similarity(corpus, kind="nw", nw_scoring=NwScoring(-1.0, -2.0, -0.3))
        # all-gap self alignment: 2 * len * gap / len
        assert np.allclose(np.diag(s.values), -0.6)

    def test_logs_one_info_line_per_call(self, caplog):
        p, q = (parse_robot_program(text) for text in ("move left", "move right move"))
        corpus = Corpus((
            Item(id="a", statement_text="x", solutions=(Solution(ast=p), Solution(ast=p))),
            Item(id="b", statement_text="x", solutions=(Solution(ast=p), Solution(ast=q))),
        ))
        with caplog.at_level(logging.INFO, logger="itemsim.similarity"):
            edit_similarity(corpus, kind="ted", selector="all")
            edit_similarity(corpus, kind="levenshtein", selector="all")
            edit_similarity(corpus, kind="nw", selector="all")
        assert [r.getMessage() for r in caplog.records] == [
            # pairs: a's two self pairs, b's two, 2 x 2 cross pairs; only p-q differs
            # p and q have 3 and 4 nodes: 12 DP cells
            "edit ted: 2 items, 8 solution pairs, 1 kernel calls, 6 known self pairs, "
            "1 pairs from repeated inputs, 1 batches, 12 DP cells",
            # the same pairs; p and q have 5 and 6 tokens: 30 DP cells
            "edit levenshtein: 2 items, 8 solution pairs, 1 kernel calls, 6 known self pairs, "
            "1 pairs from repeated inputs, 1 batches, 30 DP cells",
            # nw knows no self value: p-p, q-q and p-q are computed, all in
            # one batch, over 2 x 2 + 3 x 3 + 2 x 3 actions
            "edit nw: 2 items, 8 solution pairs, 3 kernel calls, 0 known self pairs, "
            "5 pairs from repeated inputs, 1 batches, 19 DP cells",
        ]


def _table(times):
    """times: {learner: {item: time}}; success defaults to True."""
    return PerformanceTable.from_records(
        (learner, item, t, True) for learner, row in times.items() for item, t in row.items()
    )


class TestPearson:
    def test_equal_values_are_missing(self):
        # the mean of three copies of 0.1 is not 0.1: centring alone left
        # a variance of about 1e-33 and a value of -8.7e-17
        assert math.isnan(pearson(np.full(3, 0.1), np.array([1.0, 5.0, 2.0])))
        assert math.isnan(pearson(np.array([1.0, 5.0, 2.0]), np.full(3, 0.1)))
        assert math.isnan(pearson(np.array([2.0]), np.array([3.0])))

    def test_values_one_ulp_apart_stay_defined(self):
        x = np.array([1.0, np.nextafter(1.0, 2.0), 1.0, np.nextafter(1.0, 2.0)])
        assert -1.0 <= pearson(x, np.array([1.0, 2.0, 1.0, 3.0])) <= 1.0

    def test_values_a_few_ulps_apart_correlate_exactly(self):
        # centring by the rounded mean alone gave 0.169
        x = np.array([1.0, 1.0 + 2.0 ** -52, 1.0, 1.0 + 2.0 ** -52, 1.0])
        got = pearson(x, np.array([1.0, 2.0, 1.0, 2.0, 3.0]))
        assert got == pytest.approx(1.0 / math.sqrt(21.0), abs=1e-12)

    def test_ordinary_inputs_keep_their_bits(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = rng.normal(size=(2, int(rng.integers(2, 30)))) * 10.0 ** rng.integers(-5, 6)
            xc, yc = x - x.mean(), y - y.mean()
            plain = float(xc @ yc) / (math.sqrt(float(xc @ xc)) * math.sqrt(float(yc @ yc)))
            assert pearson(x, y) == max(-1.0, min(1.0, plain))

    @pytest.mark.parametrize("scale", [1e300, 1e-170, 1e-300], ids=["huge", "tiny", "subnormal"])
    def test_out_of_range_sums_are_rescaled_without_warnings(self, scale):
        # centred sums of squares overflow to inf, or underflow to 0
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(2, 20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pearson(x * scale, y)
            assert got == pytest.approx(pearson(x, y), abs=1e-12)
            assert pearson(y, x * scale) == got
            assert math.isnan(pearson(np.array([1.0, np.inf]), y[:2]))
            assert math.isnan(pearson(np.array([1.0, np.nan]), y[:2]))


def _constant_on_common_table():
    times = {f"l{i:02d}": {"a": 1.0 + i, "k": 3.0} for i in range(10)}
    times["l10"] = {"k": 4.0, "b": 1.0}
    times["l11"] = {"a": 2.0, "b": 5.0}
    times["l12"] = {"a": 3.0, "b": 7.0}
    return _table(times)


def _one_ulp_table():
    """Item a's log times 1 ulp apart, against item b."""
    one_up = np.nextafter(1.0, 2.0)
    log_time = np.array([[1.0, 1.0], [one_up, 2.0], [1.0, 1.0], [one_up, 2.0], [1.0, 3.0]])
    table = PerformanceTable(tuple(f"l{i}" for i in range(5)), ("a", "b"), np.exp(log_time),
                             np.ones_like(log_time))
    assert table.log_time[:, 0].tolist() == [1.0, one_up, 1.0, one_up, 1.0]
    return table


class TestPerformanceSimilarity:
    def test_perfectly_correlated_pair(self):
        e = math.e
        table = {
            "l1": {"a": e ** 1, "b": e ** 2},
            "l2": {"a": e ** 2, "b": e ** 4},
            "l3": {"a": e ** 3, "b": e ** 6},
        }
        s = performance_similarity(_table(table), min_overlap=3)
        assert s.measure_name == "perfcorr"
        assert s.values[0, 1] == pytest.approx(1.0)

    def test_overlap_below_threshold_is_missing(self):
        table = {
            "l1": {"a": 1.0, "b": 2.0},
            "l2": {"a": 2.0, "b": 1.0},
            "l3": {"a": 3.0, "b": 5.0},
        }
        s = performance_similarity(_table(table), min_overlap=10)
        assert np.isnan(s.values[0, 1])
        assert s.values[0, 0] == 1.0

    def test_success_measure(self):
        table = PerformanceTable.from_records([
            ("l1", "a", 1.0, True),
            ("l1", "b", 1.0, True),
            ("l2", "a", 1.0, False),
            ("l2", "b", 1.0, False),
            ("l3", "a", 1.0, True),
            ("l3", "b", 1.0, False),
        ])
        s = performance_similarity(table, measure="success", min_overlap=3)
        assert s.values[0, 1] == pytest.approx(0.5)

    def test_constant_column_is_missing(self):
        table = {
            "l1": {"a": 2.0, "b": 1.0},
            "l2": {"a": 2.0, "b": 5.0},
            "l3": {"a": 2.0, "b": 9.0},
        }
        s = performance_similarity(_table(table), min_overlap=2)
        assert np.isnan(s.values[0, 1])

    def test_constant_over_common_learners_only_is_missing(self):
        # ten learners took 3.0 s on k, whose log's mean rounds off; an
        # eleventh took 4.0 s on k but never tried a
        s = performance_similarity(_constant_on_common_table(), min_overlap=2)
        assert s.item_ids == ("a", "b", "k")
        assert np.isnan(s.values[0, 2])
        assert s.values[0, 1] == pytest.approx(1.0)  # two learners

    def test_values_one_ulp_apart_stay_defined(self):
        table = _one_ulp_table()
        s = performance_similarity(table, min_overlap=5)
        want = pearson(table.log_time[:, 0], table.log_time[:, 1])
        assert not math.isnan(want)
        assert s.values[0, 1] == pytest.approx(want, abs=1e-12)

    def test_missing_ids_and_empty_tables_warn_nothing(self):
        table = _table({"l1": {"a": 1.0, "b": 2.0}, "l2": {"a": 2.0, "b": 1.0}})
        empty = PerformanceTable.from_records([])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = performance_similarity(table, item_ids=("a", "zz", "b"), min_overlap=1)
            assert np.isnan(s.values[1, [0, 2]]).all() and s.values[0, 2] == -1.0
            s = performance_similarity(empty, item_ids=("a", "b"), min_overlap=1)
            assert np.isnan(s.values[0, 1]) and s.values[0, 0] == 1.0
            assert performance_similarity(empty).values.shape == (0, 0)

    def test_logs_one_info_line_per_call(self, caplog):
        with caplog.at_level(logging.INFO, logger="itemsim.similarity"):
            performance_similarity(PerformanceTable.from_records(HAND_ROWS), min_overlap=4)
            performance_similarity(PerformanceTable.from_records(HAND_ROWS), "success",
                                   min_overlap=5, item_ids=("a", "b", "zz"))
            performance_similarity(_constant_on_common_table(), min_overlap=2)
            performance_similarity(_one_ulp_table(), min_overlap=5)
        assert [r.getMessage() for r in caplog.records] == [
            # every pair shares 4 learners; k is constant
            "perfcorr log_time: 3 items, 4 learners, 0 pairs below min_overlap 4, "
            "2 pairs with a constant item, 0 low-variance pairs re-checked",
            "perfcorr success: 3 items, 4 learners, 3 pairs below min_overlap 5, "
            "0 pairs with a constant item, 0 low-variance pairs re-checked",
            # a-k: k constant over its 10 common learners; b-k: 1 common learner
            "perfcorr log_time: 3 items, 13 learners, 1 pairs below min_overlap 2, "
            "0 pairs with a constant item, 1 low-variance pairs re-checked",
            "perfcorr log_time: 2 items, 5 learners, 0 pairs below min_overlap 5, "
            "0 pairs with a constant item, 0 low-variance pairs re-checked",
        ]

    def test_explicit_item_ids_fix_order_and_axes(self):
        table = {"l1": {"a": 1.0}, "l2": {"a": 2.0}}
        s = performance_similarity(_table(table), item_ids=("b", "a"), min_overlap=1)
        assert s.item_ids == ("b", "a")
        assert np.isnan(s.values[0, 1])
        assert s.values[0, 0] == 1.0

    def test_unknown_measure_and_bad_overlap(self):
        empty = PerformanceTable.from_records([])
        with pytest.raises(ItemsimError, match="unknown performance measure"):
            performance_similarity(empty, measure="speed")
        with pytest.raises(ItemsimError, match="min_overlap"):
            performance_similarity(empty, min_overlap=0)


# File order unsorted; ("l1", "a") repeated, the later row to be ignored;
# learner ids "l1" and "l1\x00" distinct (csv accepts a NUL in a field);
# item "k" constant under both measures. Items a and b share 4 learners,
# as do a and k.
HAND_ROWS = [
    ("l3", "b", 4.0, False), ("l1", "a", 2.0, True), ("l1\x00", "a", 3.0, False),
    ("l2", "b", 1.5, True), ("l1", "b", 2.5, True), ("l2", "a", 7.0, False),
    ("l1", "a", 99.0, False), ("l3", "a", 5.5, True), ("l1\x00", "b", 0.5, True),
    ("l1", "k", 3.0, True), ("l3", "k", 3.0, True), ("l2", "k", 3.0, True),
    ("l1\x00", "k", 3.0, True),
]


def _assert_close(got, want):
    """The same ids and missing entries, and values within 1e-12."""
    assert got.item_ids == want.item_ids
    missing = np.isnan(want.values)
    assert np.array_equal(np.isnan(got.values), missing)
    assert np.abs(got.values - want.values)[~missing].max(initial=0.0) <= 1e-12


def _assert_same_as_reference(rows, measure, min_overlap, item_ids):
    got = performance_similarity(PerformanceTable.from_records(rows), measure, min_overlap,
                                 item_ids)
    _assert_close(got, reference_performance_similarity(rows, measure, min_overlap, item_ids))
    return got


class TestPerformanceTableMatchesReference:
    """The Gram-product path matches the per-record, per-pair loop: the
    same missing entries, and values within 1e-12."""

    @pytest.mark.parametrize("measure", ["log_time", "success"])
    @pytest.mark.parametrize("min_overlap", [3, 4, 5])
    def test_hand_built_rows(self, measure, min_overlap):
        s = _assert_same_as_reference(HAND_ROWS, measure, min_overlap, None)
        assert s.item_ids == ("a", "b", "k")
        assert np.isnan(s.values[0, 1]) == (min_overlap > 4)
        assert np.isnan(s.values[0, 2])  # constant column
        # an explicit order, with an id the table lacks
        s = _assert_same_as_reference(HAND_ROWS, measure, min_overlap, ("k", "zz", "b", "a"))
        assert np.isnan(s.values[1, [0, 2, 3]]).all() and s.values[1, 1] == 1.0

    @pytest.mark.parametrize("seed", [1, 11])
    def test_analysis_sized_tables(self, seed):
        # the benchmark's analysis inputs: 240 items x 400 learners
        corpus = generate_corpus(CorpusSpec(n_items=240, n_levels=9, seed=seed))
        table = generate_performance(corpus, PerfSpec(n_learners=400, solve_prob=0.7,
                                                      seed=seed + 1))
        attempted = zip(*np.nonzero(~np.isnan(table.time_seconds)))
        rows = [(table.learner_ids[i], table.item_ids[j], table.time_seconds[i, j],
                 bool(table.success[i, j])) for i, j in attempted]
        for measure in ("log_time", "success"):
            got = performance_similarity(table, measure)
            want = reference_performance_similarity(rows, measure)
            _assert_close(got, want)
            assert similarity_csv(got) == similarity_csv(want)

    @pytest.mark.parametrize("offset", [1.0, 2.0, 10.0, 100.0, 1e3])
    def test_near_constant_items(self, offset):
        # item nK takes times offset * (1 + k * 2**-52), k in 0..K: log times
        # a few ulps apart, or all equal for n0, beside two ordinary items
        rng = np.random.default_rng(int(offset))
        for _ in range(20):
            rows = []
            for learner in range(int(rng.integers(3, 16))):
                times = {f"n{top}": offset * (1.0 + int(rng.integers(top + 1)) * 2.0 ** -52)
                         for top in (0, 1, 3, 9)}
                times.update(o1=float(rng.lognormal(0.0, 0.5)), o2=float(rng.lognormal(0.0, 0.5)))
                rows += [(f"l{learner}", item, t, True) for item, t in times.items()
                         if rng.random() < 0.8]
            _assert_same_as_reference(rows, "log_time", int(rng.integers(2, 4)), None)

    def test_random_rows(self):
        rng = np.random.default_rng(61)
        pool = [f"i{k}" for k in range(8)]
        for trial in range(80):
            rows = scrambled_records(rng, n_learners=int(rng.integers(1, 25)),
                                     n_items=int(rng.integers(1, 7)),
                                     attempt_prob=float(rng.uniform(0.2, 1.0)))
            item_ids = None if trial % 3 else tuple(rng.permutation(pool)[: rng.integers(1, 9)])
            _assert_same_as_reference(rows, ("log_time", "success")[trial % 2],
                                      int(rng.integers(1, 8)), item_ids)
