"""Agreement levels, split-half stability, clustering quality."""

import itertools

import numpy as np
import pytest

from itemsim import analysis
from itemsim import (
    AgreementMatrix,
    ItemsimError,
    Partition,
    PerformanceTable,
    SimilarityMatrix,
    agreement_correlation,
    agreement_matrix,
    agreement_topn,
    cluster_eval,
    hierarchical_order,
    kmeans,
    meta_agreement,
    performance_similarity,
    rand_index,
    split_half_stability,
)
from itemsim.synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance

from conftest import random_similarity, scrambled_records
from oracles import (
    oracle_best_two_partition,
    reference_agreement_topn,
    reference_hierarchical_order,
    reference_nearest,
    reference_split_halves,
)


def sim(values, ids=None, name="m"):
    values = np.asarray(values, dtype=np.float64)
    ids = ids or tuple(chr(ord("a") + i) for i in range(len(values)))
    return SimilarityMatrix(item_ids=tuple(ids), values=values, measure_name=name)


def pair_sim(ids, pairs, name="m"):
    """Build a matrix from {(i, j): value} over item names."""
    n = len(ids)
    index = {x: i for i, x in enumerate(ids)}
    v = np.eye(n)
    for (x, y), val in pairs.items():
        v[index[x], index[y]] = v[index[y], index[x]] = val
    return SimilarityMatrix(item_ids=tuple(ids), values=v, measure_name=name)


class TestAgreementCorrelation:
    def test_affine_transform_agrees_perfectly(self):
        s = sim([[1.0, 0.5, 0.2], [0.5, 1.0, 0.7], [0.2, 0.7, 1.0]], name="s")
        t = sim(2.0 * s.values + 3.0, ids=s.item_ids, name="t")
        assert agreement_correlation(s, t) == pytest.approx(1.0, abs=1e-12)

    def test_negation_agrees_negatively(self):
        s = sim([[1.0, 0.5, 0.2], [0.5, 1.0, 0.7], [0.2, 0.7, 1.0]], name="s")
        t = sim(-s.values, ids=s.item_ids, name="t")
        assert agreement_correlation(s, t) == pytest.approx(-1.0, abs=1e-12)

    def test_missing_pairs_are_dropped_from_both(self):
        v1 = np.array([[1.0, np.nan, 0.2, 0.9],
                       [np.nan, 1.0, 0.7, 0.1],
                       [0.2, 0.7, 1.0, 0.4],
                       [0.9, 0.1, 0.4, 1.0]])
        s1 = sim(v1, name="s1")
        s2 = sim(np.where(np.isnan(v1), 0.0, 2 * v1), ids=s1.item_ids, name="s2")
        assert agreement_correlation(s1, s2) == pytest.approx(1.0, abs=1e-12)

    def test_too_few_common_pairs(self):
        v = np.full((3, 3), np.nan)
        np.fill_diagonal(v, 1.0)
        v[0, 1] = v[1, 0] = 0.5
        s1, s2 = sim(v, name="x"), sim(v, name="y")
        with pytest.raises(ItemsimError, match="only 1 common defined pairs"):
            agreement_correlation(s1, s2)

    def test_zero_variance(self):
        s1 = sim(np.ones((3, 3)), name="x")
        s2 = sim([[1.0, 0.5, 0.2], [0.5, 1.0, 0.7], [0.2, 0.7, 1.0]], name="y")
        with pytest.raises(ItemsimError, match="zero variance"):
            agreement_correlation(s1, s2)

    def test_values_equal_up_to_rounding_have_zero_variance(self):
        # a side whose values span at most 2**-40 of its largest magnitude
        # carries rounding noise, not a correlation
        y = sim([[1.0, 0.5, 0.2], [0.5, 1.0, 0.7], [0.2, 0.7, 1.0]], name="y")
        for spread, defined in ((2.0 ** -52, False), (2.0 ** -40, False), (2.0 ** -38, True)):
            v = np.full((3, 3), -1.0)
            v[0, 2] = v[2, 0] = -1.0 + spread
            x = sim(v, ids=y.item_ids, name="x")
            if defined:
                assert abs(agreement_correlation(x, y)) <= 1.0
                assert abs(agreement_correlation(y, x)) <= 1.0
            else:
                for a, b in ((x, y), (y, x)):
                    with pytest.raises(ItemsimError, match="^zero variance over common pairs$"):
                        agreement_correlation(a, b)

    def test_item_set_mismatch(self):
        s1 = sim(np.eye(2), ids=("a", "b"))
        s2 = sim(np.eye(2), ids=("a", "c"))
        with pytest.raises(ItemsimError, match="different item sets"):
            agreement_correlation(s1, s2)


class TestAgreementTopn:
    def test_half_overlap_hand_example(self):
        ids = ("a", "b", "c", "d")
        s1 = pair_sim(ids, {("a", "b"): 0.9, ("a", "c"): 0.8, ("a", "d"): 0.1,
                            ("b", "c"): 0.7, ("b", "d"): 0.2, ("c", "d"): 0.3},
                      name="s1")
        s2 = pair_sim(ids, {("a", "b"): 0.9, ("a", "d"): 0.8, ("a", "c"): 0.1,
                            ("b", "d"): 0.7, ("b", "c"): 0.2, ("c", "d"): 0.3},
                      name="s2")
        # every item shares exactly one of its two top neighbors
        assert agreement_topn(s1, s2, 2) == pytest.approx(0.5)

    def test_identical_rankings_score_one(self):
        rng = np.random.default_rng(3)
        s = random_similarity(rng, n=8)
        assert agreement_topn(s, s, 3) == 1.0

    def test_ties_break_by_item_id(self):
        ids = ("a", "b", "c")
        s1 = pair_sim(ids, {("a", "b"): 0.5, ("a", "c"): 0.5, ("b", "c"): 0.0}, "s1")
        s2 = pair_sim(ids, {("a", "b"): 0.1, ("a", "c"): 0.9, ("b", "c"): 0.0}, "s2")
        # item a ties b and c at 0.5 in s1 and must pick b (smaller id),
        # missing s2's pick c; items b and c both pick a in both matrices
        assert agreement_topn(s1, s2, 1) == pytest.approx(2 / 3)

    def test_items_with_too_few_neighbors_are_skipped(self):
        v = np.array([[1.0, np.nan, np.nan],
                      [np.nan, 1.0, 0.5],
                      [np.nan, 0.5, 1.0]])
        s1, s2 = sim(v, name="x"), sim(v.copy(), name="y")
        assert agreement_topn(s1, s2, 1) == 1.0  # item a skipped, b and c agree

    def test_no_item_with_enough_neighbors(self):
        v = np.full((3, 3), np.nan)
        np.fill_diagonal(v, 1.0)
        s1, s2 = sim(v, name="x"), sim(v.copy(), name="y")
        with pytest.raises(ItemsimError, match="no item has 2 defined neighbors"):
            agreement_topn(s1, s2, 2)

    def test_n_must_be_positive(self):
        s = sim(np.eye(2))
        with pytest.raises(ItemsimError, match="positive"):
            agreement_topn(s, s, 0)


def _tied_similarity(rng, n, ids):
    """A symmetric matrix rounded to 2 decimals (many ties) with NaN pairs,
    signed zeros and infinities among the off-diagonal entries."""
    values = np.round(rng.uniform(-0.05, 0.05, size=(n, n)), 2)
    special = rng.choice(np.array([np.nan, 0.0, -0.0, np.inf, -np.inf]), size=(n, n))
    values = np.where(rng.random((n, n)) < rng.uniform(0.0, 0.5), special, values)
    i, j = np.tril_indices(n, k=-1)
    values[i, j] = values[j, i]
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(item_ids=ids, values=values, measure_name="m")


class TestAgreementTopnMatchesReference:
    """The row-sort top-n equals the per-item candidate loop with ==, or
    raises the same error."""

    def test_random_tied_matrices(self):
        rng = np.random.default_rng(63)
        pool = ["b", "a", "B", "a0", "a_", "Z9", "é", "10", "9", "", "aa", "ab"]
        values = 0
        for trial in range(300):
            k = int(rng.integers(1, len(pool) + 1))
            ids = tuple(rng.permutation(pool)[:k])  # unsorted ids
            s1, s2 = _tied_similarity(rng, k, ids), _tied_similarity(rng, k, ids)
            for n in (1, 2, 3, k):
                outcomes = []
                for topn in (agreement_topn, reference_agreement_topn):
                    try:
                        outcomes.append(topn(s1, s2, n))
                    except ItemsimError as e:
                        outcomes.append(str(e))
                assert outcomes[0] == outcomes[1], (trial, n)
                values += isinstance(outcomes[0], float)
        assert values > 600

    def test_signed_zero_ties_break_by_id(self):
        ids = ("c", "a", "b")
        s1 = pair_sim(ids, {("c", "a"): -0.0, ("c", "b"): 0.0, ("a", "b"): 0.5}, "s1")
        s2 = pair_sim(ids, {("c", "a"): 0.0, ("c", "b"): -0.0, ("a", "b"): 0.5}, "s2")
        # -0.0 == 0.0: item c picks a, the smaller id, in both matrices
        assert agreement_topn(s1, s2, 1) == reference_agreement_topn(s1, s2, 1) == 1.0

    def test_defined_minus_inf_is_a_neighbor(self):
        nan, inf = np.nan, np.inf
        s1 = sim([[1.0, -inf, nan], [-inf, 1.0, 0.5], [nan, 0.5, 1.0]], name="x")
        s2 = sim([[1.0, nan, 0.3], [nan, 1.0, 0.5], [0.3, 0.5, 1.0]], name="y")
        # item a's one defined neighbor is b at -inf in s1 and c in s2: a is
        # kept with overlap 0, and b and c agree
        assert agreement_topn(s1, s2, 1) == reference_agreement_topn(s1, s2, 1) == 2 / 3


class TestAgreementMatrix:
    def make_measures(self, k=3, n=6, seed=0):
        rng = np.random.default_rng(seed)
        return [random_similarity(rng, n=n, name=f"m{i}") for i in range(k)]

    def test_identical_measures_agree_exactly(self):
        rng = np.random.default_rng(1)
        s = random_similarity(rng, n=5, name="one")
        t = SimilarityMatrix(s.item_ids, s.values.copy(), "two")
        a = agreement_matrix([s, t])
        assert a.values.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert a.measure_names == ("one", "two")
        assert a.method == "correlation"

    def test_topn_method(self):
        measures = self.make_measures()
        a = agreement_matrix(measures, method="top:2")
        assert a.method == "top:2"
        assert np.all(np.diag(a.values) == 1.0)
        assert np.all((a.values >= 0) & (a.values <= 1))

    def test_needs_two_measures(self):
        with pytest.raises(ItemsimError, match="at least 2 measures"):
            agreement_matrix(self.make_measures(k=1))

    def test_duplicate_names_rejected(self):
        rng = np.random.default_rng(2)
        s = random_similarity(rng, n=5, name="same")
        t = random_similarity(rng, n=5, name="same")
        with pytest.raises(ItemsimError, match="duplicate measure names"):
            agreement_matrix([s, t])

    def test_unknown_method(self):
        with pytest.raises(ItemsimError, match="unknown agreement method"):
            agreement_matrix(self.make_measures(), method="spearman")

    def test_topn_warns_and_scores_as_pair_by_pair_calls(self, caplog):
        # in measure k, item k's one defined neighbor is item 6, so each pair
        # skips its own two items; the matrix takes each measure's neighbor
        # sets once, and must log and score as agreement_topn pair by pair
        measures = self.make_measures(k=3, n=7, seed=8)
        for k, m in enumerate(measures):
            others = [j for j in range(6) if j != k]
            m.values[k, others] = m.values[others, k] = np.nan
        caplog.set_level("WARNING", logger="itemsim.analysis")
        a = agreement_matrix(measures, method="top:2")
        from_matrix = [r.getMessage() for r in caplog.records]
        caplog.clear()
        pairs = {(x, y): agreement_topn(measures[x], measures[y], 2)
                 for x, y in itertools.combinations(range(3), 2)}
        assert from_matrix == [r.getMessage() for r in caplog.records]
        assert [m.split(": ")[-1] for m in from_matrix] == ["i00, i01", "i00, i02", "i01, i02"]
        assert all(a.values[x, y] == a.values[y, x] == v for (x, y), v in pairs.items())
        with pytest.raises(ItemsimError, match="unknown agreement method"):
            agreement_matrix(self.make_measures(), method="top:0")

    def test_validation_of_matrix_object(self):
        with pytest.raises(ItemsimError, match="diagonal"):
            AgreementMatrix(("x", "y"), np.array([[0.5, 0.2], [0.2, 1.0]]),
                            "correlation")


class TestMetaAgreement:
    def test_two_by_two_has_too_few_entries(self):
        a = AgreementMatrix(("x", "y"), np.array([[1.0, 0.5], [0.5, 1.0]]),
                            "correlation")
        with pytest.raises(ItemsimError, match="only 1 off-diagonal"):
            meta_agreement(a, a)

    def test_identical_methods_correlate_perfectly(self):
        names = ("x", "y", "z")
        v = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.7], [0.2, 0.7, 1.0]])
        a1 = AgreementMatrix(names, v, "correlation")
        a2 = AgreementMatrix(names, (v + np.eye(3)) / 2, "top:3")
        assert meta_agreement(a1, a2) == pytest.approx(1.0, abs=1e-12)

    def test_measure_set_mismatch(self):
        v = np.eye(3)
        a1 = AgreementMatrix(("x", "y", "z"), v, "correlation")
        a2 = AgreementMatrix(("x", "y", "w"), v, "correlation")
        with pytest.raises(ItemsimError, match="different measure sets"):
            meta_agreement(a1, a2)


class TestSplitHalfStability:
    def test_structured_performance_is_stable(self):
        corpus = generate_corpus(CorpusSpec(n_items=12, n_levels=3, seed=5))
        records = generate_performance(
            corpus, PerfSpec(n_learners=300, skill_sd=1.0, noise_sd=0.4, seed=5))
        assert split_half_stability(records, seed=0) > 0.5

    def test_pure_noise_is_unstable(self):
        corpus = generate_corpus(CorpusSpec(n_items=10, n_levels=1, seed=7))
        records = generate_performance(
            corpus, PerfSpec(n_learners=500, skill_sd=0.0, difficulty_sd=0.0,
                             noise_sd=1.0, seed=7))
        assert abs(split_half_stability(records, seed=0)) < 0.15

    def test_bit_reproducible(self):
        corpus = generate_corpus(CorpusSpec(n_items=8, n_levels=2, seed=3))
        records = generate_performance(corpus, PerfSpec(n_learners=60, seed=3))
        a = split_half_stability(records, min_overlap=5, seed=11)
        b = split_half_stability(records, min_overlap=5, seed=11)
        assert a == b

    def test_seed_changes_split(self):
        corpus = generate_corpus(CorpusSpec(n_items=8, n_levels=2, seed=3))
        records = generate_performance(
            corpus, PerfSpec(n_learners=40, noise_sd=1.5, seed=3))
        values = {split_half_stability(records, min_overlap=5, seed=s) for s in range(8)}
        assert len(values) > 1

    def test_halves_of_rounding_noise_have_zero_variance(self):
        # with one common learner allowed, one half's defined pairs all
        # correlate -1 up to rounding; their Pearson correlation with the
        # other half would depend on the summation order (-0.29 or -0.82)
        corpus = generate_corpus(CorpusSpec(n_items=10, n_levels=3, seed=11))
        table = generate_performance(corpus, PerfSpec(n_learners=60, solve_prob=0.2, seed=11))
        with pytest.raises(ItemsimError, match="^zero variance over common pairs$"):
            split_half_stability(table, min_overlap=1, seed=3)

    def test_needs_two_learners(self):
        table = PerformanceTable.from_records([("solo", "a", 1.0, True)])
        with pytest.raises(ItemsimError, match="at least 2 learners"):
            split_half_stability(table)


def _outcome(f, *args):
    try:
        return f(*args)
    except ItemsimError as e:
        return str(e)


def _assert_split_half_matches(table, rows, measure, min_overlap, seed):
    """Each half's perfcorr has the reference's missing entries and values
    within 1e-12; split_half_stability gives the same error as the
    agreement correlation of the reference halves, or a scalar within
    1e-12 times the conditioning of that correlation: over m pair values it
    moves by up to 2 sqrt(m) / (the smaller centred norm of the two halves'
    values) times the change in its inputs, without bound when one half's
    values are all -1 or 1 up to rounding."""
    s1, s2 = reference_split_halves(rows, measure, min_overlap, seed)
    n = len(table.learner_ids)
    first = np.zeros(n, dtype=bool)
    first[np.random.default_rng(seed).permutation(n)[: (n + 1) // 2]] = True
    for half, want in ((first, s1), (~first, s2)):
        got = performance_similarity(table.learner_rows(half), measure, min_overlap,
                                     table.item_ids).values
        assert np.array_equal(np.isnan(got), np.isnan(want.values))
        assert np.nanmax(np.abs(got - want.values), initial=0.0) <= 1e-12
    got = _outcome(split_half_stability, table, measure, min_overlap, seed)
    want = _outcome(agreement_correlation, s1, s2)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return False
    # the values analysis._upper_correlation correlates: the upper-triangle
    # pairs defined in both halves
    i, j = np.triu_indices(len(table.item_ids), k=1)
    x, y = s1.values[i, j], s2.values[i, j]
    defined = ~(np.isnan(x) | np.isnan(y))
    x, y = x[defined], y[defined]
    spread = min(np.linalg.norm(x - x.mean()), np.linalg.norm(y - y.mean()))
    assert abs(got - want) <= 1e-12 * max(1.0, 2.0 * np.sqrt(len(x)) / spread), (got, want)
    return True


class TestSplitHalfMatchesReference:
    """The row-mask split over Gram-product perfcorr matches the per-record
    split with a per-pair loop."""

    def test_random_rows(self):
        rng = np.random.default_rng(62)
        values = 0
        for trial in range(60):
            rows = scrambled_records(rng, n_learners=int(rng.integers(2, 30)),
                                     n_items=int(rng.integers(2, 7)),
                                     attempt_prob=float(rng.uniform(0.3, 1.0)))
            table = PerformanceTable.from_records(rows)
            for seed in (0, 3):
                args = (("log_time", "success")[trial % 2], int(rng.integers(1, 6)), seed)
                values += _assert_split_half_matches(table, rows, *args)
        assert values > 30  # most cases reach a scalar, not an error

    def test_generated_tables(self):
        # sparse attempts leave learners, and at seed 11 an item, without an
        # attempt; the table drops them as the record list did
        for seed in (1, 11):
            corpus = generate_corpus(CorpusSpec(n_items=10, n_levels=3, seed=seed))
            for n_learners, solve_prob in ((60, 0.2), (30, 0.1)):
                table = generate_performance(
                    corpus, PerfSpec(n_learners=n_learners, solve_prob=solve_prob, seed=seed))
                attempted = ~np.isnan(table.time_seconds)
                assert attempted.any(axis=0).all() and attempted.any(axis=1).all()
                assert len(table.learner_ids) < n_learners
                rows = [(table.learner_ids[i], table.item_ids[j], table.time_seconds[i, j], True)
                        for i, j in zip(*np.nonzero(attempted))]
                for split_seed in (0, 3):
                    _assert_split_half_matches(table, rows, "log_time", 1, split_seed)


class TestKmeans:
    def test_k_equals_n_gives_singletons(self):
        rng = np.random.default_rng(4)
        s = random_similarity(rng, n=5)
        p = kmeans(s, k=5, seed=0)
        assert sorted(p.labels) == [0, 1, 2, 3, 4]

    def test_duplicate_rows_cluster_together(self):
        v = np.array([
            [1.0, 1.0, 0.2, 0.3],
            [1.0, 1.0, 0.2, 0.3],
            [0.2, 0.2, 1.0, 0.9],
            [0.3, 0.3, 0.9, 1.0],
        ])
        p = kmeans(sim(v), k=2, seed=0)
        assert p.labels[0] == p.labels[1]

    def test_recovers_two_blocks_and_matches_exhaustive_wcss(self):
        ids = tuple("abcdef")
        v = np.full((6, 6), 0.1)
        v[:3, :3] = 0.9
        v[3:, 3:] = 0.9
        np.fill_diagonal(v, 1.0)
        s = sim(v, ids=ids)
        p = kmeans(s, k=2, seed=0, restarts=5)
        assert len(set(p.labels[:3])) == 1
        assert len(set(p.labels[3:])) == 1
        assert p.labels[0] != p.labels[3]
        oracle_labels, _ = oracle_best_two_partition(v)
        assert rand_index(p, Partition(ids, oracle_labels)) == 1.0

    def test_objective_increase_raises(self, monkeypatch):
        # a raise, not an assert, so the check also runs under python -O
        growing = itertools.count()
        monkeypatch.setattr(analysis, "_wcss", lambda *args: float(next(growing)))
        s = random_similarity(np.random.default_rng(4), n=5)
        with pytest.raises(ItemsimError, match="k-means objective increased"):
            kmeans(s, k=2, seed=0)

    def test_missing_entries_rejected(self):
        rng = np.random.default_rng(5)
        s = random_similarity(rng, n=6, missing=0.3)
        with pytest.raises(ItemsimError, match="missing entries"):
            kmeans(s, k=2)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(6)
        s = random_similarity(rng, n=4)
        with pytest.raises(ItemsimError, match="out of range"):
            kmeans(s, k=0)
        with pytest.raises(ItemsimError, match="out of range"):
            kmeans(s, k=5)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(7)
        s = random_similarity(rng, n=12)
        assert kmeans(s, k=3, seed=9).labels == kmeans(s, k=3, seed=9).labels


def _nearest_sweep() -> tuple[int, int]:
    """(rows, rows whose label differs) of _nearest against the broadcast
    reference: random points and centres at scales 1e-3 to 1e3, duplicate
    centres, midpoints of two centres and integer grids."""
    rng = np.random.default_rng(21)
    rows = differ = 0
    for trial in range(400):
        scale = 10.0 ** rng.uniform(-3, 3)
        n, d, k = int(rng.integers(1, 50)), int(rng.integers(1, 30)), int(rng.integers(1, 10))
        if trial % 4 == 3:  # an integer grid: many exactly equal distances
            x = rng.integers(-3, 4, size=(n, d)).astype(float)
            centers = rng.integers(-3, 4, size=(k, d)).astype(float)
        else:
            x = rng.standard_normal((n, d)) * scale
            centers = np.concatenate([x[rng.integers(n, size=k)],
                                      rng.standard_normal((k, d)) * scale])
        centers[rng.integers(len(centers))] = centers[0]  # a duplicate centre
        a, b = rng.integers(len(centers), size=(2, n))
        x = np.concatenate([x, (centers[a] + centers[b]) / 2])  # equidistant points
        got, want = analysis._nearest(x, centers), reference_nearest(x, centers)
        rows += len(x)
        differ += int((got != want).sum())
    return rows, differ


class TestNearestMatchesReference:
    """k-means assignment by Gram products, its close rows re-checked,
    against the broadcast sums: equal labels."""

    def test_equal_labels_at_every_scale_and_on_ties(self):
        rows, differ = _nearest_sweep()
        assert rows > 15_000 and differ == 0

    def test_the_recheck_is_needed(self, monkeypatch):
        monkeypatch.setattr(analysis, "_GRAM_TOL", 0.0)
        assert _nearest_sweep()[1] > 0


class TestRandIndex:
    def test_alternating_pair_example(self):
        ids = tuple("abcd")
        p1 = Partition(ids, (0, 0, 1, 1))
        p2 = Partition(ids, (0, 1, 0, 1))
        assert rand_index(p1, p2) == pytest.approx(1 / 3)

    def test_identical_partitions(self):
        ids = tuple("abcd")
        p = Partition(ids, (0, 1, 1, 0))
        assert rand_index(p, p) == 1.0

    def test_label_permutation_invariant(self):
        ids = tuple("abcde")
        p1 = Partition(ids, (0, 0, 1, 2, 1))
        p2 = Partition(ids, (2, 2, 0, 1, 0))
        assert rand_index(p1, p2) == 1.0

    def test_item_mismatch_and_size(self):
        with pytest.raises(ItemsimError, match="different item sets"):
            rand_index(Partition(("a",), (0,)), Partition(("b",), (0,)))
        with pytest.raises(ItemsimError, match="at least 2 items"):
            rand_index(Partition(("a",), (0,)), Partition(("a",), (0,)))

    def test_partition_validation(self):
        with pytest.raises(ItemsimError, match="one label per item"):
            Partition(("a", "b"), (0,))
        with pytest.raises(ItemsimError, match="non-negative"):
            Partition(("a",), (-1,))


class TestClusterEval:
    def test_clean_blocks_score_one(self):
        v = np.full((6, 6), 0.1)
        v[:3, :3] = 0.9
        v[3:, 3:] = 0.9
        np.fill_diagonal(v, 1.0)
        s = sim(v, ids=tuple("abcdef"))
        manual = Partition(tuple("abcdef"), (0, 0, 0, 1, 1, 1))
        assert cluster_eval(s, manual, k=2, runs=5, seed=0) == 1.0

    def test_manual_partition_must_match(self):
        rng = np.random.default_rng(8)
        s = random_similarity(rng, n=4)
        manual = Partition(("x", "y", "z", "w"), (0, 1, 0, 1))
        with pytest.raises(ItemsimError, match="manual partition"):
            cluster_eval(s, manual, k=2)

    def test_mean_over_seeded_runs(self):
        rng = np.random.default_rng(9)
        s = random_similarity(rng, n=10)
        manual = Partition(s.item_ids, tuple(i % 2 for i in range(10)))
        expected = np.mean([
            rand_index(kmeans(s, 3, seed=4 + r), manual) for r in range(6)
        ])
        assert cluster_eval(s, manual, k=3, runs=6, seed=4) == pytest.approx(expected)


class TestHierarchicalOrder:
    def test_single_item(self):
        assert hierarchical_order(sim([[1.0]])) == [0]

    def test_identical_rows_end_up_adjacent(self):
        # a and c are identical (similarity 1 = max), so their distance is 0
        # and they merge first
        v = np.array([
            [1.0, 0.2, 1.0, 0.4],
            [0.2, 1.0, 0.2, 0.6],
            [1.0, 0.2, 1.0, 0.4],
            [0.4, 0.6, 0.4, 1.0],
        ])
        order = hierarchical_order(sim(v))
        pos = {idx: rank for rank, idx in enumerate(order)}
        assert abs(pos[0] - pos[2]) == 1

    def test_returns_permutation(self):
        rng = np.random.default_rng(10)
        s = random_similarity(rng, n=9)
        assert sorted(hierarchical_order(s)) == list(range(9))

    def test_missing_entries_rejected(self):
        rng = np.random.default_rng(11)
        s = random_similarity(rng, n=5, missing=0.4)
        with pytest.raises(ItemsimError, match="missing entries"):
            hierarchical_order(s)

    @pytest.mark.filterwarnings("error")
    def test_largest_entry_not_finite_rejected(self):
        # max(S) - S would hold NaN: -inf - -inf everywhere, or inf - inf
        all_minus_inf = np.full((3, 3), -np.inf)
        one_plus_inf = np.array([[1.0, 0.2, 0.3], [0.2, np.inf, 0.4], [0.3, 0.4, 1.0]])
        for values in (all_minus_inf, one_plus_inf):
            with pytest.raises(ItemsimError, match="largest entry -?inf"):
                hierarchical_order(sim(values))


def _symmetric(raw):
    return np.triu(raw) + np.triu(raw, 1).T


@pytest.mark.filterwarnings("error")
class TestHierarchicalOrderMatchesReference:
    """The numpy merge loop equals the nested-list loop with ==, ties and
    infinite dissimilarities included, and never warns."""

    def _check(self, values):
        s = sim(_symmetric(np.asarray(values, dtype=np.float64)))
        assert hierarchical_order(s) == reference_hierarchical_order(s)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tiny(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            self._check(rng.normal(size=(n, n)).round(int(rng.integers(0, 3))))

    def test_rounded_random_matrices(self):
        # 0-2 decimals: many tied distances, also between merged clusters
        rng = np.random.default_rng(31)
        for _ in range(400):
            n = int(rng.integers(2, 15))
            self._check(rng.normal(size=(n, n)).round(int(rng.integers(0, 3))))

    def test_all_equal(self):
        for n in (2, 5, 9):
            self._check(np.full((n, n), 0.3))

    def test_signed_zero_ties(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            self._check(rng.choice([0.0, -0.0, -1.0], size=(n, n)))

    def test_infinite_dissimilarities(self):
        # S spanning beyond float64, and a -inf similarity, give d = inf;
        # masked cells must not win the ties between them
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            values = rng.choice([-1e308, 1.5e308, 0.0, -np.inf], size=(n, n))
            np.fill_diagonal(values, 1.5e308)
            self._check(values)
        self._check([[0.0, -np.inf, -np.inf], [0.0, 0.0, -np.inf], [0.0, 0.0, 0.0]])
        every_pair_infinite = np.full((4, 4), -np.inf)
        np.fill_diagonal(every_pair_infinite, 0.0)
        self._check(every_pair_infinite)
