"""Feature extraction per source and the transformation algebra."""

import math

import numpy as np
import pytest

from itemsim import (
    Corpus,
    FeatureMatrix,
    Item,
    ItemsimError,
    PerformanceTable,
    Solution,
    WorldSpec,
    apply_transform,
    apply_transforms,
    combine_matrices,
    concat_features,
    node,
    performance_features,
    restrict_items,
    solution_keyword_features,
    statement_bow,
    structural_features,
    world_features,
)
from itemsim.features import tokenize_statement

from conftest import make_tiny_corpus


def fm(values, names=None, group="statement"):
    values = np.asarray(values, dtype=np.float64)
    names = names or tuple(f"f{j}" for j in range(values.shape[1]))
    return FeatureMatrix(
        item_ids=tuple(f"i{i}" for i in range(values.shape[0])),
        groups=(group,) * len(names),
        names=tuple(names),
        values=values,
    )


class TestFeatureMatrix:
    def test_shape_mismatch(self):
        with pytest.raises(ItemsimError, match="shape"):
            FeatureMatrix(("a",), ("statement",), ("x", "y"), np.zeros((1, 1)))

    def test_unknown_group(self):
        with pytest.raises(ItemsimError, match="group"):
            fm([[1.0]], group="misc")

    def test_duplicate_names_within_group(self):
        with pytest.raises(ItemsimError, match="duplicate feature"):
            FeatureMatrix(("a",), ("statement",) * 2, ("x", "x"), np.zeros((1, 2)))

    def test_same_name_across_groups_is_fine(self):
        m = FeatureMatrix(("a",), ("statement", "solution"), ("move", "move"),
                          np.zeros((1, 2)))
        assert m.full_names == ("statement:move", "solution:move")

    def test_non_finite_values(self):
        with pytest.raises(ItemsimError, match="finite"):
            fm([[float("nan")]])


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize_statement("Collect the Diamond!") == ["collect", "the", "diamond"]

    def test_drops_single_characters(self):
        assert tokenize_statement("a robot, a plan") == ["robot", "plan"]

    def test_stopwords(self):
        assert tokenize_statement("move to the wall", frozenset({"the", "to"})) == [
            "move", "wall"]

    def test_digits_kept(self):
        assert tokenize_statement("a 10 by 12 grid") == ["10", "by", "12", "grid"]
        assert tokenize_statement("grid 10x10") == ["grid", "10x10"]


class TestSourceExtractors:
    def test_statement_bow_counts(self):
        corpus = make_tiny_corpus()
        m = statement_bow(corpus)
        assert m.item_ids == ("alpha", "beta", "gamma")
        assert all(g == "statement" for g in m.groups)
        assert list(m.names) == sorted(m.names)
        j = m.names.index("the")
        assert m.values[0, j] == 2.0  # "the diamond ... the fuel"
        assert m.values[2, m.names.index("wall")] == 1.0

    def test_statement_bow_missing_statement_gives_zero_row(self):
        items = (
            Item(id="a", statement_text="move move"),
            Item(id="b", solutions=(Solution(ast=node("move")),)),
        )
        m = statement_bow(Corpus(items))
        assert m.values[1].sum() == 0.0

    def test_solution_keywords_sample(self):
        m = solution_keyword_features(make_tiny_corpus(), "sample")
        assert m.item_ids == ("alpha", "beta", "gamma")
        assert m.values[0, m.names.index("move")] == 2.0
        assert m.values[0, m.names.index("program")] == 1.0
        assert m.values[2, m.names.index("while_wall")] == 1.0

    def test_solution_keywords_weighted_average(self):
        # alpha learners: repeat 2 { move } shoot (w=3), move shoot (w=1);
        # sample move move shoot (w=1). "move" counts 1, 1, 2 -> (3+1+2)/5
        m = solution_keyword_features(make_tiny_corpus(), "all")
        assert m.values[0, m.names.index("move")] == pytest.approx(6 / 5)
        assert m.values[0, m.names.index("repeat_2")] == pytest.approx(3 / 5)

    def test_solution_keywords_skips_items_without_match(self, caplog):
        items = (
            Item(id="a", solutions=(Solution(ast=node("move"), kind="sample"),)),
            Item(id="b", statement_text="no code"),
        )
        with caplog.at_level("WARNING", logger="itemsim.features"):
            m = solution_keyword_features(Corpus(items), "sample")
        assert m.item_ids == ("a",)
        assert "excluded 1 items" in caplog.text

    def test_solution_keywords_no_items_at_all(self):
        items = (Item(id="a", statement_text="x"),)
        with pytest.raises(ItemsimError, match="no item"):
            solution_keyword_features(Corpus(items), "sample")

    def test_structural(self):
        item = Item(
            id="a",
            solutions=(Solution(ast=node("program", node("repeat_2", node("if_wall", node("shoot")))),
                                kind="sample"),),
        )
        m = structural_features(Corpus((item,)))
        assert m.names == ("node_count", "max_depth", "uses_functions")
        assert list(m.values[0]) == [4.0, 4.0, 0.0]

    def test_structural_detects_functions(self):
        item = Item(id="a", solutions=(
            Solution(ast=node("program", node("def_go", node("move")), node("call_go")),
                     kind="sample"),))
        m = structural_features(Corpus((item,)))
        assert m.values[0, 2] == 1.0

    def test_world(self):
        m = world_features(make_tiny_corpus())
        assert m.item_ids == ("alpha", "beta")  # gamma has no world
        assert m.names == ("diamond", "meteorite", "grid_rows", "grid_cols",
                           "command_limit")
        assert list(m.values[0]) == [1.0, 1.0, 2.0, 3.0, 10.0]
        assert list(m.values[1]) == [1.0, 2.0, 2.0, 3.0, 0.0]

    def test_performance(self):
        e = math.e
        table = PerformanceTable.from_records([
            ("l1", "a", e, True),
            ("l2", "a", e, True),
            ("l1", "b", 1.0, True),
            ("l2", "b", 1.0, False),
            ("l3", "b", 1.0, True),
            ("l4", "b", 1.0, True),
        ])
        m = performance_features(table)
        assert m.item_ids == ("a", "b")
        assert m.values[0, 0] == pytest.approx(1.0)   # mean log time
        assert m.values[0, 1] == pytest.approx(0.0)   # population variance
        assert m.values[1, 2] == pytest.approx(0.75)  # success rate

    def test_performance_respects_item_order(self):
        table = PerformanceTable.from_records([("l", i, 2.0, True) for i in ("b", "a")])
        m = performance_features(table, item_ids=("b", "a"))
        assert m.item_ids == ("b", "a")

    def test_performance_empty(self):
        with pytest.raises(ItemsimError, match="no performance"):
            performance_features(PerformanceTable.from_records([]))

    def test_skip_warnings(self, caplog):
        # a: a statement only; b: a world and a learner solution; c: a world,
        # a sample solution and records
        world = WorldSpec(grid=("D",), legend={"D": "diamond"})
        corpus = Corpus((
            Item(id="a", statement_text="text"),
            Item(id="b", world=world, solutions=(Solution(ast=node("move"), kind="learner"),)),
            Item(id="c", world=world, solutions=(Solution(ast=node("move"), kind="sample"),)),
        ))
        table = PerformanceTable.from_records([("l1", "c", 2.0, True)])
        sources = (
            (lambda: solution_keyword_features(corpus, "sample"), ("c",),
             "solution features (sample): excluded 2 items without a matching solution: a, b"),
            (lambda: structural_features(corpus), ("b", "c"),
             "structural features: excluded 1 items without solutions: a"),
            (lambda: world_features(corpus), ("b", "c"),
             "world features: excluded 1 items without worlds: a"),
            (lambda: performance_features(table, corpus.item_ids), ("c",),
             "performance features: excluded 2 items without records: a, b"),
        )
        for build, kept, message in sources:
            caplog.clear()
            with caplog.at_level("WARNING", logger="itemsim.features"):
                assert build().item_ids == kept
            assert [(r.levelname, r.getMessage()) for r in caplog.records] == [("WARNING", message)]

    def test_no_item_left_raises_without_a_warning(self, caplog):
        corpus = Corpus((Item(id="a", statement_text="text"),))
        table = PerformanceTable.from_records([("l1", "b", 2.0, True)])
        sources = (
            (lambda: solution_keyword_features(corpus, "all"),
             "no item has a solution under selector 'all'"),
            (lambda: structural_features(corpus), "no item has a solution"),
            (lambda: world_features(corpus), "no item has a world"),
            (lambda: performance_features(table, corpus.item_ids), "no performance records"),
        )
        for build, message in sources:
            caplog.clear()
            with caplog.at_level("WARNING", logger="itemsim.features"):
                with pytest.raises(ItemsimError) as error:
                    build()
            assert str(error.value) == message
            assert not caplog.records


class TestTransforms:
    def test_spec_validation(self):
        with pytest.raises(ItemsimError, match="unknown transform tokens: sqrt"):
            apply_transform(fm([[1.0]]), "sqrt")
        with pytest.raises(ItemsimError, match="unknown transform tokens: 2"):
            apply_transforms(fm([[1.0]]), ["log", 2])

    def test_binarize(self):
        m = apply_transform(fm([[0, 2], [3, 0]]), "bin")
        assert m.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_binarize_idempotent(self):
        m = fm([[0, 2], [3, 0]])
        once = apply_transform(m, "bin")
        twice = apply_transform(once, "bin")
        assert np.array_equal(once.values, twice.values)

    def test_log(self):
        m = apply_transform(fm([[0.0], [math.e - 1]]), "log")
        assert m.values[0, 0] == 0.0
        assert m.values[1, 0] == pytest.approx(1.0)

    def test_log_rejects_negatives(self):
        with pytest.raises(ItemsimError, match="non-negative"):
            apply_transform(fm([[-1.0]]), "log")

    def test_max_normalize(self):
        m = apply_transform(fm([[2.0], [4.0], [0.0]]), "max")
        assert m.values[:, 0].tolist() == [0.5, 1.0, 0.0]

    def test_max_normalize_keeps_all_zero_features(self):
        m = apply_transform(fm([[0.0, 1.0], [0.0, 3.0]]), "max")
        assert m.values[:, 0].tolist() == [0.0, 0.0]

    def test_max_normalize_handles_negatives(self):
        m = apply_transform(fm([[-2.0], [4.0]]), "max")
        assert m.values[:, 0].tolist() == [-0.5, 1.0]

    def test_idf(self):
        # feature present in 1 of 4 items, value 2 -> 2 ln 4
        values = [[2.0], [0.0], [0.0], [0.0]]
        m = apply_transform(fm(values), "idf")
        assert m.values[0, 0] == pytest.approx(2 * math.log(4))

    def test_idf_everywhere_present_zeroes_out(self):
        m = apply_transform(fm([[1.0], [2.0]]), "idf")
        assert m.values[:, 0].tolist() == [0.0, 0.0]

    def test_idf_absent_feature_unchanged(self):
        m = apply_transform(fm([[0.0], [0.0]]), "idf")
        assert m.values[:, 0].tolist() == [0.0, 0.0]

    def test_scale_targets_one_group(self):
        m = FeatureMatrix(
            item_ids=("a",),
            groups=("statement", "solution"),
            names=("x", "y"),
            values=np.array([[2.0, 2.0]]),
        )
        out = apply_transform(m, "weights")
        assert out.values.tolist() == [[2.0, 10.0]]

    def test_pipeline_order_matters(self):
        m = fm([[3.0], [1.0]])
        log_then_max = apply_transforms(
            m, ["log", "max"])
        max_then_log = apply_transforms(
            m, ["max", "log"])
        assert not np.allclose(log_then_max.values, max_then_log.values)


class TestCombineAndConcat:
    def test_concat(self):
        a = fm([[1.0]], names=("x",), group="statement")
        b = fm([[2.0]], names=("x",), group="solution")
        m = concat_features([a, b])
        assert m.full_names == ("statement:x", "solution:x")
        assert m.values.tolist() == [[1.0, 2.0]]

    def test_concat_item_mismatch(self):
        a = fm([[1.0]])
        b = FeatureMatrix(("other",), ("solution",), ("y",), np.array([[2.0]]))
        with pytest.raises(ItemsimError, match="different item sets"):
            concat_features([a, b])

    def test_restrict_items(self):
        m = fm([[1.0], [2.0], [3.0]])
        out = restrict_items(m, ("i2", "i0"))
        assert out.item_ids == ("i2", "i0")
        assert out.values[:, 0].tolist() == [3.0, 1.0]
        with pytest.raises(ItemsimError, match="not in feature matrix"):
            restrict_items(m, ("i9",))

    def test_average_default(self):
        out = combine_matrices([np.array([[1.0]]), np.array([[3.0]])])
        assert out.tolist() == [[2.0]]

    def test_average_weighted(self):
        out = combine_matrices(
            [np.array([[0.0]]), np.array([[4.0]])], weights=[3.0, 1.0])
        assert out.tolist() == [[1.0]]

    def test_min_and_max(self):
        a, b = np.array([[1.0, 4.0]]), np.array([[3.0, 2.0]])
        assert combine_matrices([a, b], "min").tolist() == [[1.0, 2.0]]
        assert combine_matrices([a, b], "max").tolist() == [[3.0, 4.0]]

    def test_nan_propagates(self):
        a, b = np.array([[np.nan]]), np.array([[1.0]])
        assert np.isnan(combine_matrices([a, b], "average")[0, 0])
        assert np.isnan(combine_matrices([a, b], "min")[0, 0])

    def test_weights_rejected_for_min(self):
        with pytest.raises(ItemsimError, match="not meaningful"):
            combine_matrices([np.zeros((1, 1))], "min", weights=[1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ItemsimError, match="shapes differ"):
            combine_matrices([np.zeros((1, 1)), np.zeros((2, 1))])

    def test_unknown_method(self):
        with pytest.raises(ItemsimError, match="unknown combination"):
            combine_matrices([np.zeros((1, 1))], "median")
