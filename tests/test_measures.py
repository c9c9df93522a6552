"""Measure-name grammar and the name-to-matrix pipeline."""

import json
from pathlib import Path

import numpy as np
import pytest

from itemsim import (
    FeatureMatrix,
    ItemsimError,
    MeasureName,
    MeasureParams,
    build_features,
    compute_measure,
    edit_similarity,
    format_measure,
    parse_measure,
    performance_similarity,
    similarity_from_features,
)
from itemsim.features import apply_transforms, statement_bow
from itemsim.synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance

from conftest import make_tiny_corpus

FIXTURE = Path(__file__).parent / "fixtures" / "measure_catalog.json"


class TestGrammar:
    def test_bare_names(self):
        for text in ("ted", "levenshtein", "nw", "perfcorr"):
            name = parse_measure(text)
            assert name.source == text
            assert name.metric is None
            assert format_measure(name) == text

    def test_feature_name(self):
        name = parse_measure("bag/log+max+idf+weights/correlation")
        assert name.source == "bag"
        assert name.transforms == ("log", "max", "idf", "weights")
        assert name.metric == "correlation"

    def test_none_transforms(self):
        name = parse_measure("bag/none/euclidean")
        assert name.transforms == ()
        assert format_measure(name) == "bag/none/euclidean"

    def test_round_trip(self):
        for text in ("ted", "statement/bin/cosine", "bag/log+idf/correlation",
                     "world/none/euclidean", "performance/max/correlation"):
            assert format_measure(parse_measure(text)) == text

    def test_whitespace_stripped(self):
        assert parse_measure("  ted \n").source == "ted"

    def test_unknown_bare_name(self):
        with pytest.raises(ItemsimError, match="unknown measure"):
            parse_measure("jaccard")

    def test_wrong_part_count(self):
        with pytest.raises(ItemsimError, match="expected <source>/<transforms>/<metric>"):
            parse_measure("bag/correlation")
        with pytest.raises(ItemsimError, match="expected <source>"):
            parse_measure("bag/log/extra/correlation")

    def test_bad_transform_list(self):
        with pytest.raises(ItemsimError, match="bad transform list"):
            parse_measure("bag/log++idf/correlation")

    def test_unknown_tokens(self):
        with pytest.raises(ItemsimError, match="unknown transform token"):
            parse_measure("bag/sqrt/correlation")
        with pytest.raises(ItemsimError, match="unknown metric"):
            parse_measure("bag/log/manhattan")
        with pytest.raises(ItemsimError, match="unknown feature source"):
            parse_measure("essay/log/correlation")

    def test_bare_measures_take_no_transforms(self):
        with pytest.raises(ItemsimError, match="takes no transforms"):
            MeasureName(source="ted", transforms=("log",))

    def test_transform_specs_mapping(self):
        m = FeatureMatrix(item_ids=("a",), groups=("statement", "solution"),
                          names=("x", "y"), values=np.array([[2.0, 3.0]]))
        out = apply_transforms(m, ("log", "weights"))
        assert out.values.tolist() == [[np.log1p(2.0), 5.0 * np.log1p(3.0)]]
        with pytest.raises(ItemsimError, match="unknown transform tokens: zip"):
            apply_transforms(m, ("log", "zip"))


class TestFixtureNames:
    def test_all_catalogued_measures_parse_and_round_trip(self):
        names = json.loads(FIXTURE.read_text(encoding="utf-8"))
        assert len(names) == 14
        assert len(set(names)) == 14
        for text in names:
            assert format_measure(parse_measure(text)) == text

    def test_all_catalogued_measures_compute(self):
        corpus = generate_corpus(CorpusSpec(n_items=10, n_levels=2, seed=0))
        records = generate_performance(corpus, PerfSpec(n_learners=40, seed=0))
        params = MeasureParams(min_overlap=5)
        for text in json.loads(FIXTURE.read_text(encoding="utf-8")):
            s = compute_measure(corpus, text, performance=records, params=params)
            assert s.measure_name == text
            assert s.item_ids == corpus.item_ids
            assert np.array_equal(s.values, s.values.T)


class TestBuildFeatures:
    def test_bag_restricts_statements_to_items_with_solutions(self):
        corpus = make_tiny_corpus()
        bag = build_features(corpus, "bag")
        assert bag.item_ids == ("alpha", "beta", "gamma")
        groups = set(bag.groups)
        assert groups == {"statement", "solution"}

    def test_all_selector_maps_to_weighted_average(self):
        corpus = make_tiny_corpus()
        direct = build_features(corpus, "solution",
                                params=MeasureParams(selector="all"))
        from itemsim import solution_keyword_features
        expected = solution_keyword_features(corpus, selector="all")
        assert np.array_equal(direct.values, expected.values)

    def test_performance_source_needs_records(self):
        with pytest.raises(ItemsimError, match="performance features need"):
            build_features(make_tiny_corpus(), "performance")

    def test_unknown_source(self):
        with pytest.raises(ItemsimError, match="unknown feature source"):
            build_features(make_tiny_corpus(), "essay")


class TestComputeMeasure:
    def test_feature_measure_matches_manual_pipeline(self):
        corpus = make_tiny_corpus()
        s = compute_measure(corpus, "statement/log/correlation")
        manual = apply_transforms(statement_bow(corpus), ("log",))
        expected = similarity_from_features(manual, "correlation")
        assert np.array_equal(np.nan_to_num(s.values, nan=-9),
                              np.nan_to_num(expected.values, nan=-9))
        assert s.measure_name == "statement/log/correlation"

    def test_edit_measure_matches_direct_call(self):
        corpus = make_tiny_corpus()
        s = compute_measure(corpus, "ted")
        direct = edit_similarity(corpus, kind="ted")
        assert np.array_equal(s.values, direct.values)
        assert s.measure_name == "ted"

    def test_perfcorr_matches_direct_call(self):
        corpus = generate_corpus(CorpusSpec(n_items=6, n_levels=2, seed=1))
        records = generate_performance(corpus, PerfSpec(n_learners=30, seed=1))
        s = compute_measure(corpus, "perfcorr", performance=records,
                            params=MeasureParams(min_overlap=5))
        direct = performance_similarity(records, min_overlap=5,
                                        item_ids=corpus.item_ids)
        assert np.array_equal(np.nan_to_num(s.values, nan=-9),
                              np.nan_to_num(direct.values, nan=-9))
        assert s.measure_name == "perfcorr"

    def test_perfcorr_without_records(self):
        with pytest.raises(ItemsimError, match="perfcorr needs performance"):
            compute_measure(make_tiny_corpus(), "perfcorr")

    def test_accepts_parsed_names(self):
        corpus = make_tiny_corpus()
        s = compute_measure(corpus, MeasureName("solution", ("bin",), "cosine"))
        assert s.measure_name == "solution/bin/cosine"

    def test_params_thread_through(self):
        corpus = make_tiny_corpus()
        default = compute_measure(corpus, "ted")
        averaged = compute_measure(
            corpus, "ted", params=MeasureParams(selector="all", aggregation="average"))
        assert averaged.measure_name == "ted"
        assert not np.array_equal(default.values, averaged.values)
