"""Synthetic corpus and performance generators."""

import numpy as np
import pytest

from itemsim import (
    CorpusSpec,
    ItemsimError,
    PerfSpec,
    generate_corpus,
    generate_performance,
    level_partition,
    solution_keyword_features,
)
from itemsim import synth
from itemsim.corpus import Corpus, Item, performance_csv
from itemsim.robot import pretty_print
from itemsim.tree import ast_to_document


class TestSpecs:
    def test_corpus_spec_validation(self):
        with pytest.raises(ItemsimError, match="n_items"):
            CorpusSpec(n_items=0)
        with pytest.raises(ItemsimError, match="concepts_per_level"):
            CorpusSpec(concepts_per_level=0)
        with pytest.raises(ItemsimError, match="n_levels cannot exceed"):
            CorpusSpec(n_items=5, n_levels=6)
        with pytest.raises(ItemsimError, match="noise_tokens"):
            CorpusSpec(noise_tokens=-1)

    def test_corpus_spec_budget(self, monkeypatch):
        # 2 items x (200 + 3 + 40 + 3) tokens, and a vocabulary, at the budget
        monkeypatch.setattr(synth, "_SPEC_TOKENS", 492)
        CorpusSpec(n_items=2, n_levels=1, statement_vocab=492)
        with pytest.raises(ItemsimError, match="= 494 tokens is over the budget of 492"):
            CorpusSpec(n_items=2, n_levels=1, statement_len=41)
        with pytest.raises(ItemsimError, match="statement_vocab is over the budget of 492"):
            CorpusSpec(n_items=2, n_levels=1, statement_vocab=493)

    def test_perf_spec_validation(self):
        with pytest.raises(ItemsimError, match="n_learners"):
            PerfSpec(n_learners=0)
        with pytest.raises(ItemsimError, match="solve_prob"):
            PerfSpec(solve_prob=0.0)
        with pytest.raises(ItemsimError, match="solve_prob"):
            PerfSpec(solve_prob=1.5)
        with pytest.raises(ItemsimError, match="noise_sd"):
            PerfSpec(noise_sd=-0.1)


class TestGenerateCorpus:
    def test_items_split_evenly_over_levels(self):
        corpus = generate_corpus(CorpusSpec(n_items=18, n_levels=9, seed=0))
        levels = [it.level for it in corpus.items]
        assert sorted(set(levels)) == list(range(9))
        assert all(levels.count(l) == 2 for l in range(9))

    def test_item_ids_are_zero_padded_and_sorted(self):
        corpus = generate_corpus(CorpusSpec(n_items=12, n_levels=3, seed=0))
        assert corpus.item_ids[0] == "item_000"
        assert corpus.item_ids[-1] == "item_011"

    def test_every_item_is_complete(self):
        corpus = generate_corpus(CorpusSpec(n_items=10, n_levels=2, seed=1))
        for it in corpus.items:
            assert it.statement_text
            assert it.world is not None
            assert it.command_limit >= 1
            assert it.level is not None
            assert it.sample_solution() is not None

    def test_deterministic_per_seed(self):
        a = generate_corpus(CorpusSpec(n_items=8, n_levels=4, seed=3))
        b = generate_corpus(CorpusSpec(n_items=8, n_levels=4, seed=3))
        assert a.item_ids == b.item_ids
        for x, y in zip(a.items, b.items):
            assert x.statement_text == y.statement_text
            assert ast_to_document(x.sample_solution().ast) == ast_to_document(
                y.sample_solution().ast)
        c = generate_corpus(CorpusSpec(n_items=8, n_levels=4, seed=4))
        assert any(x.statement_text != y.statement_text
                   for x, y in zip(a.items, c.items))

    def test_solutions_round_trip_through_robot_source(self):
        from itemsim.robot import parse_robot_program

        corpus = generate_corpus(CorpusSpec(n_items=9, n_levels=3, seed=2))
        for it in corpus.items:
            ast = it.sample_solution().ast
            assert parse_robot_program(pretty_print(ast)) == ast

    def test_level_partition(self):
        corpus = generate_corpus(CorpusSpec(n_items=6, n_levels=3, seed=0))
        p = level_partition(corpus)
        assert p.item_ids == corpus.item_ids
        assert p.labels == (0, 0, 1, 1, 2, 2)

    def test_level_partition_requires_labels(self):
        corpus = Corpus((Item(id="a", statement_text="x"),))
        with pytest.raises(ItemsimError, match="level"):
            level_partition(corpus)

    def test_within_level_solutions_look_more_alike(self):
        gaps = []
        for seed in range(5):
            corpus = generate_corpus(CorpusSpec(n_items=12, n_levels=3, seed=seed))
            m = solution_keyword_features(corpus, "sample")
            v = m.values
            norms = np.linalg.norm(v, axis=1, keepdims=True)
            cos = (v / norms) @ (v / norms).T
            levels = np.array([it.level for it in corpus.items])
            same = levels[:, None] == levels[None, :]
            off = ~np.eye(len(v), dtype=bool)
            gaps.append(cos[same & off].mean() - cos[~same].mean())
        assert all(g > 0 for g in gaps)
        assert np.mean(gaps) > 0.05


class TestGeneratePerformance:
    def test_full_attempt_grid(self):
        corpus = generate_corpus(CorpusSpec(n_items=10, n_levels=2, seed=0))
        table = generate_performance(corpus, PerfSpec(n_learners=100, solve_prob=1.0))
        assert len(table) == 1000
        assert np.all(table.success == 1.0)
        assert table.learner_ids[0] == "learner_0000"

    def test_solve_prob_thins_the_grid(self):
        corpus = generate_corpus(CorpusSpec(n_items=10, n_levels=2, seed=0))
        table = generate_performance(
            corpus, PerfSpec(n_learners=100, solve_prob=0.5, seed=1))
        assert 300 < len(table) < 700

    def test_degenerate_model_gives_per_item_constants(self):
        corpus = generate_corpus(CorpusSpec(n_items=6, n_levels=2, seed=0))
        table = generate_performance(
            corpus, PerfSpec(n_learners=5, skill_sd=0.0, difficulty_sd=0.0,
                             noise_sd=0.0))
        for times in table.time_seconds.T:
            assert len(set(times[~np.isnan(times)].tolist())) == 1

    def test_harder_levels_take_longer(self):
        corpus = generate_corpus(CorpusSpec(n_items=10, n_levels=5, seed=0))
        table = generate_performance(
            corpus, PerfSpec(n_learners=200, skill_sd=0.2, noise_sd=0.2, seed=0))
        mean_log = dict(zip(table.item_ids, np.nanmean(table.log_time, axis=0)))
        level_of = {it.id: it.level for it in corpus.items}
        lows = [mean_log[i] for i in mean_log if level_of[i] == 0]
        highs = [mean_log[i] for i in mean_log if level_of[i] == 4]
        assert np.mean(highs) > np.mean(lows) + 2

    def test_deterministic_per_seed(self):
        corpus = generate_corpus(CorpusSpec(n_items=5, n_levels=1, seed=0))
        a = generate_performance(corpus, PerfSpec(n_learners=10, seed=2))
        b = generate_performance(corpus, PerfSpec(n_learners=10, seed=2))
        assert performance_csv(a) == performance_csv(b)

    def test_requires_level_labels(self):
        corpus = Corpus((Item(id="a", statement_text="x"),
                         Item(id="b", statement_text="y")))
        with pytest.raises(ItemsimError, match="level"):
            generate_performance(corpus, PerfSpec(n_learners=2))
