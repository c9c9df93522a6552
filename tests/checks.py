"""Heavy verification sweeps shared by several tests.

Each sweep is cached so the exhaustive comparisons and seed sweeps run once
per test session no matter how many tests consume them. Every function
raises AssertionError on the first violation and otherwise returns a count
or summary of what it checked.
"""

from functools import lru_cache

import numpy as np

from itemsim import (
    agreement_correlation,
    cluster_eval,
    compute_measure,
    levenshtein,
    split_half_stability,
    tree_edit_distance,
)
from itemsim.editdist import needleman_wunsch_batch, tree_form, zhang_shasha_batch
from itemsim.synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance, level_partition

from oracles import (
    enumerate_sequences,
    enumerate_trees,
    oracle_alignment,
    oracle_levenshtein,
    oracle_tree_edit,
)


@lru_cache(maxsize=None)
def levenshtein_sweep() -> int:
    """Compare against exhaustive edit-script search on every pair of
    sequences over a 2-symbol alphabet with length <= 5."""
    seqs = enumerate_sequences(5, ("a", "b"))
    checked = 0
    for i, a in enumerate(seqs):
        for b in seqs[i:]:
            want = oracle_levenshtein(a, b)
            assert levenshtein(a, b) == want, (a, b)
            assert levenshtein(b, a) == want, (b, a)
            checked += 2
    return checked


@lru_cache(maxsize=None)
def tree_edit_sweep() -> int:
    """Compare against exhaustive edit-mapping search on every pair of
    ordered trees with <= 4 nodes over 2 labels, in both orders: each pair
    alone, and every ordered pair in one zhang_shasha_batch call, the path
    edit_similarity takes."""
    trees = enumerate_trees(4, ("a", "b"))
    assert len(trees) == 102
    ordered = [(i, j) for i in range(len(trees)) for j in range(len(trees))]
    batch, _ = zhang_shasha_batch([tree_form(t) for t in trees], ordered)
    batched = dict(zip(ordered, batch))
    checked = 0
    for i, t1 in enumerate(trees):
        for j in range(i, len(trees)):
            t2 = trees[j]
            want = oracle_tree_edit(t1, t2)
            assert tree_edit_distance(t1, t2) == batched[i, j] == want, (t1, t2)
            assert tree_edit_distance(t2, t1) == batched[j, i] == want, (t2, t1)
            checked += 2
    return checked


@lru_cache(maxsize=None)
def alignment_sweep() -> int:
    """Compare against a brute-force alignment enumerator on every pair of
    sequences over a 2-symbol alphabet with length <= 5, both orders of
    each pair in one needleman_wunsch_batch call, the path edit_similarity
    takes."""
    seqs = enumerate_sequences(5, ("a", "b"))
    pairs = [(i, j) for i in range(len(seqs)) for j in range(i, len(seqs))]
    ordered = [p for i, j in pairs for p in ((i, j), (j, i))]
    scores, _ = needleman_wunsch_batch(seqs, ordered)
    for k, (i, j) in enumerate(pairs):
        want = oracle_alignment(seqs[i], seqs[j])
        assert scores[2 * k] == want, (seqs[i], seqs[j])
        assert scores[2 * k + 1] == want, (seqs[j], seqs[i])
    return len(ordered)


@lru_cache(maxsize=None)
def level_separation_stats() -> tuple[tuple[float, float], ...]:
    """(within-level, cross-level) mean solution-keyword cosine per seed,
    over 20 seeds of the default synthetic corpus shape."""
    from itemsim import solution_keyword_features

    stats = []
    for seed in range(20):
        corpus = generate_corpus(CorpusSpec(n_items=45, n_levels=9, seed=seed))
        m = solution_keyword_features(corpus, "sample")
        v = m.values
        unit = v / np.linalg.norm(v, axis=1, keepdims=True)
        cos = unit @ unit.T
        levels = np.array([it.level for it in corpus.items])
        same = levels[:, None] == levels[None, :]
        off = ~np.eye(len(v), dtype=bool)
        stats.append((float(cos[same & off].mean()), float(cos[~same].mean())))
    return tuple(stats)


@lru_cache(maxsize=None)
def clustering_gap_stats() -> tuple[tuple[float, float], ...]:
    """(informed, raw) mean Rand Index per seed over 10 seeds, where
    informed = bag/log+max+idf+weights/correlation and raw =
    bag/none/correlation, both clustered with k=9 and 10 runs."""
    stats = []
    for seed in range(10):
        corpus = generate_corpus(CorpusSpec(n_items=45, n_levels=9, seed=seed))
        manual = level_partition(corpus)
        scores = []
        for name in ("bag/log+max+idf+weights/correlation", "bag/none/correlation"):
            s = compute_measure(corpus, name)
            scores.append(cluster_eval(s, manual, k=9, runs=10, seed=seed))
        stats.append((scores[0], scores[1]))
    return tuple(stats)


@lru_cache(maxsize=None)
def source_agreement_stats() -> tuple[tuple[float, float, float], ...]:
    """(cross-source, within-statement, within-solution) agreement
    correlations per seed over 10 seeds. Cross compares statement/log to
    solution/log; within compares log to log+idf on one source."""
    stats = []
    for seed in range(10):
        corpus = generate_corpus(CorpusSpec(n_items=45, n_levels=9, seed=seed))
        stmt_log = compute_measure(corpus, "statement/log/correlation")
        stmt_idf = compute_measure(corpus, "statement/log+idf/correlation")
        sol_log = compute_measure(corpus, "solution/log/correlation")
        sol_idf = compute_measure(corpus, "solution/log+idf/correlation")
        stats.append((
            agreement_correlation(stmt_log, sol_log),
            agreement_correlation(stmt_log, stmt_idf),
            agreement_correlation(sol_log, sol_idf),
        ))
    return tuple(stats)


def _stability_mean(n_learners: int, seeds: range) -> float:
    values = []
    for seed in seeds:
        corpus = generate_corpus(CorpusSpec(n_items=20, n_levels=2, seed=seed))
        records = generate_performance(
            corpus,
            PerfSpec(n_learners=n_learners, noise_sd=0.5, skill_sd=1.0, seed=seed),
        )
        values.append(split_half_stability(records, seed=seed))
    return float(np.mean(values))


@lru_cache(maxsize=None)
def stability_means() -> tuple[float, float]:
    """Mean split-half stability over 10 seeds with 500 and 30 learners on
    a 20-item, two-difficulty-group synthetic setup."""
    return _stability_mean(500, range(10)), _stability_mean(30, range(10))
