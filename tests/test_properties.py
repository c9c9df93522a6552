"""Catalogue of documented invariants, each checked over many random
instances.

Every entry in PROPERTIES is a zero-argument callable that raises
AssertionError on the first violating instance. The entries run here one by
one, and test_acceptance reruns the whole catalogue as a single gate; the
expensive sweeps are cached in checks.py so both consumers share one run.
"""

import json
import math
import os
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import checks
from conftest import (
    random_records,
    random_robot_program,
    random_sequence,
    random_similarity,
    random_tree,
)
from itemsim import (
    FeatureMatrix,
    MeasureName,
    Partition,
    PerformanceTable,
    SimilarityMatrix,
    agreement_correlation,
    agreement_topn,
    apply_transform,
    apply_transforms,
    combine_matrices,
    compute_measure,
    format_measure,
    kmeans,
    levenshtein,
    load_corpus,
    mds_project,
    needleman_wunsch,
    node_count,
    parse_measure,
    parse_robot_program,
    pca_project,
    performance_similarity,
    pretty_print,
    rand_index,
    save_corpus,
    similarity_from_features,
    split_half_stability,
    tree_edit_distance,
)
from itemsim.analysis import _top_neighbors
from itemsim.cli import main
from itemsim.features import TRANSFORM_TOKENS, check_transforms
from itemsim.measures import BARE_MEASURES, FEATURE_SOURCES
from itemsim.similarity import METRICS
from itemsim.synth import CorpusSpec, generate_corpus
from itemsim.tree import action_sequence, ast_to_document, canonize

FIXTURES = Path(__file__).parent / "fixtures"

PROPERTIES = {}


def invariant(name):
    """Register a zero-argument invariant check. Each check runs at most
    once per session; the acceptance gate and the per-invariant tests
    share the result."""

    def register(fn):
        assert name not in PROPERTIES
        PROPERTIES[name] = lru_cache(maxsize=None)(fn)
        return fn

    return register


def _random_fm(rng, n_items, n_features, nonneg=True):
    values = rng.uniform(0.0, 4.0, size=(n_items, n_features))
    if not nonneg:
        values -= 2.0
    split = n_features // 2
    groups = ("statement",) * split + ("solution",) * (n_features - split)
    return FeatureMatrix(
        item_ids=tuple(f"i{k}" for k in range(n_items)),
        groups=groups,
        names=tuple(f"f{k}" for k in range(n_features)),
        values=values,
    )


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


@invariant("corpus-robot-roundtrip")
def _corpus_robot_roundtrip():
    """Parsing a pretty-printed program recovers the exact tree."""
    rng = np.random.default_rng(11)
    for _ in range(150):
        ast = random_robot_program(rng)
        assert parse_robot_program(pretty_print(ast)) == ast


@invariant("corpus-canonize-injective")
def _corpus_canonize_injective():
    """Distinct trees canonize to distinct token sequences."""
    rng = np.random.default_rng(12)
    distinct = {}
    while len(distinct) < 150:
        t = random_tree(rng, max_nodes=20)
        distinct[ast_to_document(t)] = tuple(canonize(t))
    assert len(set(distinct.values())) == len(distinct)


@invariant("corpus-action-sequence-cap")
def _corpus_action_sequence_cap():
    rng = np.random.default_rng(13)
    for _ in range(150):
        ast = random_robot_program(rng, max_stmts=6)
        total_cap = int(rng.integers(1, 40))
        unroll_cap = int(rng.integers(1, 8))
        seq = action_sequence(ast, unroll_cap=unroll_cap, total_cap=total_cap)
        assert len(seq) <= total_cap


def _serialized(corpus) -> str:
    payload = []
    for it in corpus.items:
        world = None if it.world is None else [list(it.world.grid), sorted(it.world.legend.items())]
        payload.append([
            it.id, it.statement_text, it.level, it.command_limit, world,
            [[s.kind, s.weight, ast_to_document(s.ast)] for s in it.solutions],
        ])
    return json.dumps(payload)


@invariant("corpus-load-deterministic")
def _corpus_load_deterministic():
    """Two loads of the same directory are byte-identical in serialized form."""
    for seed in range(100):
        corpus = generate_corpus(CorpusSpec(n_items=2, n_levels=1, statement_len=6, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            save_corpus(corpus, tmp)
            first = _serialized(load_corpus(tmp))
            second = _serialized(load_corpus(tmp))
        assert first.encode() == second.encode()


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


@invariant("features-binarize-idempotent")
def _features_binarize_idempotent():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = _random_fm(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        once = apply_transform(m, "bin")
        twice = apply_transform(once, "bin")
        assert np.array_equal(once.values, twice.values)


@invariant("features-max-normalize-range")
def _features_max_normalize_range():
    """On non-negative input every value lands in [0, 1] and each feature
    with a positive entry peaks at exactly 1."""
    rng = np.random.default_rng(22)
    for _ in range(100):
        m = _random_fm(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        values = m.values.copy()
        values[:, rng.random(m.n_features) < 0.3] = 0.0
        m = FeatureMatrix(m.item_ids, m.groups, m.names, values)
        out = apply_transform(m, "max").values
        assert out.min() >= 0.0 and out.max() <= 1.0
        for j in range(out.shape[1]):
            if values[:, j].max() > 0:
                assert out[:, j].max() == 1.0


@invariant("features-log-monotone")
def _features_log_monotone():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = _random_fm(rng, 4, 5)
        out = apply_transform(m, "log").values
        flat_in, flat_out = m.values.ravel(), out.ravel()
        for _ in range(3):
            a, b = rng.integers(flat_in.size, size=2)
            if flat_in[a] < flat_in[b]:
                assert flat_out[a] < flat_out[b]
            elif flat_in[a] > flat_in[b]:
                assert flat_out[a] > flat_out[b]


@invariant("features-idf-binarize-commute")
def _features_idf_binarize_commute():
    """binarize(idf(m)) == binarize(m) whenever no feature is present in
    every item, because idf then never zeroes a positive value."""
    rng = np.random.default_rng(24)
    for _ in range(100):
        m = _random_fm(rng, int(rng.integers(2, 9)), int(rng.integers(1, 8)))
        values = m.values.copy()
        values[m.values < 1.0] = 0.0
        for j in range(values.shape[1]):
            values[int(rng.integers(values.shape[0])), j] = 0.0
        m = FeatureMatrix(m.item_ids, m.groups, m.names, values)
        via_idf = apply_transform(apply_transform(m, "idf"), "bin")
        direct = apply_transform(m, "bin")
        assert np.array_equal(via_idf.values, direct.values)


@invariant("features-combine-permutation")
def _features_combine_permutation():
    """Averaging with equal weights does not depend on matrix order."""
    rng = np.random.default_rng(25)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        ms = [rng.normal(size=(4, 4)) for _ in range(k)]
        order = rng.permutation(k)
        base = combine_matrices(ms)
        shuffled = combine_matrices([ms[i] for i in order])
        if k == 2:
            assert np.array_equal(base, shuffled)
        else:
            assert np.max(np.abs(base - shuffled)) <= 1e-12


@invariant("features-transforms-deterministic")
def _features_transforms_deterministic():
    rng = np.random.default_rng(26)
    for _ in range(100):
        m = _random_fm(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        steps = [TRANSFORM_TOKENS[i]
                 for i in rng.integers(len(TRANSFORM_TOKENS), size=int(rng.integers(0, 5)))]
        assert np.array_equal(apply_transforms(m, steps).values, apply_transforms(m, steps).values)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------


def _assert_symmetric(s: SimilarityMatrix):
    mask = np.isnan(s.values)
    assert np.array_equal(mask, mask.T)
    assert np.array_equal(s.values[~mask], s.values.T[~mask])


@invariant("similarity-symmetry")
def _similarity_symmetry():
    rng = np.random.default_rng(31)
    metrics = ("correlation", "cosine", "euclidean")
    for i in range(100):
        if i % 2 == 0:
            m = _random_fm(rng, int(rng.integers(2, 9)), int(rng.integers(2, 7)), nonneg=False)
            s = similarity_from_features(m, metrics[i % 3])
        else:
            s = performance_similarity(PerformanceTable.from_records(random_records(rng)),
                                       min_overlap=3)
        _assert_symmetric(s)


@invariant("similarity-pearson-cosine")
def _similarity_pearson_cosine():
    """Pearson equals cosine on row-centered features."""
    rng = np.random.default_rng(32)
    for _ in range(100):
        m = _random_fm(rng, int(rng.integers(2, 10)), int(rng.integers(2, 8)), nonneg=False)
        centered = FeatureMatrix(
            m.item_ids, m.groups, m.names, m.values - m.values.mean(axis=1, keepdims=True)
        )
        p = similarity_from_features(m, "correlation").values
        c = similarity_from_features(centered, "cosine").values
        assert np.array_equal(np.isnan(p), np.isnan(c))
        defined = ~np.isnan(p)
        assert np.max(np.abs(p[defined] - c[defined])) < 1e-9


@invariant("similarity-triangle")
def _similarity_triangle():
    rng = np.random.default_rng(33)
    for i in range(100):
        if i % 2 == 0:
            a, b, c = (random_sequence(rng, max_len=8) for _ in range(3))
            d = levenshtein
        else:
            a, b, c = (random_tree(rng, max_nodes=8) for _ in range(3))
            d = tree_edit_distance
        assert d(a, c) <= d(a, b) + d(b, c)


@invariant("similarity-ted-bounds")
def _similarity_ted_bounds():
    rng = np.random.default_rng(34)
    for _ in range(150):
        t1 = random_tree(rng, max_nodes=8)
        t2 = random_tree(rng, max_nodes=8)
        n1, n2 = node_count(t1), node_count(t2)
        d = tree_edit_distance(t1, t2)
        assert abs(n1 - n2) <= d <= n1 + n2


@invariant("similarity-alignment-self")
def _similarity_alignment_self():
    """A sequence aligned with itself scores one per symbol under the
    default scoring."""
    rng = np.random.default_rng(35)
    for _ in range(150):
        a = random_sequence(rng)
        assert needleman_wunsch(a, a) == float(len(a))


@invariant("similarity-performance-range")
def _similarity_performance_range():
    rng = np.random.default_rng(36)
    for i in range(100):
        s = performance_similarity(
            PerformanceTable.from_records(random_records(rng, n_learners=int(rng.integers(6, 16)))),
            measure="log_time" if i % 2 == 0 else "success",
            min_overlap=3,
        )
        defined = s.values[~np.isnan(s.values)]
        assert defined.min() >= -1.0 and defined.max() <= 1.0


@invariant("similarity-oracle-equivalence")
def _similarity_oracle_equivalence():
    assert checks.levenshtein_sweep() >= 100
    assert checks.tree_edit_sweep() >= 100
    assert checks.alignment_sweep() >= 100


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


@invariant("analysis-affine-invariance")
def _analysis_affine_invariance():
    rng = np.random.default_rng(41)
    for i in range(100):
        s = random_similarity(rng, n=int(rng.integers(5, 10)), missing=0.15 if i % 3 == 0 else 0.0)
        a = float(rng.uniform(0.2, 4.0))
        b = float(rng.uniform(-3.0, 3.0))
        s2 = SimilarityMatrix(s.item_ids, a * s.values + b, measure_name="affine")
        assert abs(agreement_correlation(s, s2) - 1.0) <= 1e-12


@invariant("analysis-topn-bounds")
def _analysis_topn_bounds():
    """Top-n overlap lies in [0, 1] and hits 1 exactly when the neighbor
    sets coincide for every item."""
    rng = np.random.default_rng(42)
    for i in range(100):
        s1 = random_similarity(rng, n=8)
        s2 = s1 if i % 5 == 0 else random_similarity(rng, n=8)
        n = int(rng.integers(1, 4))
        v = agreement_topn(s1, s2, n)
        assert 0.0 <= v <= 1.0
        coincide = np.array_equal(_top_neighbors(s1, n)[0], _top_neighbors(s2, n)[0])
        assert (v == 1.0) == coincide


@invariant("analysis-topn-monotone")
def _analysis_topn_monotone():
    rng = np.random.default_rng(43)
    fs = (np.exp, np.tanh, lambda v: v ** 3 + v, lambda v: 2.0 * v + 5.0)
    for i in range(100):
        s = random_similarity(rng, n=8)
        f = fs[i % len(fs)]
        s2 = SimilarityMatrix(s.item_ids, f(s.values), measure_name="mono")
        for n in (1, 3, 5):
            assert agreement_topn(s, s2, n) == 1.0


@invariant("analysis-rand-permutation")
def _analysis_rand_permutation():
    """Relabeling clusters does not change the Rand index."""
    rng = np.random.default_rng(44)
    ids = tuple(f"i{k}" for k in range(8))
    for _ in range(100):
        l1 = tuple(int(v) for v in rng.integers(0, 3, size=8))
        l2 = tuple(int(v) for v in rng.integers(0, 3, size=8))
        perm = rng.permutation(3)
        relabeled = tuple(int(perm[v]) for v in l2)
        p1, p2 = Partition(ids, l1), Partition(ids, l2)
        assert rand_index(p1, p2) == rand_index(p1, Partition(ids, relabeled))


@invariant("analysis-kmeans-wcss")
def _analysis_kmeans_wcss():
    """Lloyd iterations never increase the within-cluster sum of squares;
    the implementation asserts this on every step."""
    rng = np.random.default_rng(45)
    for i in range(100):
        s = random_similarity(rng, n=int(rng.integers(4, 12)))
        k = int(rng.integers(2, 5))
        part = kmeans(s, k, seed=i)
        assert len(part.labels) == s.n_items
        assert set(part.labels) <= set(range(k))


@invariant("analysis-split-half-reproducible")
def _analysis_split_half_reproducible():
    rng = np.random.default_rng(46)
    for i in range(100):
        records = PerformanceTable.from_records(
            random_records(rng, n_learners=20, n_items=6, attempt_prob=0.95))
        first = split_half_stability(records, min_overlap=5, seed=i)
        second = split_half_stability(records, min_overlap=5, seed=i)
        assert first == second


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


@invariant("projection-pca-translation")
def _projection_pca_translation():
    rng = np.random.default_rng(51)
    for _ in range(100):
        n = int(rng.integers(3, 10))
        f = int(rng.integers(2, 7))
        m = _random_fm(rng, n, f, nonneg=False)
        shifted = FeatureMatrix(m.item_ids, m.groups, m.names, m.values + rng.normal(size=f) * 50.0)
        dims = int(rng.integers(1, min(n - 1, f) + 1))
        a = pca_project(m, dims)
        b = pca_project(shifted, dims)
        assert np.max(np.abs(a.coordinates - b.coordinates)) < 1e-9


@invariant("projection-mds-bound")
def _projection_mds_bound():
    """Embedding distances never exceed what the clamped Gram matrix allows,
    and Euclidean-realizable inputs are reconstructed exactly."""
    rng = np.random.default_rng(52)
    for i in range(100):
        n = int(rng.integers(4, 9))
        if i % 2 == 0:
            s = random_similarity(rng, n=n)
            dims = int(rng.integers(1, n))
            emb = mds_project(s, dims).coordinates
            d = s.values.max() - s.values
            centering = np.eye(n) - np.full((n, n), 1.0 / n)
            b = -0.5 * centering @ (d * d) @ centering
            eigvals, eigvecs = np.linalg.eigh((b + b.T) / 2.0)
            b_plus = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
            for p in range(n):
                for q in range(n):
                    emb_d2 = float(((emb[p] - emb[q]) ** 2).sum())
                    bound = b_plus[p, p] + b_plus[q, q] - 2.0 * b_plus[p, q]
                    assert emb_d2 <= bound + 1e-9
        else:
            points = rng.normal(size=(n, 2))
            diff = points[:, None, :] - points[None, :, :]
            dist = np.sqrt((diff ** 2).sum(axis=2))
            s = SimilarityMatrix(
                tuple(f"i{k}" for k in range(n)), -dist, measure_name="euclid"
            )
            emb = mds_project(s, 2).coordinates
            rec = np.sqrt(((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2))
            assert np.max(np.abs(rec - dist)) < 1e-6


@invariant("projection-deterministic")
def _projection_deterministic():
    rng = np.random.default_rng(53)
    for i in range(100):
        n = int(rng.integers(4, 9))
        if i % 2 == 0:
            values = rng.normal(size=(n, 4))
            runs = [
                pca_project(_fm_from(values), 2) for _ in range(2)
            ]
            assert runs[0].explained_variance == runs[1].explained_variance
        else:
            raw = rng.normal(size=(n, n))
            sym = (raw + raw.T) / 2.0
            np.fill_diagonal(sym, 1.0)
            ids = tuple(f"i{k}" for k in range(n))
            runs = [
                mds_project(SimilarityMatrix(ids, sym.copy(), measure_name="m"), 2)
                for _ in range(2)
            ]
        assert np.array_equal(runs[0].coordinates, runs[1].coordinates)


def _fm_from(values):
    n, f = values.shape
    return FeatureMatrix(
        item_ids=tuple(f"i{k}" for k in range(n)),
        groups=("statement",) * f,
        names=tuple(f"f{k}" for k in range(f)),
        values=values.copy(),
    )


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


@invariant("synth-level-separation")
def _synth_level_separation():
    """Items of one level share more solution keywords than items across
    levels, seed by seed."""
    stats = checks.level_separation_stats()
    assert len(stats) == 20
    for within, cross in stats:
        assert within > cross


@invariant("synth-ast-roundtrip")
def _synth_ast_roundtrip():
    count = 0
    for seed in range(3):
        corpus = generate_corpus(CorpusSpec(n_items=45, n_levels=9, seed=seed))
        for it in corpus.items:
            for sol in it.solutions:
                assert parse_robot_program(pretty_print(sol.ast)) == sol.ast
                count += 1
    assert count >= 100


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


@invariant("cli-measure-roundtrip")
def _cli_measure_roundtrip():
    rng = np.random.default_rng(61)
    for _ in range(150):
        if rng.random() < 0.25:
            name = MeasureName(source=BARE_MEASURES[int(rng.integers(len(BARE_MEASURES)))])
        else:
            k = int(rng.integers(0, len(TRANSFORM_TOKENS) + 1))
            picks = rng.choice(len(TRANSFORM_TOKENS), size=k, replace=False)
            name = MeasureName(
                source=FEATURE_SOURCES[int(rng.integers(len(FEATURE_SOURCES)))],
                transforms=tuple(TRANSFORM_TOKENS[int(p)] for p in picks),
                metric=METRICS[int(rng.integers(len(METRICS)))],
            )
        assert parse_measure(format_measure(name)) == name


@lru_cache(maxsize=None)
def _catalogued_measure_sweep() -> int:
    names = json.loads((FIXTURES / "measure_catalog.json").read_text())
    assert len(names) == 14 and len(set(names)) == 14
    computed = 0
    for seed in range(8):
        corpus = generate_corpus(CorpusSpec(n_items=10, n_levels=2, seed=seed))
        for text in names:
            name = parse_measure(text)
            assert format_measure(name) == text
            check_transforms(name.transforms)
            s = compute_measure(corpus, name)
            assert s.measure_name == text
            computed += 1
    return computed


@invariant("cli-catalogued-measures")
def _cli_catalogued_measures():
    """All fourteen catalogued measure names parse, format back, and
    compute on synthetic corpora."""
    assert _catalogued_measure_sweep() >= 100


@lru_cache(maxsize=None)
def _cli_root() -> str:
    """Small corpus with performance data plus one similarity CSV, built
    through the CLI itself, for purity checks."""
    root = tempfile.mkdtemp(prefix="itemsim-props-")
    cfg = {
        "schema": 1,
        "synth": {
            "n_items": 4,
            "n_levels": 2,
            "seed": 7,
            "performance": {"n_learners": 12, "seed": 3},
        },
    }
    cfg_path = os.path.join(root, "synth.json")
    Path(cfg_path).write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["synth", "-c", cfg_path, "-o", os.path.join(root, "corpus")]) == 0
    sim_cfg = os.path.join(root, "sim.json")
    Path(sim_cfg).write_text(
        json.dumps({"schema": 1, "corpus": os.path.join(root, "corpus"), "measure": "levenshtein"}),
        encoding="utf-8",
    )
    assert main(["sim", "-c", sim_cfg, "-o", os.path.join(root, "simout")]) == 0
    return root


def _dir_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _random_cli_config(rng, corpus: str, sim_csv: str) -> tuple[str, dict]:
    measures = (
        "levenshtein",
        "ted",
        "perfcorr",
        "bag/log/correlation",
        "bag/bin/euclidean",
        "solution/log+idf/correlation",
        "statement/none/cosine",
    )
    pick = lambda options: options[int(rng.integers(len(options)))]
    sub = pick((
        "features", "sim", "agree", "meta-agree", "cluster",
        "project", "stability", "synth", "heatmap",
    ))
    if sub == "features":
        cfg = {
            "corpus": corpus,
            "source": pick(("bag", "statement", "solution", "structural", "world")),
            "transforms": list(rng.choice(TRANSFORM_TOKENS, size=int(rng.integers(0, 3)), replace=False)),
        }
    elif sub == "sim":
        cfg = {"corpus": corpus, "measure": pick(measures), "min_overlap": 3}
    elif sub == "agree":
        cfg = {
            "corpus": corpus,
            "measures": ["levenshtein", pick(("ted", "bag/log/correlation"))],
            "method": pick(("correlation", "top:2")),
        }
    elif sub == "meta-agree":
        cfg = {
            "corpus": corpus,
            "measures": ["levenshtein", "ted", "bag/log/correlation"],
            "methods": ["correlation", "top:2"],
        }
    elif sub == "cluster":
        cfg = {
            "corpus": corpus,
            "measure": pick(("levenshtein", "bag/log/correlation")),
            "k": 2,
            "runs": 2,
            "seed": int(rng.integers(5)),
        }
    elif sub == "project":
        if rng.random() < 0.5:
            cfg = {"corpus": corpus, "projection": "pca", "source": "bag",
                   "transforms": ["log"], "dims": pick((1, 2))}
        else:
            cfg = {"corpus": corpus, "projection": "mds", "measure": "levenshtein",
                   "dims": pick((1, 2))}
    elif sub == "stability":
        cfg = {"corpus": corpus, "min_overlap": 3, "seed": int(rng.integers(5))}
    elif sub == "synth":
        cfg = {"synth": {"n_items": 3, "n_levels": pick((1, 2)), "seed": int(rng.integers(50))}}
    else:
        cfg = {"matrix": sim_csv, "ordering": pick(("none", "hierarchical"))}
    cfg["schema"] = 1
    return sub, cfg


@invariant("cli-output-purity")
def _cli_output_purity():
    """The same corpus bytes and config bytes always produce the same exit
    code and output bytes. A few random configs degenerate on the tiny
    fixture corpus (e.g. constant agreement entries) and error out; those
    must fail identically on both runs."""
    root = _cli_root()
    corpus = os.path.join(root, "corpus")
    sim_csv = os.path.join(root, "simout", "sim.csv")
    rng = np.random.default_rng(62)
    succeeded = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(100):
            sub, cfg = _random_cli_config(rng, corpus, sim_csv)
            cfg_path = os.path.join(tmp, f"cfg{i}.json")
            Path(cfg_path).write_text(json.dumps(cfg), encoding="utf-8")
            out_a = Path(tmp) / f"a{i}"
            out_b = Path(tmp) / f"b{i}"
            rc_a = main([sub, "-c", cfg_path, "-o", str(out_a)])
            rc_b = main([sub, "-c", cfg_path, "-o", str(out_b)])
            assert rc_a == rc_b, (sub, cfg)
            assert _dir_bytes(out_a) == _dir_bytes(out_b), (sub, cfg)
            succeeded += rc_a == 0
    assert succeeded >= 80, f"only {succeeded} of 100 configs ran cleanly"


# ---------------------------------------------------------------------------


EXPECTED_COUNTS = {
    "corpus": 4, "features": 6, "similarity": 7, "analysis": 6,
    "projection": 3, "synth": 2, "cli": 3,
}


def test_catalogue_is_complete():
    counts = {}
    for name in PROPERTIES:
        module = name.split("-")[0]
        counts[module] = counts.get(module, 0) + 1
    assert counts == EXPECTED_COUNTS


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_invariant(name):
    PROPERTIES[name]()
