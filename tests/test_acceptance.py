"""Acceptance gate: nine end-to-end checks with explicit tolerances and
runtime budgets. Each test records one line that the terminal-summary hook
in conftest replays as "criterion N (title): PASS/FAIL".
"""

import json
import time

import numpy as np

import checks
import test_properties
from conftest import random_similarity
from itemsim import (
    FeatureMatrix,
    SimilarityMatrix,
    agreement_correlation,
    agreement_topn,
    mds_project,
    similarity_from_features,
)
from itemsim.cli import main

RESULTS = []


def _record(num: int, title: str, ok: bool, detail: str = ""):
    RESULTS.append((num, title, bool(ok)))
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({title}): {status}{suffix}")
    assert ok, f"criterion {num} ({title}): FAIL {detail}"


def _fm(values) -> FeatureMatrix:
    n, f = values.shape
    return FeatureMatrix(
        item_ids=tuple(f"i{k:02d}" for k in range(n)),
        groups=("statement",) * f,
        names=tuple(f"f{k}" for k in range(f)),
        values=values,
    )


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    compared = (
        checks.levenshtein_sweep()
        + checks.tree_edit_sweep()
        + checks.alignment_sweep()
    )
    elapsed = time.monotonic() - start
    _record(
        1, "oracle equivalence", elapsed < 60.0,
        f"{compared} comparisons in {elapsed:.1f}s",
    )


def test_criterion_2_pearson_equals_centered_cosine():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        values = rng.normal(size=(20, 10))
        centered = values - values.mean(axis=1, keepdims=True)
        p = similarity_from_features(_fm(values), "correlation").values
        c = similarity_from_features(_fm(centered), "cosine").values
        worst = max(worst, float(np.max(np.abs(p - c))))
    _record(2, "pearson equals centered cosine", worst < 1e-9, f"max diff {worst:.2e}")


def test_criterion_3_agreement_invariances():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        s = random_similarity(rng, n=10)
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(-4.0, 4.0))
        s2 = SimilarityMatrix(s.item_ids, a * s.values + b, measure_name="affine")
        worst = max(worst, abs(agreement_correlation(s, s2) - 1.0))
    affine_ok = worst <= 1e-12

    topn_ok = True
    monotone = (np.exp, np.tanh, lambda v: v ** 3 + v)
    for i in range(20):
        s = random_similarity(rng, n=10)
        f = monotone[i % len(monotone)]
        s2 = SimilarityMatrix(s.item_ids, f(s.values), measure_name="mono")
        for n in (1, 3, 5):
            topn_ok = topn_ok and agreement_topn(s, s2, n) == 1.0

    _record(
        3, "agreement invariances", affine_ok and topn_ok,
        f"affine deviation {worst:.1e}, monotone top-n {'exact' if topn_ok else 'violated'}",
    )


def test_criterion_4_stability_scales_with_data():
    start = time.monotonic()
    big, small = checks.stability_means()
    elapsed = time.monotonic() - start
    ok = big > 0.8 and small < big and elapsed < 30.0
    _record(
        4, "stability scales with data", ok,
        f"500 learners {big:.3f}, 30 learners {small:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_informed_measure_clusters_better():
    start = time.monotonic()
    stats = checks.clustering_gap_stats()
    elapsed = time.monotonic() - start
    informed = float(np.mean([a for a, _ in stats]))
    raw = float(np.mean([b for _, b in stats]))
    ok = informed - raw >= 0.15 and elapsed < 60.0
    _record(
        5, "informed measure clusters better", ok,
        f"informed {informed:.3f} vs raw {raw:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_source_independence():
    stats = checks.source_agreement_stats()
    cross = float(np.mean([c for c, _, _ in stats]))
    within_stmt = float(np.mean([w for _, w, _ in stats]))
    within_sol = float(np.mean([w for _, _, w in stats]))
    ok = cross < 0.3 and within_stmt > 0.7 and within_sol > 0.7
    _record(
        6, "source independence", ok,
        f"cross {cross:.3f}, within {within_stmt:.3f}/{within_sol:.3f}",
    )


def test_criterion_7_mds_recovers_planar_points():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(10, 2))
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    s = SimilarityMatrix(
        tuple(f"p{k}" for k in range(10)), -dist, measure_name="euclid"
    )
    emb = mds_project(s, 2).coordinates
    rec = np.sqrt(((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2))
    rms = float(np.sqrt(np.mean((rec - dist) ** 2)))
    _record(7, "mds recovers planar points", rms < 1e-6, f"rms {rms:.2e}")


def test_criterion_8_cli_determinism(tmp_path):
    def run(sub, cfg, out):
        path = tmp_path / f"{sub}-{out.name}.json"
        path.write_text(json.dumps({"schema": 1, **cfg}), encoding="utf-8")
        assert main([sub, "-c", str(path), "-o", str(out)]) == 0, (sub, cfg)
        return test_properties._dir_bytes(out)

    synth_cfg = {
        "synth": {
            "n_items": 5, "n_levels": 2, "seed": 11,
            "performance": {"n_learners": 20, "seed": 5},
        }
    }
    corpus = tmp_path / "corpus"
    run("synth", synth_cfg, corpus)
    sim_dir = tmp_path / "sim-fixed"
    run("sim", {"corpus": str(corpus), "measure": "ted"}, sim_dir)

    measures = ["ted", "levenshtein", "bag/log/correlation"]
    configs = {
        "synth": synth_cfg,
        "features": {"corpus": str(corpus), "source": "bag", "transforms": ["log", "idf"]},
        "sim": {"corpus": str(corpus), "measure": "bag/log+max+idf+weights/correlation"},
        "agree": {"corpus": str(corpus), "measures": measures, "method": "top:2"},
        "meta-agree": {
            "corpus": str(corpus), "measures": measures,
            "methods": ["correlation", "top:2"],
        },
        "cluster": {"corpus": str(corpus), "measure": "ted", "k": 2, "runs": 3, "seed": 1},
        "project": {"corpus": str(corpus), "projection": "mds", "measure": "ted", "dims": 2},
        "stability": {"corpus": str(corpus), "min_overlap": 5, "seed": 2},
        "heatmap": {"matrix": str(sim_dir / "sim.csv"), "ordering": "hierarchical"},
    }
    stable = []
    for sub, cfg in sorted(configs.items()):
        first = run(sub, cfg, tmp_path / f"a-{sub}")
        second = run(sub, cfg, tmp_path / f"b-{sub}")
        stable.append(first == second and len(first) >= 1)
    _record(
        8, "cli determinism", all(stable) and len(stable) == 9,
        f"{len(stable)} subcommands byte-stable",
    )


def test_criterion_9_invariant_catalogue():
    failures = []
    for name in sorted(test_properties.PROPERTIES):
        try:
            test_properties.PROPERTIES[name]()
        except AssertionError as e:
            failures.append(f"{name}: {e}")
    _record(
        9, "invariant catalogue",
        not failures and len(test_properties.PROPERTIES) == 31,
        f"{len(test_properties.PROPERTIES)} invariants, failures: {failures or 'none'}",
    )
