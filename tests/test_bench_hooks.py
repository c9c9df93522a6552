"""The benchmark's tracing hooks name functions that exist in itemsim.

`perfbench/tracing.py` wraps itemsim functions at the module attributes
the commands look them up under. A renamed or moved function would only
show up when the benchmark runs, so it is checked here.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path

from itemsim import NwScoring, edit_similarity, load_performance, save_performance
from itemsim.synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance

from conftest import make_tiny_corpus

ROOT = Path(__file__).resolve().parent.parent


def _tracing_module():
    # loaded by path: perfbench is not a package and imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves_under_src():
    missing = []
    for module_name, attr, _span in _tracing_module().PATCHES:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().is_relative_to(ROOT / "src"), module.__file__
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"benchmark hooks without a target: {', '.join(missing)}"


def test_kernel_replay_and_edit_matrices_on_the_tiny_corpus():
    # the benchmark replays the edit kernels over the pairs edit_similarity
    # evaluates; a renamed or re-signatured kernel fails here
    tracing = _tracing_module()
    corpus = make_tiny_corpus()
    chosen = tracing.chosen_solutions(corpus, "all")
    counts = tracing.edit_counts(chosen)
    assert counts["editdist.pairs"] == 17
    assert counts["editdist.self_pairs"] == 6
    replay = tracing.replay_kernels(tracing.Tracer(), chosen, NwScoring())
    assert set(replay) == set(tracing.EDIT_KINDS)
    assert replay["ted"]["nonzero_self_pairs"] == 0
    assert replay["levenshtein"]["nonzero_self_pairs"] == 0
    matrices = {kind: edit_similarity(corpus, kind=kind, selector="all")
                for kind in tracing.EDIT_KINDS}
    report = tracing.edit_matrix_report(matrices)
    assert all(not r["problems"] for r in report.values()), report


def test_performance_calls_of_the_benchmark(tmp_path):
    # perfbench/child.py writes the analysis inputs with
    # save_performance(generate_performance(...)) and counts records with
    # len(load_performance(...)). The digest pins the file's bytes, from
    # which the benchmark's recorded reference outputs were computed.
    corpus = generate_corpus(CorpusSpec(n_items=24, n_levels=3, seed=1))
    path = tmp_path / "performance.csv"
    save_performance(generate_performance(corpus, PerfSpec(n_learners=30, solve_prob=0.7, seed=2)),
                     path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "93b144603a8a7dd3b0a1f52a53ba03db660bb785f03d3b112f656d0429f82069")
    assert len(load_performance(path, corpus)) == data.count(b"\n") - 1 == 507
    # a repeated (learner, item) row is not counted
    path.write_bytes(data + data.splitlines(keepends=True)[1])
    assert len(load_performance(path, corpus)) == 507
