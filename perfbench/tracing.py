"""Per-layer measurement from the benchmark's own side of the API.

The traced pass wraps the public itemsim functions each command calls, at
the names the calling module looks them up under, so every span sits
between a command and the layer it enters. Spans stay in memory and are
written out with the run's result. The edit kernels are not wrapped inside
the pass, where a span per solution pair would inflate the command spans;
they are replayed after the pass, as top-level spans, over exactly the
solution pairs `edit_similarity` evaluates.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

EDIT_KINDS = ("ted", "levenshtein", "nw")

# (module, attribute, span name): one entry per place a command looks a
# layer function up. A function reached from two modules is wrapped in both.
PATCHES = (
    ("itemsim.cli", "load_corpus", "corpus.load_corpus"),
    ("itemsim.cli", "load_performance", "corpus.load_performance"),
    ("itemsim.cli", "build_features", "features.build"),
    ("itemsim.cli", "apply_transforms", "features.transform"),
    ("itemsim.cli", "meta_agreement", "analysis.meta_agreement"),
    ("itemsim.cli", "split_half_stability", "analysis.split_half"),
    ("itemsim.cli", "kmeans", "analysis.kmeans"),
    ("itemsim.cli", "cluster_eval", "analysis.cluster_eval"),
    ("itemsim.cli", "mds_project", "projection.mds"),
    ("itemsim.cli", "read_square_csv", "serialize.read_square_csv"),
    ("itemsim.cli", "similarity_csv", "serialize.similarity_csv"),
    ("itemsim.cli", "feature_csv", "serialize.feature_csv"),
    ("itemsim.measures", "build_features", "features.build"),
    ("itemsim.measures", "apply_transforms", "features.transform"),
    ("itemsim.measures", "similarity_from_features", "similarity.features"),
    ("itemsim.measures", "performance_similarity", "similarity.performance"),
    ("itemsim.measures", "edit_similarity", "similarity.edit"),
    ("itemsim.analysis", "performance_similarity", "similarity.performance"),
    ("itemsim.analysis", "agreement_correlation", "analysis.agreement_correlation"),
    ("itemsim.analysis", "agreement_topn", "analysis.agreement_topn"),
    ("itemsim.analysis", "kmeans", "analysis.kmeans"),
    ("itemsim.similarity", "canonize", "tree.canonize"),
    ("itemsim.similarity", "action_sequence", "tree.action_sequence"),
    ("itemsim.heatmap", "hierarchical_order", "analysis.hierarchical_order"),
)

SUBCOMMANDS = ("features", "sim", "meta-agree", "stability", "cluster", "project", "heatmap")

# every per-layer time, as reported: the total duration of the spans of
# one name (a span includes its children, e.g. analysis.split_half holds
# two similarity.performance spans)
SPAN_METRICS = (
    "corpus.load_corpus", "corpus.load_performance",
    "tree.canonize", "tree.action_sequence",
    "editdist.ted", "editdist.levenshtein", "editdist.nw",
    "similarity.edit_ted", "similarity.edit_levenshtein", "similarity.edit_nw",
    "similarity.performance", "analysis.split_half",
    "similarity.features", "features.build", "features.transform",
    "analysis.agreement_correlation", "analysis.agreement_topn", "analysis.meta_agreement",
    "analysis.kmeans", "analysis.cluster_eval", "analysis.hierarchical_order",
    "projection.mds", "heatmap.render",
    "serialize.similarity_csv", "serialize.feature_csv", "serialize.read_square_csv",
)


class Tracer:
    """In-memory span list. A span records its name, start, end and the
    index of the span open around it (None at top level)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.edit_matrices: dict = {}

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "start": perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    def _wrap(self, name: str, fn):
        if name == "similarity.edit":
            def wrapper(corpus, kind="ted", **kwargs):
                with self.span(f"similarity.edit_{kind}"):
                    result = fn(corpus, kind=kind, **kwargs)
                self.edit_matrices[kind] = result
                return result
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self):
        """Wrap every PATCHES target for the duration of the block. Targets
        missing from this version of itemsim are yielded, so the caller
        can report them instead of silently reading zero."""
        saved, missing = [], []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield missing
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Solution pairs of the edit measures: counts and kernel replay
# ---------------------------------------------------------------------------


def chosen_solutions(corpus, selector: str) -> list[tuple]:
    from itemsim.corpus import select_solutions

    return [select_solutions(it, selector) for it in corpus.items]


def solution_pairs(chosen: list[tuple]):
    """Yield (a, b, is_self) in the order edit_similarity evaluates them:
    per item, each selected solution with itself, then every cross pair
    with each later item."""
    for i, sols in enumerate(chosen):
        for a in sols:
            yield a, a, True
        for later in chosen[i + 1:]:
            for a in sols:
                for b in later:
                    yield a, b, False


def _kernel_inputs(chosen: list[tuple]) -> dict[str, dict]:
    """Per edit kind, the kernel input of every distinct solution object."""
    from itemsim.tree import action_sequence, canonize

    sols = {id(s): s for group in chosen for s in group}.values()
    return {
        "levenshtein": {id(s): canonize(s.ast) for s in sols},
        "ted": {id(s): s.ast for s in sols},
        "nw": {id(s): action_sequence(s.ast) for s in sols},
    }


def edit_counts(chosen: list[tuple]) -> dict[str, int]:
    """Pairs, self pairs, duplicate pairs (a cross pair whose unordered pair
    of canonical forms occurred earlier in the same measure), AST nodes and
    actions of the selected solutions, and the nominal DP cells per kind,
    computed as the product of the two input sizes."""
    from itemsim.tree import node_count

    inputs = _kernel_inputs(chosen)
    size = {
        "levenshtein": {k: len(v) for k, v in inputs["levenshtein"].items()},
        "ted": {k: node_count(v) for k, v in inputs["ted"].items()},
        "nw": {k: len(v) for k, v in inputs["nw"].items()},
    }
    canon = {k: tuple(v) for k, v in inputs["levenshtein"].items()}
    counts = {"editdist.pairs": 0, "editdist.self_pairs": 0, "editdist.duplicate_pairs": 0}
    cells = dict.fromkeys(EDIT_KINDS, 0)
    seen = set()
    for a, b, is_self in solution_pairs(chosen):
        counts["editdist.pairs"] += 1
        if is_self:
            counts["editdist.self_pairs"] += 1
        else:
            key = tuple(sorted((canon[id(a)], canon[id(b)])))
            if key in seen:
                counts["editdist.duplicate_pairs"] += 1
            seen.add(key)
        for kind in EDIT_KINDS:
            cells[kind] += size[kind][id(a)] * size[kind][id(b)]
    selected = [s for group in chosen for s in group]
    counts["tree.nodes"] = sum(size["ted"][id(s)] for s in selected)
    counts["tree.actions"] = sum(size["nw"][id(s)] for s in selected)
    for kind in EDIT_KINDS:
        counts[f"editdist.{kind}.cells"] = cells[kind]
    return counts


def replay_kernels(tracer: Tracer, chosen: list[tuple], nw_scoring) -> dict:
    """Run each edit kernel over every pair of solution_pairs under one
    top-level span per kind. Returns, per kind, the sum of the kernel
    values (a checksum of the replay) and any self pair of ted or
    levenshtein whose distance was not 0."""
    from itemsim.editdist import levenshtein, needleman_wunsch, tree_edit_distance

    kernels = {
        "ted": tree_edit_distance,
        "levenshtein": levenshtein,
        "nw": lambda a, b: needleman_wunsch(a, b, nw_scoring),
    }
    inputs = _kernel_inputs(chosen)
    pairs = list(solution_pairs(chosen))
    out = {}
    for kind in EDIT_KINDS:
        kernel, prepared = kernels[kind], inputs[kind]
        args = [(prepared[id(a)], prepared[id(b)]) for a, b, _ in pairs]
        with tracer.span(f"editdist.{kind}"):
            values = [kernel(x, y) for x, y in args]
        bad_self = sum(1 for v, (_, _, s) in zip(values, pairs) if s and v != 0)
        out[kind] = {"checksum": math.fsum(values),
                     "nonzero_self_pairs": bad_self if kind != "nw" else 0}
    return out


def edit_matrix_report(matrices: dict) -> dict:
    """Digest of each edit similarity matrix from the traced pass, plus its
    invariants: exact symmetry, and a unit diagonal for ted and
    levenshtein (every solution is at distance 0 from itself)."""
    import numpy as np
    from itemsim.serialize import similarity_csv

    out = {}
    for kind, s in sorted(matrices.items()):
        problems = []
        if not np.array_equal(s.values, s.values.T, equal_nan=True):
            problems.append("not symmetric")
        if kind != "nw" and not np.all(s.values.diagonal() == 1.0):
            problems.append("diagonal is not 1")
        text = similarity_csv(s).encode()
        out[kind] = {"sha256": hashlib.sha256(text).hexdigest(), "problems": problems}
    return out
