"""Feature matrices over items and the transformation algebra applied to them.

Sources: statement text (bag of words), solution ASTs (keyword counts and
structural summaries), world grids (concept counts), and performance logs
(aggregate statistics). Transforms, named by their measure-grammar tokens:
bin, log, max, idf, and weights.
"""

from __future__ import annotations

import logging
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, PerformanceTable, Solution, select_solutions
from .errors import ItemsimError
from .tree import AstNode, iter_labels, max_depth, node_count

log = logging.getLogger("itemsim.features")

FEATURE_GROUPS = ("statement", "solution", "structural", "world", "performance")

TRANSFORM_TOKENS = ("bin", "log", "max", "idf", "weights")

SOLUTION_WEIGHT_FACTOR = 5.0

_WORD_SPLIT = re.compile(r"[^0-9a-z]+")


@dataclass(frozen=True)
class FeatureMatrix:
    """Items by named features. Each feature carries a group tag; the pair
    (group, name) is unique within a matrix. Rows follow corpus item order."""

    item_ids: tuple[str, ...]
    groups: tuple[str, ...]
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.shape != (len(self.item_ids), len(self.names)):
            raise ItemsimError(
                f"feature matrix shape {self.values.shape} does not match "
                f"{len(self.item_ids)} items x {len(self.names)} features"
            )
        if len(self.groups) != len(self.names):
            raise ItemsimError("groups and names must have equal length")
        for g in self.groups:
            if g not in FEATURE_GROUPS:
                raise ItemsimError(f"unknown feature group {g!r}")
        if any(not n for n in self.names):
            raise ItemsimError("empty feature name")
        if len(set(zip(self.groups, self.names))) != len(self.names):
            raise ItemsimError("duplicate feature names")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ItemsimError("duplicate item ids")
        if not np.all(np.isfinite(self.values)):
            raise ItemsimError("feature values must be finite")

    @property
    def full_names(self) -> tuple[str, ...]:
        """Names with their group prefix, as used in CSV headers."""
        return tuple(f"{g}:{n}" for g, n in zip(self.groups, self.names))

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_features(self) -> int:
        return len(self.names)


def tokenize_statement(text: str, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stopwords and
    single-character tokens."""
    tokens = _WORD_SPLIT.split(text.lower())
    return [t for t in tokens if len(t) >= 2 and t not in stopwords]


def statement_bow(corpus: Corpus, stopwords: frozenset[str] = frozenset()) -> FeatureMatrix:
    """Word-count matrix over statement texts. Items without a statement get
    an all-zero row."""
    per_item = [
        tokenize_statement(it.statement_text or "", stopwords) for it in corpus.items
    ]
    vocab = sorted({t for tokens in per_item for t in tokens})
    index = {t: j for j, t in enumerate(vocab)}
    values = np.zeros((len(corpus), len(vocab)))
    for i, tokens in enumerate(per_item):
        for t in tokens:
            values[i, index[t]] += 1
    return FeatureMatrix(
        item_ids=corpus.item_ids,
        groups=("statement",) * len(vocab),
        names=tuple(vocab),
        values=values,
    )


def _label_counts(ast: AstNode) -> dict[str, int]:
    counts: dict[str, int] = {}
    for label in iter_labels(ast):
        counts[label] = counts.get(label, 0) + 1
    return counts


def solution_keyword_features(corpus: Corpus, selector: str = "sample") -> FeatureMatrix:
    """AST-label count matrix over selected solutions. Each row is the
    weighted average of the item's per-solution count vectors (weights
    normalized to sum 1 per item), so under "all" heavier solutions count
    more. Items with an empty selection are excluded and reported."""
    selected: list[tuple[str, tuple[tuple[Solution, float], ...]]] = []
    skipped = []
    for it in corpus.items:
        chosen = select_solutions(it, selector)
        if chosen:
            total = sum(s.weight for s in chosen)
            selected.append((it.id, tuple((s, s.weight / total) for s in chosen)))
        else:
            skipped.append(it.id)
    if not selected:
        raise ItemsimError(f"no item has a solution under selector {selector!r}")
    if skipped:
        log.warning(
            "solution features (%s): excluded %d items without a matching solution: %s",
            selector, len(skipped), ", ".join(skipped),
        )
    vocab = sorted(
        {label for _, chosen in selected for sol, _ in chosen for label in _label_counts(sol.ast)}
    )
    index = {lab: j for j, lab in enumerate(vocab)}
    values = np.zeros((len(selected), len(vocab)))
    for i, (_, chosen) in enumerate(selected):
        for sol, w in chosen:
            for label, count in _label_counts(sol.ast).items():
                values[i, index[label]] += w * count
    return FeatureMatrix(
        item_ids=tuple(item_id for item_id, _ in selected),
        groups=("solution",) * len(vocab),
        names=tuple(vocab),
        values=values,
    )


def _uses_functions(ast: AstNode) -> bool:
    return any(lab == "def" or lab.startswith("def_") for lab in iter_labels(ast))


def structural_features(corpus: Corpus) -> FeatureMatrix:
    """node_count, max_depth, uses_functions from each item's sample solution
    (first solution when no sample exists)."""
    rows = []
    ids = []
    skipped = []
    for it in corpus.items:
        sol = it.sample_solution() or (it.solutions[0] if it.solutions else None)
        if sol is None:
            skipped.append(it.id)
            continue
        rows.append(
            [node_count(sol.ast), max_depth(sol.ast), 1.0 if _uses_functions(sol.ast) else 0.0]
        )
        ids.append(it.id)
    if skipped:
        log.warning("structural features: excluded %d items without solutions: %s",
                    len(skipped), ", ".join(skipped))
    if not ids:
        raise ItemsimError("no item has a solution")
    return FeatureMatrix(
        item_ids=tuple(ids),
        groups=("structural",) * 3,
        names=("node_count", "max_depth", "uses_functions"),
        values=np.array(rows, dtype=np.float64),
    )


def world_features(corpus: Corpus) -> FeatureMatrix:
    """Per-concept cell counts plus grid_rows, grid_cols, command_limit
    (0 when absent). Items without worlds are excluded and reported."""
    with_world = [it for it in corpus.items if it.world is not None]
    skipped = [it.id for it in corpus.items if it.world is None]
    if skipped:
        log.warning("world features: excluded %d items without worlds: %s",
                    len(skipped), ", ".join(skipped))
    if not with_world:
        raise ItemsimError("no item has a world")
    concepts = sorted({name for it in with_world for name in it.world.legend.values()})
    names = tuple(concepts) + ("grid_rows", "grid_cols", "command_limit")
    values = np.zeros((len(with_world), len(names)))
    for i, it in enumerate(with_world):
        counts = it.world.concept_counts()
        for j, concept in enumerate(concepts):
            values[i, j] = counts.get(concept, 0)
        values[i, len(concepts)] = it.world.rows
        values[i, len(concepts) + 1] = it.world.cols
        values[i, len(concepts) + 2] = it.command_limit or 0
    return FeatureMatrix(
        item_ids=tuple(it.id for it in with_world),
        groups=("world",) * len(names),
        names=names,
        values=values,
    )


def performance_features(
    table: PerformanceTable, item_ids: tuple[str, ...] | None = None
) -> FeatureMatrix:
    """mean_log_time, var_log_time (population variance), success_rate per
    item. Items default to the table's."""
    column = {item_id: j for j, item_id in enumerate(table.item_ids)}
    item_ids = table.item_ids if item_ids is None else item_ids
    missing = [i for i in item_ids if i not in column]
    if missing:
        log.warning("performance features: excluded %d items without records: %s",
                    len(missing), ", ".join(missing))
    item_ids = tuple(i for i in item_ids if i in column)
    if not item_ids:
        raise ItemsimError("no performance records")
    values = np.zeros((len(item_ids), 3))
    for i, j in enumerate(column[item_id] for item_id in item_ids):
        attempted = ~np.isnan(table.time_seconds[:, j])
        logs = table.log_time[attempted, j]
        values[i] = [logs.mean(), logs.var(), table.success[attempted, j].sum() / len(logs)]
    return FeatureMatrix(
        item_ids=item_ids,
        groups=("performance",) * 3,
        names=("mean_log_time", "var_log_time", "success_rate"),
        values=values,
    )


def check_transforms(tokens: Sequence) -> tuple[str, ...]:
    """The tokens as a tuple; a non-string or unknown token is rejected."""
    unknown = [str(t) for t in tokens if not (isinstance(t, str) and t in TRANSFORM_TOKENS)]
    if unknown:
        raise ItemsimError(f"unknown transform tokens: {', '.join(unknown)}")
    return tuple(tokens)


def apply_transform(m: FeatureMatrix, token: str) -> FeatureMatrix:
    """bin: v>0 becomes 1. log: ln(1+v). max: per-feature division by the
    maximum (all-zero features unchanged). idf: per-feature multiplication by
    ln(N/df) where df counts items with v>0 (df=0 features unchanged).
    weights: the solution group times SOLUTION_WEIGHT_FACTOR."""
    check_transforms((token,))
    v = m.values
    if token in ("bin", "log", "idf") and np.any(v < 0):
        raise ItemsimError(f"{token} transform requires non-negative values")
    if token == "bin":
        out = (v > 0).astype(np.float64)
    elif token == "log":
        out = np.log1p(v)
    elif token == "max":
        col_max = v.max(axis=0) if len(v) else np.zeros(m.n_features)
        divisor = np.where(col_max > 0, col_max, 1.0)
        out = v / divisor
    elif token == "idf":
        df = (v > 0).sum(axis=0)
        weight = np.where(df > 0, np.log(len(m.item_ids) / np.maximum(df, 1)), 1.0)
        out = v * weight
    else:  # weights
        mask = np.array([g == "solution" for g in m.groups], dtype=bool)
        out = v.copy()
        out[:, mask] *= SOLUTION_WEIGHT_FACTOR
    return FeatureMatrix(item_ids=m.item_ids, groups=m.groups, names=m.names, values=out)


def apply_transforms(m: FeatureMatrix, tokens: Sequence[str]) -> FeatureMatrix:
    for token in tokens:
        m = apply_transform(m, token)
    return m


def concat_features(ms: list[FeatureMatrix]) -> FeatureMatrix:
    """Horizontal concatenation over an identical item list. Feature names
    may repeat across groups (the group prefix disambiguates), never within
    the combined matrix."""
    if not ms:
        raise ItemsimError("nothing to concatenate")
    ids = ms[0].item_ids
    for m in ms[1:]:
        if m.item_ids != ids:
            raise ItemsimError("feature matrices cover different item sets")
    return FeatureMatrix(
        item_ids=ids,
        groups=tuple(g for m in ms for g in m.groups),
        names=tuple(n for m in ms for n in m.names),
        values=np.hstack([m.values for m in ms]),
    )


def restrict_items(m: FeatureMatrix, item_ids: tuple[str, ...]) -> FeatureMatrix:
    """Keep only the given items, in the given order."""
    index = {item_id: i for i, item_id in enumerate(m.item_ids)}
    missing = [i for i in item_ids if i not in index]
    if missing:
        raise ItemsimError(f"items not in feature matrix: {', '.join(missing)}")
    rows = [index[i] for i in item_ids]
    return FeatureMatrix(
        item_ids=tuple(item_ids), groups=m.groups, names=m.names, values=m.values[rows]
    )


def combine_matrices(
    ms: list[np.ndarray], method: str = "average", weights: list[float] | None = None
) -> np.ndarray:
    """Elementwise combination of equally shaped matrices. Weights are only
    valid with average and are normalized to sum 1. Missing (NaN) entries
    propagate."""
    if not ms:
        raise ItemsimError("nothing to combine")
    arrays = [np.asarray(m, dtype=np.float64) for m in ms]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ItemsimError("matrix shapes differ")
    if method == "average":
        if weights is None:
            weights = [1.0] * len(arrays)
        if len(weights) != len(arrays):
            raise ItemsimError("one weight per matrix required")
        if any(not (math.isfinite(w) and w > 0) for w in weights):
            raise ItemsimError("weights must be finite and positive")
        total = sum(weights)
        return sum(w / total * a for w, a in zip(weights, arrays))
    if weights is not None:
        raise ItemsimError(f"weights are not meaningful with method {method!r}")
    stacked = np.stack(arrays)
    if method == "min":
        return stacked.min(axis=0)
    if method == "max":
        return stacked.max(axis=0)
    raise ItemsimError(f"unknown combination method {method!r}")
