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
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, PerformanceTable, select_solutions
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


def _matrix(group: str, item_ids: Sequence[str], rows: Sequence[dict[str, float]] = (),
            fixed_names: tuple[str, ...] = (), fixed: Sequence = ()) -> FeatureMatrix:
    """One row per item: its name -> value dict over the sorted names of all
    rows (0 where a row lacks a name), then its row of `fixed` under
    fixed_names. A counted name equal to a fixed one stays a duplicate name."""
    names = sorted({name for row in rows for name in row})
    index = {name: j for j, name in enumerate(names)}
    values = np.zeros((len(item_ids), len(names) + len(fixed_names)))
    for i, row in enumerate(rows):
        for name, value in row.items():
            values[i, index[name]] = value
    values[:, len(names):] = np.reshape(fixed, (len(item_ids), len(fixed_names)))
    names = tuple(names) + fixed_names
    return FeatureMatrix(tuple(item_ids), (group,) * len(names), names, values)


def _accepted(found: list[tuple[str, object]], source: str, lacking: str, none_left: str):
    """Ids and values of the (item id, value) pairs whose value is not None. The others
    are excluded with one warning; when none is left, the error is raised without it."""
    kept = [(item_id, value) for item_id, value in found if value is not None]
    if not kept:
        raise ItemsimError(none_left)
    skipped = [item_id for item_id, value in found if value is None]
    if skipped:
        log.warning("%s: excluded %d items without %s: %s",
                    source, len(skipped), lacking, ", ".join(skipped))
    return tuple(zip(*kept))


def statement_bow(corpus: Corpus, stopwords: frozenset[str] = frozenset()) -> FeatureMatrix:
    """Word-count matrix over statement texts. Items without a statement get
    an all-zero row."""
    rows = [Counter(tokenize_statement(it.statement_text or "", stopwords)) for it in corpus.items]
    return _matrix("statement", corpus.item_ids, rows)


def solution_keyword_features(corpus: Corpus, selector: str = "sample") -> FeatureMatrix:
    """AST-label count matrix over selected solutions. Each row is the
    weighted average of the item's per-solution count vectors (weights
    normalized to sum 1 per item), so under "all" heavier solutions count
    more. Items with an empty selection are excluded and reported."""
    ids, selections = _accepted(
        [(it.id, select_solutions(it, selector) or None) for it in corpus.items],
        f"solution features ({selector})", "a matching solution",
        f"no item has a solution under selector {selector!r}")
    rows = []
    for chosen in selections:
        total = sum(s.weight for s in chosen)
        row: Counter = Counter()
        for sol in chosen:
            for label, count in Counter(iter_labels(sol.ast)).items():
                row[label] += sol.weight / total * count
        rows.append(row)
    return _matrix("solution", ids, rows)


def _uses_functions(ast: AstNode) -> bool:
    return any(lab == "def" or lab.startswith("def_") for lab in iter_labels(ast))


def structural_features(corpus: Corpus) -> FeatureMatrix:
    """node_count, max_depth, uses_functions from each item's sample solution
    (first solution when no sample exists)."""
    ids, solutions = _accepted(
        [(it.id, it.sample_solution() or next(iter(it.solutions), None)) for it in corpus.items],
        "structural features", "solutions", "no item has a solution")
    return _matrix("structural", ids, (), ("node_count", "max_depth", "uses_functions"), [
        [node_count(s.ast), max_depth(s.ast), 1.0 if _uses_functions(s.ast) else 0.0]
        for s in solutions
    ])


def world_features(corpus: Corpus) -> FeatureMatrix:
    """Per-concept cell counts plus grid_rows, grid_cols, command_limit
    (0 when absent). Items without worlds are excluded and reported."""
    ids, items = _accepted(
        [(it.id, it if it.world is not None else None) for it in corpus.items],
        "world features", "worlds", "no item has a world")
    return _matrix("world", ids, [it.world.concept_counts() for it in items],
                   ("grid_rows", "grid_cols", "command_limit"),
                   [[it.world.rows, it.world.cols, it.command_limit or 0] for it in items])


def performance_features(
    table: PerformanceTable, item_ids: tuple[str, ...] | None = None
) -> FeatureMatrix:
    """mean_log_time, var_log_time (population variance), success_rate per
    item. Items default to the table's."""
    column = {item_id: j for j, item_id in enumerate(table.item_ids)}
    item_ids = table.item_ids if item_ids is None else item_ids
    item_ids, columns = _accepted([(item_id, column.get(item_id)) for item_id in item_ids],
                                  "performance features", "records", "no performance records")
    stats = []
    for j in columns:
        attempted = ~np.isnan(table.time_seconds[:, j])
        logs = table.log_time[attempted, j]
        stats.append([logs.mean(), logs.var(), table.success[attempted, j].sum() / len(logs)])
    return _matrix("performance", item_ids, (),
                   ("mean_log_time", "var_log_time", "success_rate"), stats)


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


def item_rows(have: tuple[str, ...], item_ids: tuple[str, ...], what: str) -> list[int]:
    """The position in `have` of each item id; one it lacks is an error naming `what`."""
    index = {item_id: i for i, item_id in enumerate(have)}
    missing = [i for i in item_ids if i not in index]
    if missing:
        raise ItemsimError(f"items not in {what}: {', '.join(missing)}")
    return [index[i] for i in item_ids]


def restrict_items(m: FeatureMatrix, item_ids: tuple[str, ...]) -> FeatureMatrix:
    """Keep only the given items, in the given order."""
    rows = item_rows(m.item_ids, item_ids, "feature matrix")
    return replace(m, item_ids=tuple(item_ids), values=m.values[rows])


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
