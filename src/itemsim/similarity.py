"""Item similarity matrices from features, edit distances, and performance.

Entries may be missing (NaN) when the data is insufficient: constant rows
under Pearson, zero-norm rows under cosine, item pairs with too few common
learners. Matrices are exactly symmetric because every unordered pair is
computed once and mirrored.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, PerformanceTable, select_solutions
from .editdist import NwScoring, levenshtein, needleman_wunsch_batch, tree_form, zhang_shasha_batch
from .errors import ItemsimError
from .features import FeatureMatrix, item_rows
from .tree import DEFAULT_TOTAL_CAP, DEFAULT_UNROLL_CAP, action_sequence, canonize

log = logging.getLogger("itemsim.similarity")

METRICS = ("correlation", "cosine", "euclidean")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square symmetric matrix over item ids; NaN marks missing entries.
    The diagonal always holds the measure's self-similarity."""

    item_ids: tuple[str, ...]
    values: np.ndarray
    measure_name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        n = len(self.item_ids)
        if self.values.shape != (n, n):
            raise ItemsimError(f"similarity matrix shape {self.values.shape} for {n} items")
        if len(set(self.item_ids)) != n:
            raise ItemsimError("duplicate item ids")
        missing = np.isnan(self.values)
        if not np.array_equal(missing, missing.T):
            raise ItemsimError("missing entries must be symmetric")
        if not np.array_equal(self.values[~missing], self.values.T[~missing]):
            raise ItemsimError("similarity matrix must be exactly symmetric")
        if n and np.isnan(self.values.diagonal()).any():
            raise ItemsimError("diagonal entries must be defined")

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.values)

    def dissimilarity(self) -> np.ndarray:
        """max(S) - S; a missing entry, or a largest entry that is not
        finite, is an error."""
        if self.missing_mask().any():
            raise ItemsimError("similarity matrix has missing entries")
        top = float(self.values.max(initial=-math.inf))
        if self.n_items and not math.isfinite(top):
            raise ItemsimError(f"similarity matrix has largest entry {top}: max(S) - S is undefined")
        return top - self.values


def _mirror_upper(values: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one so symmetry is exact."""
    out = values.copy()
    i, j = np.tril_indices(len(values), k=-1)
    out[i, j] = out[j, i]
    return out


def similarity_from_features(
    m: FeatureMatrix, metric: str = "correlation", measure_name: str | None = None
) -> SimilarityMatrix:
    """Row-vector similarity under correlation (Pearson), cosine, or
    subtracted euclidean (S = -distance). Degenerate rows (constant for
    correlation, zero for cosine) yield missing entries against every other
    item."""
    if metric not in METRICS:
        raise ItemsimError(f"unknown metric {metric!r}")
    if m.n_items == 0 or m.n_features == 0:
        raise ItemsimError("empty feature matrix")
    v = m.values
    if metric == "euclidean":
        sq = (v * v).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (v @ v.T)
        s = -np.sqrt(np.maximum(d2, 0.0))
        s = _mirror_upper(s)
        np.fill_diagonal(s, 0.0)
    else:
        rows = v - v.mean(axis=1, keepdims=True) if metric == "correlation" else v
        norms = np.linalg.norm(rows, axis=1)
        valid = norms > 0
        safe = np.where(valid, norms, 1.0)
        unit = rows / safe[:, None]
        s = np.clip(unit @ unit.T, -1.0, 1.0)
        s = _mirror_upper(s)
        s[~valid, :] = np.nan
        s[:, ~valid] = np.nan
        np.fill_diagonal(s, 1.0)
    return SimilarityMatrix(
        item_ids=m.item_ids, values=s, measure_name=measure_name or metric
    )


def restrict(s: SimilarityMatrix, item_ids: tuple[str, ...]) -> SimilarityMatrix:
    """Keep only the given items, in the given order."""
    rows = item_rows(s.item_ids, item_ids, "similarity matrix")
    return replace(s, item_ids=tuple(item_ids), values=s.values[np.ix_(rows, rows)])


def _centred_sums(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    xc = x - x.mean()
    yc = y - y.mean()
    return float(xc @ xc), float(yc @ yc), float(xc @ yc)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two equal-length vectors, clipped to [-1, 1];
    NaN when all values of either vector are equal (or either holds a NaN
    or an infinity). Correlation is scale-invariant: vectors whose centred
    sums of squares leave the float64 range are divided by their largest
    magnitude first, and all others are used as they are, bit for bit."""
    if len(x) == 0 or x.min() == x.max() or y.min() == y.max():
        return math.nan
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sums = _centred_sums(x, y)
        if not (all(map(math.isfinite, sums)) and sums[0] and sums[1]):
            sums = _centred_sums(x / np.abs(x).max(), y / np.abs(y).max())
    sxx, syy, sxy = sums
    if not (all(map(math.isfinite, sums)) and sxx and syy):
        return math.nan
    return max(-1.0, min(1.0, sxy / (math.sqrt(sxx) * math.sqrt(syy))))


def _distance_similarity(d: float, la: int, lb: int) -> float:
    return 1.0 - d / max(la + lb, 1)


def _each_pair(kernel):
    """A kind's kernel over many pairs that calls kernel once per pair, so
    each pair is its own batch."""
    return lambda inputs, pairs, scoring: ([kernel(inputs[a], inputs[b]) for a, b in pairs],
                                           len(pairs))


# kind -> (prepare(ast, caps), size(input), kernel(inputs, pairs, nw_scoring),
# to_similarity(value, size_a, size_b), sign, self_value). prepare returns a
# hashable kernel input. kernel returns the value of each (index_a, index_b)
# pair of inputs and the number of batches it computed them in. The best
# pair has the smallest sign * value: distances are minimised, alignment
# scores maximised. self_value is the kernel's value on two equal inputs
# where one is known: 0 for the distances, none for nw, whose self score
# depends on the scoring. The lambdas look canonize and action_sequence up
# at call time, so rebinding the module attributes reaches them.
_EDIT_KINDS = {
    "levenshtein": (lambda ast, caps: tuple(canonize(ast)), len, _each_pair(levenshtein),
                    _distance_similarity, 1.0, 0),
    "ted": (lambda ast, caps: tree_form(ast), lambda form: len(form[0]),
            lambda forms, pairs, scoring: zhang_shasha_batch(forms, pairs),
            _distance_similarity, 1.0, 0),
    "nw": (lambda ast, caps: tuple(action_sequence(ast, **caps)), len, needleman_wunsch_batch,
           lambda score, la, lb: score / max(la, lb, 1), -1.0, None),
}


def edit_similarity(
    corpus: Corpus,
    kind: str = "ted",
    selector: str = "sample",
    aggregation: str = "min",
    nw_scoring: NwScoring = NwScoring(),
    unroll_cap: int = DEFAULT_UNROLL_CAP,
    total_cap: int = DEFAULT_TOTAL_CAP,
) -> SimilarityMatrix:
    """Solution-based similarity. Distances are computed between every
    cross-pair of the items' selected solutions and aggregated: min keeps
    the closest pair (largest score for alignment), average takes the mean
    of the per-pair similarities. The diagonal aggregates each solution
    paired with itself.

    Conversion per pair: levenshtein and ted use S = 1 - d/(len(a)+len(b))
    over token and node counts; nw uses S = score/max(len(a), len(b), 1)
    over action sequences. An alignment score or mean that overflows
    float64 is an error.

    Each solution is prepared once. Solutions with equal kernel inputs
    share one index, so each ordered pair of distinct inputs is computed
    once, in one kernel call per measure, and two equal inputs of ted or
    levenshtein never reach the kernel."""
    if kind not in _EDIT_KINDS:
        raise ItemsimError(f"unknown edit-distance kind {kind!r}")
    if aggregation not in ("min", "average"):
        raise ItemsimError(f"unknown aggregation {aggregation!r}")
    chosen = [(it.id, select_solutions(it, selector)) for it in corpus.items]
    empty = [item_id for item_id, sols in chosen if not sols]
    if empty:
        raise ItemsimError(
            f"no solution under selector {selector!r} for items: {', '.join(empty)}"
        )
    prepare, size, kernel, to_similarity, sign, self_value = _EDIT_KINDS[kind]
    caps = {"unroll_cap": unroll_cap, "total_cap": total_cap}
    index: dict = {}  # kernel input -> its index among the distinct inputs
    groups = [
        [index.setdefault(prepare(s.ast, caps), len(index)) for s in sols] for _, sols in chosen
    ]
    inputs = list(index)
    sizes = [size(x) for x in inputs]

    # the solution pairs of each upper-triangle cell, with multiplicity
    n = len(chosen)
    cells = {}
    for i in range(n):
        cells[i, i] = [(a, a) for a in groups[i]]
        for j in range(i + 1, n):
            cells[i, j] = [(a, b) for a in groups[i] for b in groups[j]]
    solution_pairs = [p for pairs in cells.values() for p in pairs]
    known = {} if self_value is None else {(a, a): self_value for a in range(len(inputs))}
    todo = list(dict.fromkeys(p for p in solution_pairs if p not in known))
    computed, batches = kernel(inputs, todo, nw_scoring)
    value = {**known, **dict(zip(todo, computed))}

    def cell(pairs) -> float:
        scored = [(value[p], sizes[p[0]], sizes[p[1]]) for p in pairs]
        if aggregation == "min":
            # the pick is by raw distance or score, ties to the first pair
            return to_similarity(*min(scored, key=lambda p: sign * p[0]))
        return float(np.mean([to_similarity(*p) for p in scored]))

    values = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the error below
        for (i, j), pairs in cells.items():
            values[i, j] = values[j, i] = cell(pairs)
    if not (all(map(math.isfinite, computed)) and np.isfinite(values).all()):
        raise ItemsimError(
            f"{kind} alignment scores overflow float64 under match={nw_scoring.match!r}, "
            f"mismatch={nw_scoring.mismatch!r}, gap={nw_scoring.gap!r}"
        )
    n_self = sum(p in known for p in solution_pairs)
    log.info(
        "edit %s: %d items, %d solution pairs, %d kernel calls, %d known self pairs, "
        "%d pairs from repeated inputs, %d batches, %d DP cells", kind, n, len(solution_pairs),
        len(todo), n_self, len(solution_pairs) - n_self - len(todo), batches,
        sum(sizes[a] * sizes[b] for a, b in todo),
    )
    name = kind if selector == "sample" and aggregation == "min" else f"{kind}/{selector}/{aggregation}"
    return SimilarityMatrix(
        item_ids=tuple(item_id for item_id, _ in chosen), values=values, measure_name=name
    )


def performance_similarity(
    table: PerformanceTable,
    measure: str = "log_time",
    min_overlap: int = 10,
    item_ids: tuple[str, ...] | None = None,
) -> SimilarityMatrix:
    """Pairwise Pearson correlation of learner performance over the learners
    who attempted both items; pairs with fewer than min_overlap common
    learners stay missing, and so do pairs where either item's values over
    the common learners are all equal. measure: log_time (natural log of
    time_seconds) or success (0/1). item_ids default to the table's; an id
    the table lacks gets a column without attempts.

    All pairs come from masked Gram products over the learner x item matrix
    X (zero where not attempted, each column shifted by the mean of its
    attempts) and the attempt mask H: common learners H^T H, sums X^T H,
    squares (X*X)^T H and cross-products X^T X give each pair's variances
    and covariance over its common learners. A pair is computed again with
    `pearson` over its common learners when either variance is below 2**-10
    of its sum of squares about the column mean (cancellation would cost
    the Gram form more than about 1e-13) or below 2**-20 of the sum of
    squares of the values themselves (pearson's rounded mean would move
    its own result by more than that); an exact zero variance is always
    among them. So values are within 1e-12 of `pearson` over the common
    learners, and missing exactly where it is."""
    if measure not in ("log_time", "success"):
        raise ItemsimError(f"unknown performance measure {measure!r}")
    if min_overlap < 1:
        raise ItemsimError("min_overlap must be positive")
    item_ids = table.item_ids if item_ids is None else item_ids
    source = table.log_time if measure == "log_time" else table.success
    # column -1 is all NaN: the column of an id the table lacks
    padded = np.column_stack([source, np.full(len(source), np.nan)])
    column = {item_id: j for j, item_id in enumerate(table.item_ids)}
    cols = [column.get(item_id, -1) for item_id in item_ids]
    x = padded[:, cols]
    del padded

    have = ~np.isnan(x)
    # a column whose attempts are all equal is missing against every item
    constant = (x.min(axis=0, where=have, initial=np.inf)
                == x.max(axis=0, where=have, initial=-np.inf))
    h = have.astype(np.float64)
    x[~have] = 0.0
    shift = x.sum(axis=0) / np.maximum(h.sum(axis=0), 1.0)
    x -= shift
    x *= h
    counts = h.T @ h
    sums = x.T @ h  # sums[i, j]: item i's values summed over the learners common with j
    values = x.T @ x
    squares = np.square(x, out=x).T @ h
    del h, x
    shift = shift[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        means = sums / counts
        values -= sums * means.T  # the covariances
        var = np.subtract(squares, sums * means, out=means)
        # sums of squares of the values themselves: about zero, not the shift
        unshifted = counts * shift
        unshifted += 2.0 * sums
        unshifted *= shift
        unshifted += squares
        low = (var <= 2.0 ** -10 * squares) | (var <= 2.0 ** -20 * unshifted)
        del unshifted
        norms = var * var.T
        values /= np.sqrt(norms, out=norms)

    n = len(item_ids)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    enough = counts >= min_overlap
    defined = enough & ~constant[:, None] & ~constant[None, :]
    pairs = np.argwhere(defined & (low | low.T) & upper)
    for i, j in pairs:  # both items have attempts, so both are columns of source
        common = have[:, i] & have[:, j]
        values[i, j] = pearson(source[common, cols[i]], source[common, cols[j]])
    values[~defined] = np.nan
    np.clip(values, -1.0, 1.0, out=values)
    values = _mirror_upper(values)
    np.fill_diagonal(values, 1.0)
    log.info("perfcorr %s: %d items, %d learners, %d pairs below min_overlap %d, "
             "%d pairs with a constant item, %d low-variance pairs re-checked", measure, n,
             len(source), np.count_nonzero(upper & ~enough), min_overlap,
             np.count_nonzero(upper & enough & ~defined), len(pairs))
    return SimilarityMatrix(item_ids=item_ids, values=values, measure_name="perfcorr")
