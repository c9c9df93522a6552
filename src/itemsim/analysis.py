"""Agreement between similarity measures, split-half stability, clustering.

Level 2 compares similarity matrices pairwise (Pearson over flattened pairs,
or overlap of per-item top-n neighbor sets). Level 3 compares the resulting
agreement matrices. Clustering quality against manual level labels uses
k-means and the Rand Index.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import PerformanceTable
from .errors import ItemsimError
from .similarity import SimilarityMatrix, pearson, performance_similarity

log = logging.getLogger("itemsim.analysis")


@dataclass(frozen=True)
class AgreementMatrix:
    """Square symmetric matrix of pairwise agreement between named
    similarity measures. method: "correlation" or "top:<n>"."""

    measure_names: tuple[str, ...]
    values: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        n = len(self.measure_names)
        if self.values.shape != (n, n):
            raise ItemsimError(f"agreement matrix shape {self.values.shape} for {n} measures")
        if not np.array_equal(self.values, self.values.T):
            raise ItemsimError("agreement matrix must be symmetric")
        if n and not np.all(self.values.diagonal() == 1.0):
            raise ItemsimError("agreement diagonal must be exactly 1")
        parse_method(self.method)


def parse_method(method: str) -> tuple[str, int | None]:
    """("correlation", None), or ("top", n) for top:<n>, n in 1-4300 ASCII digits, no leading 0."""
    if method == "correlation":
        return "correlation", None
    top = re.fullmatch(r"top:([1-9][0-9]{0,4299})", method)  # int() refuses over 4300 digits
    if top:
        return "top", int(top[1])
    raise ItemsimError(f"unknown agreement method {method!r}; use correlation or top:<n>")


@dataclass(frozen=True)
class Partition:
    item_ids: tuple[str, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.item_ids):
            raise ItemsimError("one label per item required")
        if any(not isinstance(l, int) or l < 0 for l in self.labels):
            raise ItemsimError("labels must be non-negative integers")


def _upper_correlation(a: np.ndarray, b: np.ndarray, counted: str, spread: str) -> float:
    """Pearson correlation over the strict upper-triangle entries defined in
    both matrices. Fewer than 2 of them, or a side whose values are equal up
    to rounding (max - min within 2**-40 of its largest magnitude), is an error."""
    i, j = np.triu_indices(len(a), k=1)
    x, y = a[i, j], b[i, j]
    keep = ~(np.isnan(x) | np.isnan(y))
    x, y = x[keep], y[keep]
    if len(x) < 2:
        raise ItemsimError(f"only {len(x)} {counted}; need at least 2")
    with np.errstate(over="ignore", invalid="ignore"):
        flat = any(v.max() - v.min() <= 2.0 ** -40 * np.abs(v).max() for v in (x, y))
    r = math.nan if flat else pearson(x, y)
    if math.isnan(r):
        raise ItemsimError(f"zero variance over {spread}")
    return r


def agreement_correlation(s1: SimilarityMatrix, s2: SimilarityMatrix) -> float:
    """Pearson correlation over item pairs defined in both matrices."""
    if s1.item_ids != s2.item_ids:
        raise ItemsimError("similarity matrices cover different item sets")
    return _upper_correlation(s1.values, s2.values, "common defined pairs", "common pairs")


def _top_neighbors(s: SimilarityMatrix, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i of the first array marks the n most similar other items of
    item i, ties by ascending item id (Python string order); the second
    says which items have at least n defined neighbors. One lexsort per row
    over (undefined or diagonal, -value, id rank): undefined entries sort
    last by their own key, so a defined -inf keeps its place."""
    k = s.n_items
    rank = np.empty(k, dtype=np.int64)
    rank[sorted(range(k), key=s.item_ids.__getitem__)] = np.arange(k)
    undefined = np.isnan(s.values)
    np.fill_diagonal(undefined, True)
    order = np.lexsort((np.broadcast_to(rank, (k, k)), -s.values, undefined))
    top = np.zeros((k, k), dtype=bool)
    np.put_along_axis(top, order[:, :n], True, axis=1)
    return top, k - undefined.sum(axis=1) >= n


def agreement_topn(s1: SimilarityMatrix, s2: SimilarityMatrix, n: int) -> float:
    """Mean normalized overlap of per-item top-n neighbor sets, in item
    order. Neighbors tie by ascending item id. Items with fewer than n
    defined neighbors in either matrix are skipped."""
    if n < 1:
        raise ItemsimError("n must be positive")
    return _topn_overlap(s1, s2, _top_neighbors(s1, n), _top_neighbors(s2, n), n)


def _topn_overlap(s1: SimilarityMatrix, s2: SimilarityMatrix, neighbors1: tuple,
                  neighbors2: tuple, n: int) -> float:
    """agreement_topn of s1 and s2, given the _top_neighbors of each."""
    if s1.item_ids != s2.item_ids:
        raise ItemsimError("similarity matrices cover different item sets")
    (top1, enough1), (top2, enough2) = neighbors1, neighbors2
    kept = enough1 & enough2
    skipped = [item_id for item_id, k in zip(s1.item_ids, kept) if not k]
    if skipped:
        log.warning("top-%d agreement: skipped %d items with too few defined neighbors: %s",
                    n, len(skipped), ", ".join(skipped))
    if not kept.any():
        raise ItemsimError(f"no item has {n} defined neighbors in both matrices")
    return float(np.mean((top1 & top2)[kept].sum(axis=1) / n))


def agreement_matrix(measures: list[SimilarityMatrix], method: str = "correlation") -> AgreementMatrix:
    """Pairwise agreement between named similarity matrices."""
    kind, n = parse_method(method)
    if len(measures) < 2:
        raise ItemsimError("need at least 2 measures")
    names = tuple(m.measure_name for m in measures)
    if any(not name for name in names):
        raise ItemsimError("every measure needs a name")
    if len(set(names)) != len(names):
        raise ItemsimError("duplicate measure names")
    k = len(measures)
    values = np.eye(k)
    # each measure's neighbor sets, once for all of its pairs
    neighbors = [_top_neighbors(m, n) for m in measures] if kind == "top" else None
    for a in range(k):
        for b in range(a + 1, k):
            if kind == "correlation":
                v = agreement_correlation(measures[a], measures[b])
            else:
                v = _topn_overlap(measures[a], measures[b], neighbors[a], neighbors[b], n)
            values[a, b] = values[b, a] = v
    return AgreementMatrix(measure_names=names, values=values, method=method)


def meta_agreement(a1: AgreementMatrix, a2: AgreementMatrix) -> float:
    """Pearson correlation between two agreement matrices' strict upper
    triangles (level 3 of the evaluation)."""
    if a1.measure_names != a2.measure_names:
        raise ItemsimError("agreement matrices cover different measure sets")
    return _upper_correlation(a1.values, a2.values, "off-diagonal entries", "agreement entries")


def split_half_stability(
    table: PerformanceTable,
    measure: str = "log_time",
    min_overlap: int = 10,
    seed: int = 0,
) -> float:
    """Shuffle learners with a seeded PRNG, split them into two halves
    (first half rounded up), compute performance similarity per half over
    the full item set, and return the agreement correlation of the halves."""
    n = len(table.learner_ids)
    if n < 2:
        raise ItemsimError("need at least 2 learners")
    order = np.random.default_rng(seed).permutation(n)
    first = np.zeros(n, dtype=bool)
    first[order[: (n + 1) // 2]] = True
    s1 = performance_similarity(table.learner_rows(first), measure, min_overlap, table.item_ids)
    s2 = performance_similarity(table.learner_rows(~first), measure, min_overlap, table.item_ids)
    return agreement_correlation(s1, s2)


def _wcss(x: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    return float(((x - centers[labels]) ** 2).sum())


# the Gram form and the broadcast sum of (x - c)^2 each lie within
# (d + 2) 2**-53 (|x| + |c|)^2 of the exact squared distance over d
# coordinates (Higham's bounds), so the two agree on a row's nearest centre
# where its two smallest Gram values differ by more than
# _GRAM_TOL (d + 2) (|x| + max |c|)^2, twice the sum of both bounds
_GRAM_TOL = 2.0 ** -50


def _nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The index of each row's nearest centre by |x|^2 - 2 x.c + |c|^2. A
    row whose two smallest are within _GRAM_TOL's bound (every row, for one
    centre), or not finite, is recomputed by the broadcast sums, whose first
    minimum wins a tie."""
    with np.errstate(over="ignore", invalid="ignore"):
        xx = np.einsum("ij,ij->i", x, x)
        cc = np.einsum("ij,ij->i", centers, centers)
        d2 = xx[:, None] - 2.0 * (x @ centers.T) + cc
        smallest = np.sort(d2, axis=1)[:, :2]
        bound = _GRAM_TOL * (x.shape[1] + 2) * (np.sqrt(xx) + np.sqrt(cc.max())) ** 2
        close = ~(smallest[:, -1] - smallest[:, 0] > bound) | ~np.isfinite(d2).all(axis=1)
    labels = d2.argmin(axis=1)
    rows = np.flatnonzero(close)
    if len(rows):
        labels[rows] = ((x[rows, None, :] - centers) ** 2).sum(axis=2).argmin(axis=1)
    return labels


def kmeans(s: SimilarityMatrix, k: int, seed: int = 0) -> Partition:
    """Cluster items by one k-means run over similarity-matrix rows:
    k-means++ seeding from `seed`, then Lloyd iterations until no centre
    coordinate moves by 1e-9 or more (at most 300 iterations)."""
    if s.missing_mask().any():
        raise ItemsimError("similarity matrix has missing entries")
    x = s.values
    n = len(x)
    if not 1 <= k <= n:
        raise ItemsimError(f"k={k} out of range for {n} items")
    rng = np.random.default_rng(seed)
    # k-means++ seeding
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = int(rng.integers(n))
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))

    labels = _nearest(x, centers)
    prev_wcss = _wcss(x, centers, labels)
    for _ in range(300):
        new_centers = centers.copy()
        for c in range(k):
            mask = labels == c
            if mask.any():
                new_centers[c] = x[mask].mean(axis=0)
            else:
                # repopulate an emptied cluster with the point farthest
                # from its current center
                dist = ((x - new_centers[labels]) ** 2).sum(axis=1)
                far = int(dist.argmax())
                new_centers[c] = x[far]
                labels = labels.copy()
                labels[far] = c
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        labels = _nearest(x, centers)
        wcss = _wcss(x, centers, labels)
        if wcss > prev_wcss + 1e-9 * max(1.0, prev_wcss):
            raise ItemsimError("k-means objective increased")
        prev_wcss = wcss
        if shift < 1e-9:
            break
    return Partition(item_ids=s.item_ids, labels=tuple(int(l) for l in labels))


def rand_index(p1: Partition, p2: Partition) -> float:
    """Fraction of item pairs co-clustered in both partitions or separated
    in both."""
    if p1.item_ids != p2.item_ids:
        raise ItemsimError("partitions cover different item sets")
    n = len(p1.item_ids)
    if n < 2:
        raise ItemsimError("need at least 2 items")
    a = np.asarray(p1.labels)
    b = np.asarray(p2.labels)
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    i, j = np.triu_indices(n, k=1)
    return float((same_a[i, j] == same_b[i, j]).mean())


def cluster_eval(
    s: SimilarityMatrix, manual: Partition, k: int, runs: int = 10, seed: int = 0
) -> float:
    """Mean Rand Index between manual labels and `runs` k-means runs seeded
    seed, seed+1, ..."""
    if runs < 1:
        raise ItemsimError("runs must be positive")
    if manual.item_ids != s.item_ids:
        raise ItemsimError("manual partition covers a different item set")
    scores = [rand_index(kmeans(s, k, seed=seed + r), manual) for r in range(runs)]
    return float(np.mean(scores))


def hierarchical_order(s: SimilarityMatrix) -> list[int]:
    """Leaf order of an agglomerative average-linkage dendrogram over the
    dissimilarity max(S) - S. Merge ties pick the smallest index pair: a cluster
    keeps the index of its first member, and each merge takes the row-major
    first minimum of the dissimilarities between active clusters. The matrix
    is symmetric, so that minimum lies in the strict upper triangle."""
    n = s.n_items
    with np.errstate(over="ignore"):
        dist = s.dissimilarity()
    # the diagonal and the rows and columns of clusters merged away hold
    # +inf; `active` tells them from real ones
    np.fill_diagonal(dist, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n)
    leaves = [[i] for i in range(n)]
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(dist)), n)
        if dist[i, j] == np.inf:  # every active pair is infinitely far apart
            i, j = np.flatnonzero(active)[:2]
        with np.errstate(over="ignore"):
            merged = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        dist[i] = dist[:, i] = merged  # merged[i] is +inf, as dist[i, i] was
        dist[j] = dist[:, j] = np.inf
        sizes[i] += sizes[j]
        leaves[i] += leaves[j]
        active[j] = False
    return leaves[0] if leaves else []
