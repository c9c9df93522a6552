"""Brute-force reference implementations used to validate the fast
algorithms.

Everything here favors obviousness over speed: exhaustive searches over
edit scripts, tree edit mappings, alignments, and cluster assignments.
They are only feasible for tiny inputs, which is exactly where they are
used. The reference_* functions are earlier, slower implementations of a
fast path, kept to compare against.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from itemsim import AstNode, ItemsimError, NwScoring, SimilarityMatrix, heatmap
from itemsim.similarity import pearson


def oracle_levenshtein(a, b) -> int:
    """Exhaustive search over edit scripts with an admissible lower bound
    for pruning. Independent of the dynamic-programming recurrence: every
    interleaving of copy/substitute/delete/insert steps is explored."""
    best = max(len(a), len(b))  # substitute the overlap, pad the rest

    def explore(i: int, j: int, cost: int) -> None:
        nonlocal best
        # at least |remaining length difference| further edits are forced
        if cost + abs((len(a) - i) - (len(b) - j)) >= best:
            return
        if i == len(a) and j == len(b):
            best = cost
            return
        if i < len(a) and j < len(b):
            explore(i + 1, j + 1, cost + (a[i] != b[j]))
        if i < len(a):
            explore(i + 1, j, cost + 1)
        if j < len(b):
            explore(i, j + 1, cost + 1)

    explore(0, 0, 0)
    return best


def _postorder_ancestry(t: AstNode) -> tuple[list[str], list[set[int]]]:
    """Postorder labels plus, per node, the postorder indices of its
    proper ancestors."""
    labels: list[str] = []
    below_sets: list[set[int]] = []

    def walk(n: AstNode) -> set[int]:
        below: set[int] = set()
        for c in n.children:
            below |= walk(c)
        idx = len(labels)
        labels.append(n.label)
        below_sets.append(set(below))
        below.add(idx)
        return below

    walk(t)
    ancestors = [set() for _ in labels]
    for k, below in enumerate(below_sets):
        for x in below:
            ancestors[x].add(k)
    return labels, ancestors


def oracle_tree_edit(t1: AstNode, t2: AstNode) -> int:
    """Minimum cost over all valid edit mappings between two ordered trees.

    A mapping pairs nodes one-to-one while preserving postorder and the
    ancestor relation. Unmapped nodes cost 1 (delete/insert); mapped pairs
    with differing labels cost 1 (relabel). Order preservation forces the
    mapping to be monotone in postorder, so pairing two increasing index
    subsets enumerates every candidate.
    """
    l1, anc1 = _postorder_ancestry(t1)
    l2, anc2 = _postorder_ancestry(t2)
    n1, n2 = len(l1), len(l2)
    best = n1 + n2
    for k in range(1, min(n1, n2) + 1):
        for left in combinations(range(n1), k):
            for right in combinations(range(n2), k):
                ok = all(
                    (left[q] in anc1[left[p]]) == (right[q] in anc2[right[p]])
                    for p in range(k)
                    for q in range(p + 1, k)
                )
                if ok:
                    relabels = sum(x != y for x, y in zip(
                        (l1[i] for i in left), (l2[j] for j in right)
                    ))
                    best = min(best, n1 + n2 - 2 * k + relabels)
    return best


def reference_levenshtein(a, b) -> int:
    """The two-row Levenshtein recurrence over Python lists. The
    bit-parallel kernel, `itemsim.levenshtein`, must equal it on sequences
    of any length."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[len(b)]


def reference_needleman_wunsch(a, b, s: NwScoring = NwScoring()) -> float:
    """The scalar two-row Needleman-Wunsch recurrence, one cell at a time
    with Python's max. The batched wavefront, `itemsim.needleman_wunsch`
    and `needleman_wunsch_batch`, must equal it bit for bit, signed zeros
    included."""
    prev = [j * s.gap for j in range(len(b) + 1)]
    for i, x in enumerate(a, start=1):
        cur = [i * s.gap]
        for j, y in enumerate(b, start=1):
            cur.append(
                max(
                    prev[j - 1] + (s.match if x == y else s.mismatch),
                    prev[j] + s.gap,
                    cur[j - 1] + s.gap,
                )
            )
        prev = cur
    return float(prev[len(b)])


def reference_tree_edit_distance(t1: AstNode, t2: AstNode) -> int:
    """The Zhang-Shasha recurrence written plainly, one pair per call:
    numpy tables, a forest table per keyroot pair, labels and leftmost
    leaves recomputed per call. The batch kernel,
    `itemsim.editdist.zhang_shasha_batch`, which computes each keyroot
    block once per pair of distinct subtrees, and its one-pair forms
    `zhang_shasha` and `itemsim.tree_edit_distance` must equal it on trees
    of any size, in any batch."""

    def postorder(root: AstNode) -> tuple[list[str], list[int]]:
        labels: list[str] = []
        leftmost: list[int] = []

        def walk(n: AstNode) -> int:
            first = None
            for child in n.children:
                idx = walk(child)
                if first is None:
                    first = idx
            labels.append(n.label)
            leftmost.append(first if first is not None else len(labels) - 1)
            return leftmost[-1]

        walk(root)
        return labels, leftmost

    def keyroots(leftmost: list[int]) -> list[int]:
        highest = {l: i for i, l in enumerate(leftmost)}
        return sorted(highest.values())

    la, lma = postorder(t1)
    lb, lmb = postorder(t2)
    td = np.zeros((len(la), len(lb)), dtype=np.int64)
    for i in keyroots(lma):
        for j in keyroots(lmb):
            li, lj = lma[i], lmb[j]
            rows, cols = i - li + 2, j - lj + 2
            fd = np.zeros((rows, cols), dtype=np.int64)
            fd[1:, 0] = np.arange(1, rows)
            fd[0, 1:] = np.arange(1, cols)
            for di in range(1, rows):
                x = li + di - 1
                for dj in range(1, cols):
                    y = lj + dj - 1
                    if lma[x] == li and lmb[y] == lj:
                        fd[di, dj] = min(
                            fd[di - 1, dj] + 1,
                            fd[di, dj - 1] + 1,
                            fd[di - 1, dj - 1] + (la[x] != lb[y]),
                        )
                        td[x, y] = fd[di, dj]
                    else:
                        fd[di, dj] = min(
                            fd[di - 1, dj] + 1,
                            fd[di, dj - 1] + 1,
                            fd[lma[x] - li, lmb[y] - lj] + td[x, y],
                        )
    return int(td[-1, -1])


def oracle_alignment(a, b, s: NwScoring = NwScoring()) -> float:
    """Best global alignment score, enumerated as monotone matchings:
    matched position pairs score match/mismatch, every unmatched position
    costs one gap."""
    n, m = len(a), len(b)
    best = (n + m) * s.gap
    for k in range(1, min(n, m) + 1):
        gap_total = (n - k + m - k) * s.gap
        for left in combinations(range(n), k):
            for right in combinations(range(m), k):
                matched = sum(
                    s.match if a[i] == b[j] else s.mismatch
                    for i, j in zip(left, right)
                )
                best = max(best, matched + gap_total)
    return float(best)


def enumerate_sequences(max_len: int, alphabet) -> list[tuple[str, ...]]:
    """Every sequence over the alphabet with length 0..max_len."""
    return [seq for n in range(max_len + 1) for seq in product(alphabet, repeat=n)]


def _compositions(total: int):
    """Ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first, *rest)


def enumerate_trees(max_nodes: int, labels) -> list[AstNode]:
    """Every ordered labeled tree with 1..max_nodes nodes."""
    by_size: dict[int, list[AstNode]] = {1: [AstNode(lab) for lab in labels]}
    for n in range(2, max_nodes + 1):
        trees = []
        for label in labels:
            for sizes in _compositions(n - 1):
                for children in product(*[by_size[s] for s in sizes]):
                    trees.append(AstNode(label, tuple(children)))
        by_size[n] = trees
    return [t for n in range(1, max_nodes + 1) for t in by_size[n]]


def oracle_best_two_partition(points) -> tuple[tuple[int, ...], float]:
    """Exhaustive minimum-WCSS split of row vectors into two non-empty
    clusters. Returns (labels, wcss)."""
    x = np.asarray(points, dtype=np.float64)
    n = len(x)
    best_labels: tuple[int, ...] | None = None
    best_wcss = float("inf")
    for bits in range(1, 2 ** n - 1):
        labels = tuple((bits >> i) & 1 for i in range(n))
        wcss = 0.0
        for c in (0, 1):
            members = x[[i for i in range(n) if labels[i] == c]]
            center = members.mean(axis=0)
            wcss += float(((members - center) ** 2).sum())
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels, best_wcss


def reference_performance_similarity(rows, measure: str = "log_time", min_overlap: int = 10,
                                     item_ids=None) -> SimilarityMatrix:
    """The per-record perfcorr loop: (learner_id, item_id, time_seconds,
    success) rows pivoted one at a time into a learner x item table over
    the sorted learners, keeping the first row of a repeated pair, then
    Pearson over the common learners of each item pair."""
    if item_ids is None:
        item_ids = tuple(sorted({item for _, item, _, _ in rows}))
    item_index = {item_id: j for j, item_id in enumerate(item_ids)}
    learner_ids = sorted({learner for learner, _, _, _ in rows})
    learner_index = {learner_id: i for i, learner_id in enumerate(learner_ids)}

    table = np.full((len(learner_ids), len(item_ids)), np.nan)
    for learner, item, time_seconds, success in rows:
        j = item_index.get(item)
        if j is None:
            continue
        i = learner_index[learner]
        if np.isnan(table[i, j]):  # keep-first on duplicates
            table[i, j] = math.log(time_seconds) if measure == "log_time" else float(success)

    have = ~np.isnan(table)
    n = len(item_ids)
    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            common = have[:, i] & have[:, j]
            if int(common.sum()) < min_overlap:
                continue
            values[i, j] = values[j, i] = pearson(table[common, i], table[common, j])
    return SimilarityMatrix(item_ids=item_ids, values=values, measure_name="perfcorr")


def reference_split_halves(rows, measure: str = "log_time", min_overlap: int = 10,
                           seed: int = 0) -> tuple[SimilarityMatrix, SimilarityMatrix]:
    """The per-record split-half loop: the shuffled learners' first half
    (rounded up) and the rest each filter the rows, and each half's
    reference perfcorr is taken over the full item set. Split-half
    stability is their agreement correlation."""
    learners = sorted({learner for learner, _, _, _ in rows})
    item_ids = tuple(sorted({item for _, item, _, _ in rows}))
    rng = np.random.default_rng(seed)
    order = [learners[i] for i in rng.permutation(len(learners))]
    first = set(order[: (len(order) + 1) // 2])
    half_a = [r for r in rows if r[0] in first]
    half_b = [r for r in rows if r[0] not in first]
    return (reference_performance_similarity(half_a, measure, min_overlap, item_ids),
            reference_performance_similarity(half_b, measure, min_overlap, item_ids))


def reference_agreement_topn(s1: SimilarityMatrix, s2: SimilarityMatrix, n: int) -> float:
    """The per-item top-n loop: each item's defined other items sorted as
    (-value, id) tuples, the first n taken as a set, and the mean of the
    normalized set overlaps in item order over the items with n defined
    neighbors in both matrices."""

    def top(s: SimilarityMatrix, i: int):
        candidates = [(-s.values[i, j], s.item_ids[j]) for j in range(s.n_items)
                      if j != i and not np.isnan(s.values[i, j])]
        if len(candidates) < n:
            return None
        candidates.sort()
        return {item_id for _, item_id in candidates[:n]}

    overlaps = []
    for i in range(s1.n_items):
        top1, top2 = top(s1, i), top(s2, i)
        if top1 is not None and top2 is not None:
            overlaps.append(len(top1 & top2) / n)
    if not overlaps:
        raise ItemsimError(f"no item has {n} defined neighbors in both matrices")
    return float(np.mean(overlaps))


def reference_hierarchical_order(s: SimilarityMatrix) -> list[int]:
    """The nested-list average-linkage loop: every merge scans all pairs
    of the remaining clusters for the smallest (distance, i, j) tuple,
    averages the two rows by cluster size, and deletes the second row and
    column."""
    with np.errstate(over="ignore"):
        d = s.dissimilarity()
    n = s.n_items
    if n == 0:
        return []
    leaves: list[list[int]] = [[i] for i in range(n)]
    sizes = [1.0] * n
    dist = [[float(d[i, j]) for j in range(n)] for i in range(n)]
    while len(leaves) > 1:
        best = None
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                key = (dist[i][j], i, j)
                if best is None or key < best:
                    best = key
        _, bi, bj = best
        merged_dist = [
            (sizes[bi] * dist[bi][t] + sizes[bj] * dist[bj][t]) / (sizes[bi] + sizes[bj])
            for t in range(len(leaves))
        ]
        leaves[bi] = leaves[bi] + leaves[bj]
        sizes[bi] += sizes[bj]
        for t in range(len(leaves)):
            dist[bi][t] = dist[t][bi] = merged_dist[t]
        dist[bi][bi] = 0.0
        del leaves[bj], sizes[bj], dist[bj]
        for row in dist:
            del row[bj]
    return leaves[0]


def _reference_ramp(t: float) -> str:
    channels = (round(lo + t * (hi - lo)) for lo, hi in zip(heatmap._LOW, heatmap._HIGH))
    return "#" + "".join(f"{c:02x}" for c in channels)


def reference_heatmap_svg(ids: tuple[str, ...], values: np.ndarray,
                          ordering: str = "none") -> str:
    """The per-cell renderer: one `round()` per colour channel of every
    cell, ordered by `reference_hierarchical_order` of the averaged
    triangles. For matrices whose cells span a finite range."""
    values = np.asarray(values, dtype=np.float64)
    n = len(ids)
    if ordering == "hierarchical":
        if np.isnan(values).any():
            raise ItemsimError("hierarchical ordering needs a fully defined matrix")
        sym = SimilarityMatrix(item_ids=ids, values=(values + values.T) / 2.0)
        perm = reference_hierarchical_order(sym)
    else:
        perm = list(range(n))
    ids = tuple(ids[i] for i in perm)
    values = values[np.ix_(perm, perm)]

    defined = values[~np.isnan(values)]
    lo = float(defined.min()) if defined.size else 0.0
    hi = float(defined.max()) if defined.size else 0.0
    span = hi - lo

    cell, font, pad = heatmap.CELL, heatmap.FONT, heatmap.PAD

    def escape(text: str) -> str:
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    label_w = pad * 2 + max((len(i) for i in ids), default=0) * (font * 3 // 5)
    width = label_w + n * cell + pad
    height = label_w + n * cell + pad
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<style>text{{font-family:monospace;font-size:{font}px;fill:#000}}</style>',
    ]
    for i, item_id in enumerate(ids):
        y = label_w + i * cell + cell // 2 + font // 2
        out.append(f'<text x="{pad}" y="{y}">{escape(item_id)}</text>')
        x = label_w + i * cell + cell // 2
        out.append(
            f'<text x="{x}" y="{label_w - pad}" transform="rotate(-90 {x} {label_w - pad})">'
            f"{escape(item_id)}</text>"
        )
    for i in range(n):
        for j in range(n):
            v = values[i, j]
            if math.isnan(v):
                fill = heatmap._MISSING
            elif span == 0:
                fill = _reference_ramp(0.5)
            else:
                fill = _reference_ramp((v - lo) / span)
            x = label_w + j * cell
            y = label_w + i * cell
            out.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
