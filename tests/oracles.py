"""Brute-force reference implementations used to validate the fast
algorithms.

Everything here favors obviousness over speed: exhaustive searches over
edit scripts, tree edit mappings, alignments, and cluster assignments.
They are only feasible for tiny inputs, which is exactly where they are
used. The reference_* functions are earlier, slower implementations of a
fast path, kept to compare against.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

import numpy as np

from itemsim import AstNode, ItemsimError, NwScoring, PerformanceTable, SimilarityMatrix, heatmap
from itemsim.corpus import csv_field
from itemsim.errors import ParseError
from itemsim.projection import _pivot_signs
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
    """The two-row Levenshtein recurrence over Python lists.
    `itemsim.levenshtein` and `levenshtein_batch`, minus an alignment score
    under unit costs, must equal it on sequences of any length."""
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
    with Python's max. `itemsim.needleman_wunsch` and
    `needleman_wunsch_batch`, whose anti-diagonal wavefront runs in
    integers or in floats, must equal it bit for bit, signed zeros
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
    `itemsim.editdist.zhang_shasha_batch`, which computes each distinct
    keyroot block once over all its pairs, level by level in numpy row
    sweeps, and its one-pair form `itemsim.tree_edit_distance` must equal
    it on trees of any size, in any batch, as must the earlier batch kernel
    below, `reference_zhang_shasha_batch`."""

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


TreeForm = tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]


def tree_form(ast: AstNode) -> TreeForm:
    """The Zhang-Shasha view of a tree, the input of
    reference_zhang_shasha_batch: postorder labels, the postorder index of
    each node's leftmost leaf, and the keyroots (the highest node per
    leftmost leaf), ascending. Walks without recursion, so any depth that
    parsed is accepted."""
    labels: list[str] = []
    leftmost: list[int] = []
    # (node, postorder index of its leftmost leaf, children not yet walked):
    # the first node a subtree emits in postorder is its leftmost leaf
    stack = [(ast, 0, iter(ast.children))]
    while stack:
        n, first, rest = stack[-1]
        child = next(rest, None)
        if child is None:
            stack.pop()
            labels.append(n.label)
            leftmost.append(first)
        else:
            stack.append((child, len(labels), iter(child.children)))
    highest = {l: i for i, l in enumerate(leftmost)}
    return tuple(labels), tuple(leftmost), tuple(sorted(highest.values()))


def _reference_single_node_row(form: TreeForm, label: str) -> list[int]:
    """Distance of a single node labelled label to each subtree x of form,
    either way round: |T_x| - 1, plus 1 if no node of T_x carries label.
    T_x is postorder leftmost[x]..x, so it carries label exactly when the
    last node up to x that does is at leftmost[x] or later."""
    labels, leftmost, _ = form
    row, last = [], -1
    for x, (l, first) in enumerate(zip(labels, leftmost)):
        if l == label:
            last = x
        row.append(x - first + (last < first))
    return row


def reference_zhang_shasha_batch(
    trees: Sequence[AstNode], pairs: Sequence[tuple[int, int]]
) -> tuple[list[int], int]:
    """The earlier `itemsim.editdist.zhang_shasha_batch`: a per-cell Python
    forest DP, run pair by pair, with a memo of keyroot blocks. Zhang-Shasha
    distance of trees[a] to trees[b] with unit costs (insert 1, delete 1,
    relabel 1 unless labels are equal) for every (a, b) in pairs, and the
    number of batches they ran in: one, or none for no pairs. Each tree is
    read through its tree_form.

    Keyroot block (i, j) writes td[x][y], the distance of subtree x to
    subtree y, for x on i's leftmost path and y on j's. A leaf keyroot needs
    no block, as a single node's distance to any subtree has a closed form
    (_reference_single_node_row): a leaf keyroot of a takes its whole td
    row from one row per (b, label), and a leaf keyroot of b its td column,
    on the inner keyroots' paths of a, from one row per (a, label). So only
    inner keyroots pair up in blocks. Block values depend on the two subtrees
    only: every subtree of every form gets an id by interning (label, child
    ids), and a block that comes up again for the same two subtrees replays
    its stored values onto the two paths. A block is stored only if one of
    its subtrees is an inner keyroot more than once among the forms: no
    other block can come up again. The rows and blocks are kept for this
    call only."""
    forms = [tree_form(t) for t in trees]
    ids: dict = {}  # (label, child ids, last child first) -> subtree id
    # per form: per inner keyroot, (k, leftmost leaf, subtree id, leftmost
    # path); the nodes on those paths; the leaf keyroots
    keyroots, inner, leaves = [], [], []
    for labels, leftmost, roots in forms:
        own: list[int] = []
        for x, label in enumerate(labels):
            # the last child of x is x - 1; the one before a child c is leftmost[c] - 1
            children, c = [], x - 1
            while c >= leftmost[x]:
                children.append(own[c])
                c = leftmost[c] - 1
            own.append(ids.setdefault((label, tuple(children)), len(ids)))
        paths = [(k, leftmost[k], own[k],
                  [x for x in range(leftmost[k], k + 1) if leftmost[x] == leftmost[k]])
                 for k in roots if leftmost[k] < k]
        keyroots.append(paths)
        inner.append([x for _, _, _, path in paths for x in path])
        leaves.append([k for k in roots if leftmost[k] == k])
    n_ids = len(ids)
    repeats = [0] * n_ids  # inner keyroot occurrences of each subtree id
    for form_keyroots in keyroots:
        for _, _, sid, _ in form_keyroots:
            repeats[sid] += 1
    rows: dict = {}  # (form, label) -> _reference_single_node_row(forms[form], label)

    def node_row(f: int, label: str) -> list[int]:
        known = rows.get((f, label))
        if known is None:
            known = rows[f, label] = _reference_single_node_row(forms[f], label)
        return known

    memo: dict[int, tuple[int, ...]] = {}
    values = [0] * len(pairs)
    last_b = None
    # grouped by b: each form's columns are built once, and one form's at a time are alive
    for p in sorted(range(len(pairs)), key=lambda p: pairs[p][1]):
        a, b = pairs[p]
        la, lma, _ = forms[a]
        if b != last_b:
            last_b = b
            lb, lmb, _ = forms[b]
            # per inner keyroot of b, its columns: (postorder index, label, leftmost offset)
            columns = [(j, lj, sid, path, [(y, lb[y], lmb[y] - lj) for y in range(lj, j + 1)])
                       for j, lj, sid, path in keyroots[b]]
        td: list = [None] * len(la)
        for i in leaves[a]:  # shared with the other pairs of b: never written
            td[i] = node_row(b, la[i])
        leaf_columns = [(j, node_row(a, lb[j])) for j in leaves[b]]
        for x in inner[a]:
            tdx = td[x] = [0] * len(lb)
            for j, column in leaf_columns:
                tdx[j] = column[x]
        for i, li, id_i, path_i in keyroots[a]:
            for j, lj, id_j, path_j, cols in columns:
                key = id_i * n_ids + id_j
                done = memo.get(key)
                if done is not None:
                    width = len(path_j)
                    for r, x in enumerate(path_i):
                        tdx = td[x]
                        for y, v in zip(path_j, done[r * width:(r + 1) * width]):
                            tdx[y] = v
                    continue
                # fd[x - li + 1][k]: distance from a's forest li..x to b's first
                # k columns; rows on i's leftmost path pair whole subtrees
                fd = [list(range(len(cols) + 1))]
                for x in range(li, i + 1):
                    prev, tdx, lx = fd[-1], td[x], lma[x]
                    left = x - li + 1
                    row = [left]
                    if lx == li:  # x is on i's leftmost path
                        ax = la[x]
                        for (y, by, off), up, diag in zip(cols, prev[1:], prev):
                            best = up + 1 if up < left else left + 1
                            # off is fd[0][off]: deleting the columns before y's subtree
                            cand = off + tdx[y] if off else (diag if ax == by else diag + 1)
                            if cand < best:
                                best = cand
                            if not off:
                                tdx[y] = best
                            row.append(best)
                            left = best
                    else:
                        base = fd[lx - li]
                        for (y, _, off), up in zip(cols, prev[1:]):
                            best = up + 1 if up < left else left + 1
                            cand = base[off] + tdx[y]
                            if cand < best:
                                best = cand
                            row.append(best)
                            left = best
                    fd.append(row)
                if repeats[id_i] > 1 or repeats[id_j] > 1:
                    memo[key] = tuple(td[x][y] for x in path_i for y in path_j)
        values[p] = td[-1][-1]
    return values, min(len(pairs), 1)


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


def reference_performance_features(table: PerformanceTable) -> np.ndarray:
    """mean_log_time, var_log_time and success_rate per item column, one
    column at a time over its attempted rows."""
    stats = []
    for j in range(len(table.item_ids)):
        attempted = ~np.isnan(table.time_seconds[:, j])
        logs = table.log_time[attempted, j]
        stats.append([logs.mean(), logs.var(), table.success[attempted, j].sum() / len(logs)])
    return np.array(stats)


def reference_mds_gram(s: SimilarityMatrix) -> np.ndarray:
    """-J d^2 J / 2 for the dissimilarity d of s and the centring matrix
    J = I - 1/n, symmetrised: classical MDS's double-centred Gram matrix."""
    n = s.n_items
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * centering @ np.square(s.dissimilarity()) @ centering
    return (b + b.T) / 2.0


def reference_mds_project(s: SimilarityMatrix, dims: int) -> np.ndarray:
    """Classical MDS coordinates of s from reference_mds_gram."""
    eigvals, eigvecs = np.linalg.eigh(reference_mds_gram(s))
    order = np.argsort(eigvals)[::-1][:dims]
    coords = eigvecs[:, order] * np.sqrt(np.maximum(eigvals[order], 0.0))
    return coords * _pivot_signs(coords.T)


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


# ---------------------------------------------------------------------------
# The robot DSL parser with a per-lexeme line and column count
# ---------------------------------------------------------------------------

_REF_COMMANDS = ("move", "left", "right", "shoot")
_REF_KEYWORDS = frozenset(_REF_COMMANDS) | {"repeat", "while", "if", "else", "def", "call"}

_REF_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|!=|\{|\})"
)


@dataclass(frozen=True)
class _RefToken:
    kind: str  # num | ident | { | } | == | != | eof
    text: str
    line: int
    col: int


def _reference_tokenize(source: str) -> list[_RefToken]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _REF_TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind == "num":
            tokens.append(_RefToken("num", text, line, col))
        elif kind == "ident":
            tokens.append(_RefToken("ident", text, line, col))
        elif kind == "op":
            tokens.append(_RefToken(text, text, line, col))
        # advance position counters through the lexeme
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_RefToken("eof", "", line, col))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens: list[_RefToken]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def advance(self) -> _RefToken:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def program(self) -> AstNode:
        stmts = []
        while self.peek().kind != "eof":
            if self.peek().kind == "}":
                tok = self.peek()
                raise ParseError("unbalanced braces: unexpected '}'", tok.line, tok.col)
            stmts.append(self.stmt())
        return AstNode("program", tuple(stmts))

    def stmt(self) -> AstNode:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text in _REF_COMMANDS:
                self.advance()
                return AstNode(tok.text)
            if tok.text == "repeat":
                return self.repeat_stmt()
            if tok.text == "while":
                self.advance()
                cond = self.cond()
                return AstNode("while_" + cond, self.block())
            if tok.text == "if":
                return self.if_stmt()
            if tok.text == "def":
                self.advance()
                name = self.ident("function name")
                return AstNode("def_" + name, self.block())
            if tok.text == "call":
                self.advance()
                return AstNode("call_" + self.ident("function name"))
            raise ParseError(f"unknown keyword {tok.text!r}", tok.line, tok.col)
        raise ParseError(f"expected statement, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    def repeat_stmt(self) -> AstNode:
        self.advance()
        tok = self.peek()
        if tok.kind != "num" or not re.fullmatch(r"[1-9][0-9]*", tok.text):
            raise ParseError("repeat count not a positive integer", tok.line, tok.col)
        self.advance()
        return AstNode("repeat_" + tok.text, self.block())

    def if_stmt(self) -> AstNode:
        self.advance()
        cond = self.cond()
        then_body = self.block()
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "else":
            self.advance()
            else_body = self.block()
            return AstNode(
                "if_" + cond,
                (AstNode("then", then_body), AstNode("else", else_body)),
            )
        return AstNode("if_" + cond, then_body)

    def block(self) -> tuple[AstNode, ...]:
        open_tok = self.peek()
        if open_tok.kind != "{":
            raise ParseError("unbalanced braces: expected '{'", open_tok.line, open_tok.col)
        self.advance()
        stmts = []
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind == "eof":
                raise ParseError("unbalanced braces: missing '}'", tok.line, tok.col)
            stmts.append(self.stmt())
        self.advance()
        return tuple(stmts)

    def cond(self) -> str:
        lhs = self.ident("condition")
        tok = self.peek()
        if tok.kind in ("==", "!="):
            self.advance()
            rhs = self.ident("condition operand")
            return f"{lhs}{tok.kind}{rhs}"
        return lhs

    def ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        if tok.text in _REF_KEYWORDS:
            raise ParseError(f"expected {what}, found keyword {tok.text!r}", tok.line, tok.col)
        self.advance()
        return tok.text


def reference_parse_robot_program(source: str) -> AstNode:
    """The recursive-descent robot DSL parser that tokenizes one `match` at
    a time and carries a line and column on every token.
    `itemsim.parse_robot_program`, which makes one pass over the `findall`
    tokens with its own stack of open blocks and works out line and column
    only for an error, must return an equal AST or raise a ParseError with
    equal text, line and column."""
    return _ReferenceParser(_reference_tokenize(source)).program()


def reference_read_performance(fh, corpus=None, source: str = "performance.csv"):
    """The performance.csv reader that runs `csv.reader` and every row check
    one line at a time and pivots the rows one at a time, keeping the first
    row of a repeated (learner, item) pair. Returns the table and the
    warnings it would log. `itemsim.corpus.read_performance` must return an
    equal table (ids, and every matrix by its bytes) and log the same
    warning, or raise an ItemsimError with equal text."""
    reader = csv.reader(fh)

    def csv_rows():
        try:
            yield from reader
        except csv.Error as e:
            raise ItemsimError(f"{source}:{reader.line_num}: malformed CSV ({e})") from None

    rows = csv_rows()
    header = next(rows, None)
    if header is None:
        raise ItemsimError(f"{source}: empty file")
    expected = ("learner_id", "item_id", "time_seconds", "success")
    if tuple(header) != expected:
        raise ItemsimError(
            f"{source}: expected header {','.join(expected)!r}, got {','.join(header)!r}")
    known = set(corpus.item_ids) if corpus is not None else None

    learners: dict[str, int] = {}
    items: dict[str, int] = {}
    cells, times, successes = [], [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 4:
            raise ItemsimError(f"{source}:{lineno}: expected 4 columns, got {len(row)}")
        learner_id, item_id, time_text, success_text = row
        for name, value in (("learner_id", learner_id), ("item_id", item_id)):
            if not value:
                raise ItemsimError(f"{source}:{lineno}: empty {name}")
            if "\ufeff" in value:
                raise ItemsimError(f"{source}:{lineno}: byte-order mark in {name}")
        try:
            time_seconds = float(time_text)
        except ValueError:
            raise ItemsimError(f"{source}:{lineno}: non-numeric time {time_text!r}") from None
        if not (math.isfinite(time_seconds) and time_seconds > 0):
            raise ItemsimError(f"{source}:{lineno}: non-positive time {time_text!r}")
        if success_text not in ("0", "1"):
            raise ItemsimError(f"{source}:{lineno}: success must be 0 or 1, got {success_text!r}")
        if known is not None and item_id not in known:
            raise ItemsimError(f"{source}:{lineno}: unknown item id {item_id!r}")
        row_index = learners.setdefault(learner_id, len(learners))
        cells.append(row_index << 32 | items.setdefault(item_id, len(items)))
        times.append(time_seconds)
        successes.append(success_text == "1")

    cells, first = np.unique(np.array(cells, dtype=np.int64), return_index=True)
    at = (cells >> 32, cells & 0xFFFFFFFF)
    time_seconds, success = np.full((2, len(learners), len(items)), np.nan)
    time_seconds[at] = np.array(times, dtype=np.float64)[first]
    success[at] = np.array(successes, dtype=np.float64)[first]
    learner_ids, item_ids = tuple(sorted(learners)), tuple(sorted(items))
    by_id = np.ix_([learners[i] for i in learner_ids], [items[i] for i in item_ids])
    table = PerformanceTable(learner_ids, item_ids, time_seconds[by_id], success[by_id])
    dropped = len(times) - len(cells)
    warnings = ([f"{source}: dropped {dropped} duplicate (learner, item) rows, first kept"]
                if dropped else [])
    return table, warnings


def reference_read_square_csv(text: str, source: str = "matrix") -> tuple[tuple[str, ...], np.ndarray]:
    """The square-matrix reader that runs `csv.reader` over every line and
    converts each non-empty cell by `float` one at a time.
    `itemsim.serialize.read_square_csv` must return equal ids and a matrix
    equal by its bytes, or raise an ItemsimError with equal text."""
    reader = csv.reader(io.StringIO(text))

    def csv_rows():
        try:
            yield from reader
        except csv.Error as e:
            raise ItemsimError(f"{source}:{reader.line_num}: malformed CSV ({e})") from None

    rows = csv_rows()
    header = next(rows, None)
    if header is None:
        raise ItemsimError(f"{source}: empty file")
    if len(header) < 2:
        raise ItemsimError(f"{source}: expected an id column plus one column per entry")
    ids = tuple(header[1:])
    seen = set()
    for i in ids:
        if i in seen:
            raise ItemsimError(f"{source}: duplicate id {i!r}")
        seen.add(i)
    n = len(ids)
    values = np.full((n, n), np.nan)
    row_ids = []
    for row in rows:
        if not row:
            continue
        if len(row) != n + 1:
            raise ItemsimError(f"{source}: row {row[0]!r} has {len(row) - 1} values, expected {n}")
        row_ids.append(row[0])
        if len(row_ids) > n:
            raise ItemsimError(f"{source}: more rows than columns; matrix must be square")
        for j, cell in enumerate(row[1:]):
            if cell != "":
                try:
                    value = float(cell)
                except ValueError:
                    raise ItemsimError(f"{source}: non-numeric cell {cell!r}") from None
                if not math.isfinite(value):
                    raise ItemsimError(f"{source}: non-finite cell {cell!r}")
                values[len(row_ids) - 1, j] = value
    if tuple(row_ids) != ids:
        raise ItemsimError(f"{source}: row ids must match column ids in order")
    return ids, values


def reference_format_value(v: float) -> str:
    """9-significant-digit decimal; NaN becomes the empty field; negative
    zero normalizes to 0. The writers' per-value number rule, before
    `itemsim.corpus.csv_numbers` formatted each row by one `%`."""
    if math.isnan(v):
        return ""
    text = f"{v:.9g}"
    return text[1:] if text.startswith("-0") and float(text) == 0 else text


def reference_matrix_csv(corner: str, columns, rows, values) -> str:
    """The header, then one line per row: its name and reference_format_value
    of each value, which runs once per distinct value. Equal floats format
    alike (0.0 and -0.0 both give 0), and a NaN, unequal to any key, is its
    own. `itemsim.serialize`'s matrix writers must give equal text."""
    text: dict = {}  # value -> reference_format_value(value)

    def lines():
        yield ",".join(map(csv_field, [corner, *columns]))
        for name, row in zip(rows, values):
            cells = row.tolist()
            text.update((v, reference_format_value(v)) for v in cells if v not in text)
            yield ",".join([csv_field(name), *map(text.__getitem__, cells)])

    return "\n".join(lines()) + "\n"


def reference_nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """k-means assignment by the broadcast (n, k, d) sums of (x - c)^2,
    the first centre on ties. `itemsim.analysis._nearest`, which takes the
    Gram form and recomputes rows within its rounding bound this way, must
    return equal labels."""
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)
