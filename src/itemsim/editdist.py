"""Edit distances over token sequences and ordered trees.

levenshtein: unit-cost insert/delete/substitute over tokens, bit-parallel
(a DP column per Python int).
zhang_shasha_batch: Zhang-Shasha ordered-tree edit distances, unit costs
(relabel free for equal labels), of many pairs of prepared trees at once,
computing each block of two inner keyroots once per pair of distinct
subtrees and a leaf keyroot's distances in closed form; tree_form prepares
a tree once, and tree_edit_distance compares one pair.
needleman_wunsch_batch: global alignment scores, higher is more similar,
of many sequence pairs at once, as one anti-diagonal wavefront per batch
of pairs; needleman_wunsch aligns one pair.

Each kernel returns exactly what the plain DP recurrence returns:
Levenshtein and TED compute in integers, and each alignment cell adds and
compares the same float64 operands in the same order as the scalar
recurrence, so its score is bit-identical under any scoring, signed zeros
included. tests/oracles.py keeps the scalar recurrences as references."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import isfinite
from typing import Sequence

import numpy as np

from .errors import ItemsimError
from .tree import AstNode

log = logging.getLogger("itemsim.editdist")


def levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimal number of token insertions, deletions, and substitutions
    turning a into b.

    Bit-parallel (Myers 1999, Hyyrö 2003): one Python int per DP column
    holds, in bit i, whether D[i+1][j] - D[i][j] is +1 (pv) or -1 (mv)
    down the longer sequence; each token of the shorter one advances the
    column with a fixed number of word operations, and dist follows the
    last row."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    match: dict = {}  # token -> bits of the positions in a that hold it
    for i, x in enumerate(a):
        match[x] = match.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, dist = full, 0, len(a)
    for y in b:
        eq = match.get(y, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & full
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = ph << 1 | 1
        pv = (mh << 1 | ~(xv | ph)) & full
        mv = ph & xv
    return dist


TreeForm = tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]


def tree_form(ast: AstNode) -> TreeForm:
    """The Zhang-Shasha view of a tree: postorder labels, the postorder
    index of each node's leftmost leaf, and the keyroots (the highest node
    per leftmost leaf), ascending. Walks without recursion, so any depth
    that parsed is accepted."""
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


def _single_node_row(form: TreeForm, label: str) -> list[int]:
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


def zhang_shasha_batch(
    forms: Sequence[TreeForm], pairs: Sequence[tuple[int, int]]
) -> tuple[list[int], int]:
    """Zhang-Shasha distance of forms[a] to forms[b] with unit costs (insert
    1, delete 1, relabel 1 unless labels are equal) for every (a, b) in
    pairs, and the number of batches they ran in: one, or none for no pairs.

    Keyroot block (i, j) writes td[x][y], the distance of subtree x to
    subtree y, for x on i's leftmost path and y on j's. A leaf keyroot needs
    no block, as a single node's distance to any subtree has a closed form
    (_single_node_row): a leaf keyroot of a takes its whole td row from one
    row per (b, label), and a leaf keyroot of b its td column, on the inner
    keyroots' paths of a, from one row per (a, label). So only inner
    keyroots pair up in blocks. Block values depend on the two subtrees
    only: every subtree of every form gets an id by interning (label, child
    ids), and a block that comes up again for the same two subtrees replays
    its stored values onto the two paths. A block is stored only if one of
    its subtrees is an inner keyroot more than once among the forms: no
    other block can come up again. The rows and blocks are kept for this
    call only."""
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
    rows: dict = {}  # (form, label) -> _single_node_row(forms[form], label)

    def node_row(f: int, label: str) -> list[int]:
        known = rows.get((f, label))
        if known is None:
            known = rows[f, label] = _single_node_row(forms[f], label)
        return known

    memo: dict[int, tuple[int, ...]] = {}
    computed = replayed = 0
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
                    replayed += 1
                    width = len(path_j)
                    for r, x in enumerate(path_i):
                        tdx = td[x]
                        for y, v in zip(path_j, done[r * width:(r + 1) * width]):
                            tdx[y] = v
                    continue
                computed += 1
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
    log.debug("ted batch: %d pairs, %d distinct subtrees, %d blocks computed, %d replayed, "
              "%d stored", len(pairs), n_ids, computed, replayed, len(memo))
    return values, min(len(pairs), 1)


def tree_edit_distance(t1: AstNode, t2: AstNode) -> int:
    """Zhang-Shasha distance between ordered labeled trees with unit costs:
    a batch of one pair."""
    (distance,), _ = zhang_shasha_batch([tree_form(t1), tree_form(t2)], [(0, 1)])
    return distance


@dataclass(frozen=True)
class NwScoring:
    match: float = 1.0
    mismatch: float = -1.0
    gap: float = -1.0

    def __post_init__(self):
        for v in (self.match, self.mismatch, self.gap):
            if not isfinite(v):
                raise ItemsimError("alignment scores must be finite")


# a batch holds at most this many padded sequence positions, pairs x
# (longest a + longest b + 2), which bounds its working set
_BATCH_POSITIONS = 1 << 14


def needleman_wunsch_batch(
    seqs: Sequence[Sequence[str]], pairs: Sequence[tuple[int, int]], s: NwScoring = NwScoring()
) -> tuple[list[float], int]:
    """Optimal global alignment score of seqs[a] against seqs[b] under s
    for every (a, b) in pairs, and the number of batches they ran in.

    Pairs sorted by the lengths of a, then b, are cut into batches of at
    most _BATCH_POSITIONS padded positions. A batch computes the DP
    matrices of all its pairs together, one anti-diagonal d = i + j at a
    time (inter-sequence parallelism, as in Wozniak 1997 and Rognes 2011).
    Scores that overflow float64 come out as +-inf, without a warning."""
    codes: dict = {}
    encoded = [np.array([codes.setdefault(t, len(codes)) for t in x], dtype=np.int64)
               for x in seqs]
    lengths = [(len(seqs[a]), len(seqs[b])) for a, b in pairs]
    batches = []
    longest_a = longest_b = 0
    for k in sorted(range(len(pairs)), key=lengths.__getitem__):
        la, lb = lengths[k]
        longest_a, longest_b = max(longest_a, la), max(longest_b, lb)
        if not batches or (len(batches[-1]) + 1) * (longest_a + longest_b + 2) > _BATCH_POSITIONS:
            batches.append([])
            longest_a, longest_b = la, lb
        batches[-1].append(k)
    values = [0.0] * len(pairs)
    with np.errstate(over="ignore"):
        for batch in batches:
            batch.sort(key=lambda k: -sum(lengths[k]))
            scores = _wavefront([(encoded[pairs[k][0]], encoded[pairs[k][1]]) for k in batch], s)
            for k, v in zip(batch, scores):
                values[k] = v
    return values, len(batches)


def _wavefront(pairs: list[tuple[np.ndarray, np.ndarray]], s: NwScoring) -> list[float]:
    """Alignment scores of encoded sequence pairs, given by descending
    len(a) + len(b): the pairs still running at diagonal d are a prefix,
    and a pair's score is cell (len(a), len(b)) on diagonal len(a) + len(b).

    Row i of the diagonal buffers holds cell (i, d - i) of every pair, one
    pair per column. Each cell is max(H[i-1][j-1] + sub, H[i-1][j] + gap,
    H[i][j-1] + gap), the maximum taken in that order with ties kept first,
    like Python's max, and H[k][0] = H[0][k] = k * gap. So every value
    equals the scalar recurrence's bit for bit, signed zeros included."""
    match, mismatch, gap = float(s.match), float(s.mismatch), float(s.gap)
    ms = np.array([len(a) for a, _ in pairs], dtype=np.intp)
    ends = [len(a) + len(b) for a, b in pairs]
    m_max, n_max = int(ms.max()), max(len(b) for _, b in pairs)
    # a[i - 1] in row i - 1; b reversed and right-aligned, so b[d - i - 1]
    # sits in row n_max - d + i; the padding values match no token
    a_rows = np.full((m_max, len(pairs)), -1, dtype=np.int64)
    b_rows = np.full((n_max, len(pairs)), -2, dtype=np.int64)
    for col, (a, b) in enumerate(pairs):
        a_rows[:len(a), col] = a
        b_rows[n_max - len(b):, col] = b[::-1]
    h2, h1, h = (np.empty((m_max + 1, len(pairs))) for _ in range(3))
    scores = np.empty(len(pairs))
    live = len(pairs)
    for d in range(ends[0] + 1):
        if d <= n_max:
            h[0, :live] = d * gap
        if d <= m_max:
            h[d, :live] = d * gap
        lo, hi = max(1, d - n_max), min(d - 1, m_max)
        if lo <= hi:
            same = a_rows[lo - 1:hi, :live] == b_rows[n_max - d + lo:n_max - d + hi + 1, :live]
            cell = h[lo:hi + 1, :live]
            np.add(h2[lo - 1:hi, :live], np.where(same, match, mismatch), out=cell)
            steps = h1[lo - 1:hi + 1, :live] + gap
            # a later candidate wins only when strictly greater, as in max():
            # np.maximum may return either zero of a -0.0/0.0 tie
            for step in (steps[:-1], steps[1:]):
                np.copyto(cell, step, where=step > cell)
        done = live
        while done and ends[done - 1] == d:
            done -= 1
        if done < live:
            cols = np.arange(done, live)
            scores[cols] = h[ms[done:live], cols]
            live = done
        h2, h1, h = h1, h, h2
    return scores.tolist()


def needleman_wunsch(a: Sequence[str], b: Sequence[str], s: NwScoring = NwScoring()) -> float:
    """Optimal global alignment score of two sequences under s: a batch of
    one pair."""
    (score,), _ = needleman_wunsch_batch([a, b], [(0, 1)], s)
    return score
