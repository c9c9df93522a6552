"""Edit distances over token sequences and ordered trees.

levenshtein_batch: unit-cost insert/delete/substitute distances over
tokens, of many sequence pairs at once: minus the global alignment score
under match 0, mismatch -1, gap -1, from needleman_wunsch_batch;
levenshtein compares one pair.
zhang_shasha_batch: Zhang-Shasha ordered-tree edit distances, unit costs
(relabel free for equal labels), of many pairs of trees at once, each tree
walked once: per chunk of pairs, one table of distances from the distinct
subtrees of one side to those of the other (less the two subtrees' sizes),
a leaf's row in closed form,
and each distinct block of two inner keyroots computed once, level by
level, in numpy sweeps of one DP row over a batch of blocks;
tree_edit_distance compares one pair.
needleman_wunsch_batch: global alignment scores, higher is more similar,
of many sequence pairs at once, per batch of pairs one anti-diagonal
wavefront, in integers (a scoring exact in integers) or in float64 (any
other); needleman_wunsch aligns one pair.

Each kernel returns exactly what the plain DP recurrence returns:
Levenshtein and TED compute in integers. NwScoring stores a -0.0 score as
+0.0, so no alignment cell but the empty pair's 0 * gap is -0.0: a float
sum is -0.0 only where both operands are. An alignment scoring is exact in
integers when, scaled by its common power-of-two denominator, it keeps
every partial score under 2**53: then each float operation of the
recurrence is exact, so integer arithmetic gives its values bit for bit.
Under any other scoring each alignment cell adds the same float64
operands as the scalar recurrence and takes the same maximum by
np.maximum, as no tie of two zeros can occur. Either way the score is
bit-identical, signed zeros included, whichever sequence of a pair is on
the rows. tests/oracles.py keeps the scalar recurrences as references."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import isfinite, ldexp
from typing import Sequence

import numpy as np

from .errors import ItemsimError
from .tree import AstNode

log = logging.getLogger("itemsim.editdist")


# a chunk of pairs keeps one dense table of subtree distances, the distinct
# subtrees of its lo trees by those of its hi trees, of at most this many
# entries; a single pair may take more, |ids a| x |ids b| entries, up to
# _TD_BUDGET, and a pair over that is an error. Filling a table peaks at
# about 4.5 bytes an entry (the int32 table, and its leaf rows in slices of
# _BLOCK_CELLS entries), so the budget holds a filled table to about 38 MiB
_TD_ENTRIES = 1 << 22
_TD_BUDGET = 1 << 23
# a batch of keyroot blocks holds at most this many padded cells, most rows
# x all columns, which bounds its working set: about 20 bytes a cell, up to
# about 40 in a batch of 2-row blocks, whose per-block and per-column arrays
# weigh most. A single block is always admitted: one of two chains, every
# cell a path cell, peaks at about 41 bytes a cell, td included
_BLOCK_CELLS = 1 << 16


def zhang_shasha_batch(
    trees: Sequence[AstNode], pairs: Sequence[tuple[int, int]]
) -> tuple[list[int], int]:
    """Zhang-Shasha distance of trees[a] to trees[b] with unit costs (insert
    1, delete 1, relabel 1 unless labels are equal) for every (a, b) in
    pairs, and the number of block batches the sweep ran, none where no
    pair has an inner keyroot on both sides.

    One postorder walk per tree, with its own stack, so any depth that
    parsed is accepted, gives every subtree an id by interning (label,
    child ids). The distance is symmetric, as costs are unit, so each pair
    runs once, as (lo, hi) by root id. Pairs run in chunks: td[s][t] is the
    distance of subtree s of a lo tree to subtree t of a hi tree less |s| +
    |t|, at most _TD_ENTRIES entries, or those of a single pair, at most
    _TD_BUDGET (ItemsimError otherwise), and the value of (lo, hi) is
    td[lo][hi] + |lo| + |hi|. A leaf's row or column is [its label not in
    t] - 2. Every other
    entry is written by a keyroot block (u, v): the forest DP of two inner
    keyroot subtrees, one from each side of a pair, which writes td for
    the nodes on the two leftmost paths. A keyroot is the root or a child
    that is not its parent's first child; an inner one is not a leaf. Each
    distinct block is computed once per chunk, with the smaller subtree on
    the rows. A block reads td only from blocks of inner keyroots nested in
    u and v, which write it the same way round, so blocks run by level H(u)
    + H(v), H being keyroot nesting height, each level in batches of
    _BLOCK_CELLS padded cells, one forest-DP row of the whole batch at a
    time."""
    ids: dict = {}  # (label, *child ids) -> subtree id
    codes: dict = {}  # label -> code
    # per node of every tree, trees one after the other, each in postorder:
    # label code, leftmost leaf, subtree id
    lab, left, sid = [], [], []
    # per subtree id: nodes, keyroot nesting height, its first node
    size, height, first = [], [], []
    roots = []  # per tree: root id
    keyroots_of = {}  # root id -> inner keyroot ids
    subtrees_of = {}  # root id -> the ids in its subtree
    for tree in trees:
        base = len(sid)
        inner = set()  # inner keyroot ids
        # (node, its leftmost leaf, the ids of its children walked, the
        # children not yet walked): a subtree's first node in postorder is
        # its leftmost leaf
        stack = [(tree, base, [], iter(tree.children))]
        while stack:
            n, lx, children, rest = stack[-1]
            child = next(rest, None)
            if child is not None:
                stack.append((child, len(sid), [], iter(child.children)))
                continue
            stack.pop()
            s = ids.setdefault((n.label, *children), len(ids))
            if s == len(size):
                # a leaf has height 0; a parent its first child's, or one more
                # than that of a later child that is an inner keyroot
                h = height[children[0]] if children else 0
                for c in children[1:]:
                    if size[c] > 1:
                        h = max(h, height[c] + 1)
                size.append(len(sid) - lx + 1)
                height.append(h)
                first.append(len(sid))
            if children and (not stack or stack[-1][2]):
                inner.add(s)  # the root, or a child after the first
            if stack:
                stack[-1][2].append(s)
            lab.append(codes.setdefault(n.label, len(codes)))
            left.append(lx)
            sid.append(s)
        roots.append(sid[-1])
        if sid[-1] not in subtrees_of:
            keyroots_of[sid[-1]] = np.array(sorted(inner), dtype=np.intp)
            subtrees_of[sid[-1]] = set(sid[base:])
    lab, left, sid, size, height, first = (
        np.array(x, dtype=np.intp) for x in (lab, left, sid, size, height, first))
    start = first - size + 1  # the leftmost leaf of each id's first occurrence
    # node positions ordered by label code: a subtree start..end carries a
    # label where this holds a key in label * nodes + [start, end]
    by_label = np.sort(lab * len(lab) + np.arange(len(lab)))
    # the nodes ordered by leftmost leaf, then position: the leftmost path of
    # an id's first occurrence, from its leftmost leaf up to its root, is a
    # run of them, and path_row and path_lab give each one's row in the id's
    # block and its label
    chain = np.argsort(left, kind="stable")
    place = np.argsort(chain)  # each node's position in chain
    path_row, path_lab = chain - left[chain], lab[chain]
    # per id: its first node, its nodes, and the start and length of its run
    of_id = np.stack([start, size, place[start], place[first] - place[start] + 1])

    def leaf_distances(leaves: np.ndarray, subtrees: np.ndarray):
        # each slice of leaves with its td entries to subtrees, _BLOCK_CELLS at most
        step = max(1, _BLOCK_CELLS // len(subtrees))
        for k in range(0, len(leaves), step):
            part = leaves[k:k + step]
            key = (lab[first[part]] * len(lab))[:, None]
            absent = (np.searchsorted(by_label, key + first[subtrees], "right")
                      == np.searchsorted(by_label, key + start[subtrees], "left"))
            yield part, absent - 2

    def positions(of: np.ndarray) -> np.ndarray:  # id -> its index in of, or -1
        at = np.full(len(size), -1, dtype=np.intp)
        at[of] = np.arange(len(of))
        return at

    def inner_keyroots(chunk_roots: np.ndarray) -> np.ndarray:
        inner = np.zeros(len(size), dtype=bool)
        inner[np.concatenate([keyroots_of[r] for r in chunk_roots.tolist()])] = True
        return np.flatnonzero(inner)

    distinct: dict = {}  # (root id, root id), the smaller first -> its index
    inverse = [distinct.setdefault((min(ra, rb), max(ra, rb)), len(distinct))
               for ra, rb in ((roots[a], roots[b]) for a, b in pairs)]
    lo, hi = np.array(list(distinct), dtype=np.intp).reshape(-1, 2).T
    values = np.zeros(len(distinct), dtype=np.intp)
    counts = dict.fromkeys(("blocks", "levels", "batches", "steps", "chunks", "real", "padded"), 0)
    for chunk, row_ids, col_ids in _chunks(lo, hi, subtrees_of):
        counts["chunks"] += 1
        row_of, col_of = positions(row_ids), positions(col_ids)
        # td[s][t] is the distance of s to t less |s| + |t|
        td = np.zeros((len(row_ids), len(col_ids)), dtype=np.int32)
        for leaves, d in leaf_distances(row_ids[size[row_ids] == 1], col_ids):
            td[row_of[leaves]] = d
        for leaves, d in leaf_distances(col_ids[size[col_ids] == 1], row_ids):
            td[:, col_of[leaves]] = d.T
        # per id, its part of a flat td index as a row, then as a column
        at_of = np.concatenate([row_of * len(col_ids), col_of])
        # the blocks of every pair: (u, v), u an inner keyroot subtree of the
        # lo tree and v one of the hi tree, each marked once
        inner_lo, inner_hi = inner_keyroots(lo[chunk]), inner_keyroots(hi[chunk])
        at_lo, at_hi = positions(inner_lo), positions(inner_hi)
        mark = np.zeros((len(inner_lo), len(inner_hi)), dtype=bool)
        for a, b in zip(lo[chunk].tolist(), hi[chunk].tolist()):
            mark[at_lo[keyroots_of[a]][:, None], at_hi[keyroots_of[b]]] = True
        # as many of these arrays as blocks: each is replaced in turn
        u, v = np.nonzero(mark)
        del mark
        u = inner_lo[u]
        v = inner_hi[v]
        # a block has the smaller subtree on its rows: flipped where that is v
        flip = size[u] > size[v]
        u[flip], v[flip] = v[flip], u[flip]
        # by level, then by rows
        level = height[u] + height[v]
        order = np.lexsort((size[u], level))
        u = u[order]
        v = v[order]
        flip = flip[order]
        level = level[order]
        del order
        rows, cols = size[u], size[v]
        cuts = _cuts(level, rows, cols)
        counts["blocks"] += len(u)
        counts["levels"] += int(np.count_nonzero(np.diff(level))) + (len(level) > 0)
        counts["batches"] += len(cuts) - 1
        counts["real"] += int(rows @ cols)
        del level, rows, cols
        for a, b in zip(cuts, cuts[1:]):
            steps, padded = _sweep(td, at_of, sid, of_id, path_row, path_lab,
                                   u[a:b], v[a:b], flip[a:b])
            counts["steps"] += steps
            counts["padded"] += padded
        values[chunk] = (td[row_of[lo[chunk]], col_of[hi[chunk]]]
                         + size[lo[chunk]] + size[hi[chunk]])
    log.debug("ted batch: %d pairs, %d distinct subtrees, %d blocks, %d levels, %d batches, "
              "%d row steps, %d td chunks, %d of %d padded block cells real", len(pairs),
              len(size), *counts.values())
    return values[inverse].tolist(), counts["batches"]


def _chunks(lo, hi, subtrees_of):
    """The distinct root pairs (lo, hi), in that order, cut greedily into
    chunks whose td, the distinct subtrees of their lo trees by those of
    their hi trees, has at most _TD_ENTRIES entries, or into a single pair:
    for each chunk, the indices of its pairs and the ids of the subtrees of
    its lo trees and of its hi trees, ascending. subtrees_of gives the ids
    in each root's subtree. A pair whose td would hold more than _TD_BUDGET
    entries raises ItemsimError before its chunk is built."""

    def ascending(ids: set) -> np.ndarray:
        return np.array(sorted(ids), dtype=np.intp)

    chunk: list[int] = []
    lo_roots: set = set()
    hi_roots: set = set()
    rows: set = set()
    cols: set = set()
    for p in np.lexsort((hi, lo)).tolist():
        a, b = int(lo[p]), int(hi[p])
        m, n = len(subtrees_of[a]), len(subtrees_of[b])
        if m * n > _TD_BUDGET:
            raise ItemsimError(
                f"tree edit distance of trees of {m} and {n} distinct subtrees needs a table of "
                f"{m * n} entries, over the budget of {_TD_BUDGET}")
        grown_rows = rows if a in lo_roots else rows | subtrees_of[a]
        grown_cols = cols if b in hi_roots else cols | subtrees_of[b]
        if chunk and len(grown_rows) * len(grown_cols) > _TD_ENTRIES:
            yield chunk, ascending(rows), ascending(cols)
            chunk, lo_roots, hi_roots = [], set(), set()
            grown_rows, grown_cols = subtrees_of[a], subtrees_of[b]
        lo_roots.add(a)
        hi_roots.add(b)
        rows, cols = grown_rows, grown_cols
        chunk.append(p)
    if chunk:
        yield chunk, ascending(rows), ascending(cols)


def _cuts(level: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> list[int]:
    """Batch boundaries of blocks sorted by level, then rows: a batch holds
    blocks of one level, at most _BLOCK_CELLS padded cells of them (most
    rows x all columns), or a single block."""
    cuts = [0]
    for end in [*(np.flatnonzero(np.diff(level)) + 1).tolist(), len(level)]:
        s = cuts[-1]
        while s < end:
            # no block has fewer columns than rows[s]: a batch holds fewer than w
            w = min(end, s + 1 + _BLOCK_CELLS // int(rows[s]) ** 2)
            padded = rows[s:w] * np.cumsum(cols[s:w])
            s += max(1, int(np.count_nonzero(padded <= _BLOCK_CELLS)))
            cuts.append(s)
    return cuts


def _sweep(td, at_of, sid, of_id, path_row, path_lab, u, v, flip) -> tuple[int, int]:
    """Write td for the leftmost paths of every block (u[k], v[k]) of one
    batch, given by ascending rows, and return its row steps and padded
    cells. Rows and columns are the postorder nodes of the first occurrence
    of subtrees u[k] and v[k]. sid gives each node's id; of_id each id's
    first node, nodes, and the run of path_row and path_lab that its
    leftmost path takes, the rows of those nodes in its block and their
    labels. td holds the distance of s to t less |s| + |t|, at the flat
    index at_of[s] + at_of[S + t] (S ids) where s is of a lo tree and t of
    a hi tree; u[k] is of a hi tree and v[k] of a lo tree where flip[k],
    else the other way round.

    One table holds row r of every block's forest DP fd, the blocks' columns
    side by side, each block's led by its column 0, as d = fd - r - c + off:
    c the column in the block, off a block offset that falls by 2 rows from
    each block to the next, as fd - r - c >= -2 min(r, c), so each block's
    running minimum stays its own. Deleting a row node and inserting a
    column node cost 0 in d, so row r + 1 of d is the running minimum along
    the whole row of min(d[r], d[src] + add): src is the diagonal and add
    the relabel cost - 2 for two nodes on the leftmost paths, otherwise src
    is fd[l(x) - 1][l(y) - 1] and add the td entry of x and y, shifted as d
    is. Column 0 is off on every row: it takes a column 0 above it, add 0.
    Each index table is a row-by-block table repeated over each block's
    columns plus a vector over the columns, in intp, by which numpy gathers
    without a cast. All in integers, so each cell is the recurrence's."""
    u, v, flip = u[::-1], v[::-1], flip[::-1]  # blocks still running at row r are a prefix
    (x0, m, path_u, a), (y0, n, path_v, b) = of_id[:, u], of_id[:, v]
    size, ids = of_id[1], of_id.shape[1]
    rows, n1 = int(m[0]), n + 1
    lead = np.cumsum(n1) - n1  # the position of each block's column 0
    width = int(lead[-1] + n1[-1])
    # the cells of two nodes on the leftmost paths, each path column of a
    # block with each path row of it: q their flat index
    col_at = _runs(path_v, b)
    per_col = np.repeat(a, b)
    row_at = _runs(np.repeat(path_u, b), per_col)
    q = path_row[row_at] * width
    q += np.repeat(path_row[col_at] + np.repeat(lead + 1, b), per_col)
    relabel = path_lab[row_at] != np.repeat(path_lab[col_at], per_col)
    del col_at, per_col, row_at
    # row r of block k is subtree x[r, k], padding repeating its root; column
    # p is subtree y[p], a block's column 0 any
    x = sid[np.minimum(x0 + np.arange(rows)[:, None], x0 + m - 1)]
    y = sid[np.repeat(y0 - 1 - lead, n1) + np.arange(width)]
    sy = size[y]
    sy[lead] = 0
    at = np.repeat(at_of[x + flip * ids], n1, axis=1)
    y += np.repeat(~flip * ids, n1)
    at += at_of[y]
    del y
    add = td.take(at)
    path = at.take(q)  # the td entry of each path cell, read and written there
    del at
    add.put(q, np.subtract(relabel, 2, dtype=add.dtype))
    add[:, lead] = 0
    del relabel
    src = np.repeat((np.arange(1, rows + 1)[:, None] - size[x]) * width, n1, axis=1)
    sy -= np.arange(width)
    src -= sy
    del sy
    src.put(q, q - 1)
    d = np.empty((rows + 1, width), dtype=np.int32)
    d[0] = np.repeat(np.arange(len(u), dtype=d.dtype) * (-2 * rows), n1)
    flat = d.reshape(-1)
    ends = np.append(lead, width)[np.searchsorted(-m, np.arange(0, -rows, -1))].tolist()
    for step, end in enumerate(ends):
        e = flat[src[step, :end]]
        e += add[step, :end]
        np.minimum(e, d[step, :end], out=e)
        np.minimum.accumulate(e, out=d[step + 1, :end])
    del src, add
    td.put(path, flat[q + width] - flat[q % width])  # d less off, which d[0] holds
    return rows, rows * int(n.sum())


def _runs(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """first[k], first[k] + 1, ... first[k] + counts[k] - 1 for each k in turn,
    of at least one k."""
    ends = np.cumsum(counts)
    return np.repeat(first + counts - ends, counts) + np.arange(ends[-1])


def _int_type(bound: int) -> type:
    """The narrowest of int16, int32 and int64 that holds -bound and bound."""
    return np.int16 if bound < 1 << 15 else np.int32 if bound < 1 << 31 else np.int64


def tree_edit_distance(t1: AstNode, t2: AstNode) -> int:
    """Zhang-Shasha distance between ordered labeled trees with unit costs:
    a batch of one pair."""
    (distance,), _ = zhang_shasha_batch([t1, t2], [(0, 1)])
    return distance


@dataclass(frozen=True)
class NwScoring:
    match: float = 1.0
    mismatch: float = -1.0
    gap: float = -1.0

    def __post_init__(self):
        for name in ("match", "mismatch", "gap"):
            if not isfinite(getattr(self, name)):
                raise ItemsimError("alignment scores must be finite")
            # x + 0 is x, an int staying one, except that -0.0 + 0 is +0.0
            object.__setattr__(self, name, getattr(self, name) + 0)


# a batch holds at most this many padded sequence positions, pairs x
# (longest a + longest b + 2), which bounds its working set: three DP rows
# of the shorter sequences, at most half the positions, in float64 a flag
# row too, and the token codes of both sequences. With int8 codes that is
# at most 4 bytes a position in int16 (1 MiB a batch), 7 in int32 and 13.5
# in float64 (3.4 MiB), and twice that for a moment when the buffers are
# copied down to the pairs still running
_BATCH_POSITIONS = 1 << 18


def needleman_wunsch_batch(
    seqs: Sequence[Sequence[str]], pairs: Sequence[tuple[int, int]], s: NwScoring = NwScoring()
) -> tuple[list[float], int]:
    """Optimal global alignment score of seqs[a] against seqs[b] under s
    for every (a, b) in pairs, and the number of batches they ran in.

    Each pair runs with its shorter sequence on the rows. Pairs sorted by
    the shorter length, then the longer, are cut into batches of at most
    _BATCH_POSITIONS padded positions. A batch computes the DP matrices of
    all its pairs together, one anti-diagonal d = i + j at a time
    (inter-sequence parallelism, as in Wozniak 1997 and Rognes 2011), each
    cell's maximum by np.maximum (_wavefront).

    A scoring exact in integers runs in integers: scaled by its common
    power-of-two denominator (float.as_integer_ratio) to integers, no
    partial score of the recurrence can reach 2**53 in magnitude. A cell
    of a pair of lengths m and n is at most (m + n) max|score|, and m + n
    is at most the longest shorter sequence plus the longest longer one.
    Then every float operation of the recurrence is exact, so its values
    depend on neither the order of evaluation nor the orientation of a
    pair. Signed zeros survive too: a float sum x + y is -0.0 only where x
    and y both are, and every cell but H[0][0] = 0 * gap is k * gap (k > 0)
    or a score added to a cell, so as no score is -0.0 none of them is
    -0.0: a zero cell is +0.0 except on the empty pair, which keeps 0 *
    gap. A batch runs in the narrowest int dtype that holds its cells and
    their candidates, below (longest a + longest b + 3) max|score|, and
    its scores are scaled back by math.ldexp.

    Every other scoring runs in float64, each cell adding the same
    operands as the scalar recurrence. Scores that overflow come out as
    +-inf, without a warning.

    Logs one debug line: pairs, path, batches, diagonal steps, and real of
    padded cells."""
    codes: dict = {}
    encoded = [np.array([codes.setdefault(t, len(codes)) for t in x], dtype=np.int64)
               for x in seqs]
    oriented = [(encoded[a], encoded[b]) if len(seqs[a]) <= len(seqs[b])
                else (encoded[b], encoded[a]) for a, b in pairs]
    lengths = [(len(a), len(b)) for a, b in oriented]
    ratios = [float(v).as_integer_ratio() for v in (s.match, s.mismatch, s.gap)]
    scale = max(q for _, q in ratios)  # a power of two
    scaled = [p * (scale // q) for p, q in ratios]
    top = max(map(abs, scaled))
    longest = max(map(min, lengths), default=0) + max(map(max, lengths), default=0)
    integer = longest * top < 1 << 53
    # the narrowest signed codes that also hold -1 and -2, codes no token has
    code = np.min_scalar_type(-2 - len(codes))
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
    steps = padded = 0
    with np.errstate(over="ignore"):
        for batch in batches:
            batch.sort(key=lambda k: -sum(lengths[k]))
            if integer:
                bound = (max(lengths[k][0] for k in batch) + max(lengths[k][1] for k in batch)
                         + 3) * top
                scores, batch_steps, batch_padded = _wavefront(
                    [oriented[k] for k in batch], scaled, _int_type(bound), code)
                # the empty pair alone has the sign of 0 * gap
                scores = [ldexp(v, 1 - scale.bit_length()) if sum(lengths[k]) else 0.0 * s.gap
                          for k, v in zip(batch, scores)]
            else:
                scores, batch_steps, batch_padded = _wavefront(
                    [oriented[k] for k in batch], (s.match, s.mismatch, s.gap), np.float64, code)
            steps += batch_steps
            padded += batch_padded
            for k, v in zip(batch, scores):
                values[k] = v
    log.debug("nw batch: %d pairs, %s wavefront, %d batches, %d diagonal steps, "
              "%d of %d padded cells real", len(pairs), "integer" if integer else "float",
              len(batches), steps, sum(a * b for a, b in lengths), padded)
    return values, len(batches)


def _wavefront(pairs: list[tuple[np.ndarray, np.ndarray]], scores: Sequence, dtype: type,
               code: np.dtype) -> tuple[list, int, int]:
    """Alignment scores of encoded sequence pairs, given by descending
    len(a) + len(b), under scores (match, mismatch, gap) computed in dtype,
    with tokens compared as the signed int type code; and the diagonal
    steps and padded cells of the sweep. A pair's score is cell (len(a),
    len(b)) on diagonal len(a) + len(b), so the pairs still running at
    diagonal d are a prefix.

    Row i of the diagonal buffers holds cell (i, d - i) of every pair, one
    pair per column. Each cell is the np.maximum of H[i-1][j-1] + sub,
    H[i-1][j] + gap and H[i][j-1] + gap, and H[k][0] = H[0][k] = k * gap.
    Padding matches no token, so a column holds the DP of its pair padded
    to the longest a and b: its cells stay within the batch's bound. In an
    int dtype, sub is eq * (match - mismatch) + mismatch, exact, computed
    in the cells themselves; in float64 that sum could round, so sub is
    taken from (mismatch, match) by a row of match flags.
    No score is -0.0, so no cell but the empty pair's 0 * gap is -0.0, and
    finite scores make no NaN: every maximum is exact, and every value
    equals the scalar recurrence's bit for bit, signed zeros included.

    A step works on whole buffer rows, which numpy sweeps fastest when
    contiguous: finished pairs' columns keep running until an eighth of
    the columns has finished, and then the buffers are copied down to the
    pairs still running."""
    match, mismatch, gap = (dtype(v) for v in scores)
    ms = np.array([len(a) for a, _ in pairs], dtype=np.intp)
    ends = [len(a) + len(b) for a, b in pairs]
    m_max, n_max = int(ms.max()), max(len(b) for _, b in pairs)
    # a[i - 1] in row i - 1; b reversed and right-aligned, so b[d - i - 1]
    # sits in row n_max - d + i; the padding values match no token
    a_rows = np.full((m_max, len(pairs)), -1, dtype=code)
    b_rows = np.full((n_max, len(pairs)), -2, dtype=code)
    for col, (a, b) in enumerate(pairs):
        a_rows[:len(a), col] = a
        b_rows[n_max - len(b):, col] = b[::-1]
    h2, h1, h = (np.empty((m_max + 1, len(pairs)), dtype) for _ in range(3))
    integer = dtype is not np.float64
    # a diagonal's match flags, which an int dtype takes into its cells
    same = np.empty((0 if integer else m_max, len(pairs)), dtype=np.uint8)
    gain, sub = match - mismatch, np.array([mismatch, match], dtype)
    out = np.empty(len(pairs), dtype)
    live = len(pairs)
    cells = 0
    for d in range(ends[0] + 1):
        if d <= n_max:
            h[0] = d * gap
        if d <= m_max:
            h[d] = d * gap
        lo, hi = max(1, d - n_max), min(d - 1, m_max)
        if lo <= hi:
            cells += (hi - lo + 1) * h.shape[1]
            cell = h[lo:hi + 1]
            a_seg, b_seg = a_rows[lo - 1:hi], b_rows[n_max - d + lo:n_max - d + hi + 1]
            if integer:
                np.equal(a_seg, b_seg, out=cell, casting="unsafe")
                cell *= gain
                cell += mismatch
            else:
                sub.take(np.equal(a_seg, b_seg, out=same[:hi - lo + 1]), out=cell, mode="wrap")
            cell += h2[lo - 1:hi]
            # h2 is not read again before it holds diagonal d + 1
            step = np.add(h1[lo - 1:hi + 1], gap, out=h2[lo - 1:hi + 1])
            np.maximum(cell, step[:-1], out=cell)
            np.maximum(cell, step[1:], out=cell)
        done = live
        while done and ends[done - 1] == d:
            done -= 1
        if done < live:
            cols = np.arange(done, live)
            out[cols] = h[ms[done:live], cols]
            live = done
            if 8 * live <= 7 * h.shape[1]:
                a_rows, b_rows, h2, h1, h, same = (
                    np.ascontiguousarray(x[:, :live]) for x in (a_rows, b_rows, h2, h1, h, same))
        h2, h1, h = h1, h, h2
    return out.tolist(), ends[0] + 1, cells


def needleman_wunsch(a: Sequence[str], b: Sequence[str], s: NwScoring = NwScoring()) -> float:
    """Optimal global alignment score of two sequences under s: a batch of
    one pair."""
    (score,), _ = needleman_wunsch_batch([a, b], [(0, 1)], s)
    return score


def levenshtein_batch(
    seqs: Sequence[Sequence[str]], pairs: Sequence[tuple[int, int]]
) -> tuple[list[int], int]:
    """Minimal number of token insertions, deletions, and substitutions
    turning seqs[a] into seqs[b] for every (a, b) in pairs, and the number
    of batches they ran in: minus the alignment score under match 0,
    mismatch -1, gap -1 (Wagner and Fischer 1974), a scoring whose
    wavefront runs in integers. The scores are integers below 2**53, so
    exact; the empty pair's -0.0 gives 0."""
    scores, batches = needleman_wunsch_batch(seqs, pairs, NwScoring(0.0, -1.0, -1.0))
    return [-int(v) for v in scores], batches


def levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimal number of token insertions, deletions, and substitutions
    turning a into b: a batch of one pair."""
    (distance,), _ = levenshtein_batch([a, b], [(0, 1)])
    return distance
