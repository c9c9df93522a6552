"""Edit distances over token sequences and ordered trees.

levenshtein: unit-cost insert/delete/substitute over tokens.
tree_edit_distance: Zhang-Shasha ordered-tree edit distance, unit costs
(relabel free for equal labels); tree_form prepares a tree once, and
zhang_shasha compares two prepared trees.
needleman_wunsch: global alignment score, higher is more similar.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Sequence

from .errors import ItemsimError
from .tree import AstNode


def levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimal number of token insertions, deletions, and substitutions
    turning a into b."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[len(b)]


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


def zhang_shasha(form_a: TreeForm, form_b: TreeForm) -> int:
    """Zhang-Shasha distance between two tree forms with unit costs:
    insert 1, delete 1, relabel 1 unless labels are equal."""
    la, lma, kra = form_a
    lb, lmb, krb = form_b
    td = [[0] * len(lb) for _ in la]
    # per keyroot of b, its columns: (postorder index, label, leftmost offset)
    columns = {j: [(y, lb[y], lmb[y] - lmb[j]) for y in range(lmb[j], j + 1)] for j in krb}
    for i in kra:
        li = lma[i]
        for j in krb:
            if li == i and lmb[j] == j:  # two leaves
                td[i][j] = 0 if la[i] == lb[j] else 1
                continue
            cols = columns[j]
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
    return td[-1][-1]


def tree_edit_distance(t1: AstNode, t2: AstNode) -> int:
    """Zhang-Shasha distance between ordered labeled trees with unit costs."""
    return zhang_shasha(tree_form(t1), tree_form(t2))


@dataclass(frozen=True)
class NwScoring:
    match: float = 1.0
    mismatch: float = -1.0
    gap: float = -1.0

    def __post_init__(self):
        for v in (self.match, self.mismatch, self.gap):
            if not isfinite(v):
                raise ItemsimError("alignment scores must be finite")


def needleman_wunsch(a: Sequence[str], b: Sequence[str], s: NwScoring = NwScoring()) -> float:
    """Optimal global alignment score of two sequences under s."""
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
