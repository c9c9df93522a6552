"""Solution ASTs: the node type, the JSON document format, and the two
sequence views (canonized token stream, flattened action sequence)."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, repeat

from .errors import ItemsimError

DEFAULT_UNROLL_CAP = 100
DEFAULT_TOTAL_CAP = 10000
# action_sequence enters at most its tree's size plus this many nodes per action
NODES_PER_ACTION = 32

# the N of a repeat_N label; the robot DSL parses and writes the same count
REPEAT_COUNT = re.compile(r"[1-9][0-9]*")


@dataclass(frozen=True, eq=False)
class AstNode:
    """Ordered labeled tree. Immutable, hashable. Equality is structural,
    and == and hash walk with their own stack, so they follow a tree of any
    depth."""

    label: str
    children: tuple[AstNode, ...] = ()

    def __post_init__(self):
        if not self.label:
            raise ItemsimError("empty label in AST node")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AstNode):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        # each node's label and number of children, a node before its
        # subtrees: equal trees give equal sequences
        flat: list = []
        stack = [self]
        while stack:
            n = stack.pop()
            flat += (n.label, len(n.children))
            stack += n.children
        return hash(tuple(flat))


def node(label: str, *children: AstNode) -> AstNode:
    """Shorthand constructor."""
    return AstNode(label, tuple(children))


# every walk that reads or flattens a tree keeps its own stack, so it follows a tree of any depth


def node_count(ast: AstNode) -> int:
    count, stack = 0, [ast]
    while stack:
        count += 1
        stack += stack.pop().children
    return count


def max_depth(ast: AstNode) -> int:
    """Depth of the deepest node, root counting as 1: the number of levels."""
    depth, level = 0, [ast]
    while level:
        depth += 1
        level = [c for n in level for c in n.children]
    return depth


def iter_labels(ast: AstNode):
    """Preorder label stream (no delimiters)."""
    stack = [ast]
    while stack:
        n = stack.pop()
        yield n.label
        stack.extend(reversed(n.children))


# ---------------------------------------------------------------------------
# Canonical AST document format: {"label": str, "children": [...]}
# ---------------------------------------------------------------------------


def ast_from_document(doc) -> AstNode:
    """The tree of a decoded AST document (corpus.read_json decodes files):
    each node an object with exactly the keys "label" (non-empty string) and
    "children" (list of nodes, [] if absent), labels kept byte-exact. It
    keeps its own stack, so it builds any depth the decoder accepts."""
    nodes = []  # each node's label and number of children, in preorder
    stack = [doc]
    while stack:
        obj = stack.pop()
        if not isinstance(obj, dict):
            raise ItemsimError("malformed AST document: node is not an object")
        extra = set(obj) - {"label", "children"}
        if extra:
            raise ItemsimError(f"malformed AST document: unknown keys {sorted(extra)}")
        label, children = obj.get("label"), obj.get("children", [])
        if not isinstance(label, str) or label == "":
            raise ItemsimError("malformed AST document: empty or non-string label")
        if not isinstance(children, list):
            raise ItemsimError("malformed AST document: children field is not a list")
        nodes.append((label, len(children)))
        stack += reversed(children)
    built: list[AstNode] = []  # in reverse preorder, a node's k children are the top k, first on top
    for label, k in reversed(nodes):
        at = len(built) - k
        built[at:] = [AstNode(label, tuple(reversed(built[at:])))]
    return built[0]


def ast_to_document(ast: AstNode) -> str:
    """Serialize to the canonical document format (deterministic bytes)."""

    def to_obj(n: AstNode):
        return {"label": n.label, "children": [to_obj(c) for c in n.children]}

    return json.dumps(to_obj(ast), ensure_ascii=False, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Sequence views
# ---------------------------------------------------------------------------


def canonize(ast: AstNode) -> list[str]:
    """Preorder token stream with "(" and ")" delimiting each non-leaf
    node's children. Unambiguous as long as labels avoid the two delimiter
    tokens, hence injective over a fixed label vocabulary.
    """
    out: list[str] = []
    walk = [iter((ast,))]  # iterators over the nodes still to visit, innermost last
    while walk:
        for n in walk[-1]:
            out.append(n.label)
            if n.children:
                out.append("(")
                walk.append(iter(n.children))
                break
        else:
            walk.pop()
            if walk:  # the children of a node are done
                out.append(")")
    return out


def _repeat_count(label: str, cap: int) -> int | None:
    """min(N, cap) for a repeat_N label, else None. A count longer than
    cap is larger, so it is never converted: int() refuses over 4300 digits."""
    count = label[len("repeat_"):]
    if not (label.startswith("repeat_") and REPEAT_COUNT.fullmatch(count)):
        return None
    return cap if len(count) > len(str(cap)) else min(int(count), cap)


def action_sequence(
    ast: AstNode,
    unroll_cap: int = DEFAULT_UNROLL_CAP,
    total_cap: int = DEFAULT_TOTAL_CAP,
) -> list[str]:
    """Static left-to-right flattening into the leaf commands a program
    would issue.

    Control flow is not executed: `repeat_N` bodies are emitted
    min(N, unroll_cap) times, `while`/`if`/`else` bodies exactly once in
    source order. `def_F` bodies are emitted only at `call_F` sites; a call
    to a function already being expanded is skipped, so recursion
    contributes one level. Output is truncated at total_cap actions, and
    the walk stops too once it has entered the tree's node count plus
    NODES_PER_ACTION x total_cap nodes, so calls nested in repeats that
    emit little cost bounded work.
    """
    if unroll_cap < 1 or total_cap < 1:
        raise ItemsimError("caps must be >= 1")

    # def_F nodes anywhere in the tree are callable by name F; the walk may
    # enter as many nodes as the tree has, and NODES_PER_ACTION x total_cap more
    defs: dict[str, AstNode] = {}
    budget = NODES_PER_ACTION * total_cap  # nodes the walk may still enter
    stack = [ast]
    while stack:
        n = stack.pop()
        budget += 1
        if n.label.startswith("def_") and len(n.label) > 4:
            defs.setdefault(n.label[4:], n)
        stack += reversed(n.children)

    out: list[str] = []
    active: set[str] = set()
    # iterators over the nodes still to enter, innermost last; above the
    # iterator of a call's body, the name its end releases from active
    walk: list = [iter((ast,))]
    while walk:
        if walk[-1].__class__ is str:
            active.discard(walk.pop())
            continue
        for n in walk[-1]:
            budget -= 1
            if len(out) >= total_cap or budget < 0:
                return out
            label = n.label
            if label.startswith("repeat_") and (count := _repeat_count(label, unroll_cap)):
                walk.append(chain.from_iterable(repeat(n.children, count)))
                break
            if label.startswith("def_"):
                continue  # body contributes at call sites only
            if label.startswith("call_"):
                name = label[5:]
                body = defs.get(name)
                if body is not None and body.children and name not in active:
                    active.add(name)
                    walk += (name, iter(body.children))
                    break
            elif n.children:
                walk.append(iter(n.children))
                break
            elif label not in ("program", "then", "else") and not label.startswith(("while_", "if_")):
                out.append(label)
        else:
            walk.pop()  # top is done
    return out
