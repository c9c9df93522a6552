"""Solution ASTs: the node type, the JSON document format, and the two
sequence views (canonized token stream, flattened action sequence)."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import ItemsimError

DEFAULT_UNROLL_CAP = 100
DEFAULT_TOTAL_CAP = 10000

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


# node_count, max_depth and iter_labels keep their own stack (max_depth one
# level of nodes at a time), so they follow a tree of any depth. canonize
# and action_sequence recurse, one frame per tree level, and the parsers'
# limits bound that depth: the robot parser's bound on nested blocks (an
# if/else block is two tree levels) and the recursion limit that stops the
# .ast.json decoder.


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


def parse_ast_document(text: str) -> AstNode:
    """Parse the canonical JSON document carrying an externally produced AST.

    The document is an object with exactly the keys "label" (non-empty
    string) and "children" (list of the same shape). Labels are preserved
    byte-exact.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ItemsimError(f"malformed AST document: {e}") from e
    return _node_from_obj(doc)


def _node_from_obj(obj) -> AstNode:
    if not isinstance(obj, dict):
        raise ItemsimError("malformed AST document: node is not an object")
    extra = set(obj) - {"label", "children"}
    if extra:
        raise ItemsimError(f"malformed AST document: unknown keys {sorted(extra)}")
    label = obj.get("label")
    if not isinstance(label, str) or label == "":
        raise ItemsimError("malformed AST document: empty or non-string label")
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ItemsimError("malformed AST document: children field is not a list")
    return AstNode(label, tuple(_node_from_obj(c) for c in children))


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

    def walk(n: AstNode):
        out.append(n.label)
        if n.children:
            out.append("(")
            for c in n.children:
                walk(c)
            out.append(")")

    walk(ast)
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
    contributes one level. Output is truncated at total_cap.
    """
    if unroll_cap < 1 or total_cap < 1:
        raise ItemsimError("caps must be >= 1")

    # def_F nodes anywhere in the tree are callable by name F
    defs: dict[str, AstNode] = {}

    def collect(n: AstNode):
        if n.label.startswith("def_") and len(n.label) > 4:
            defs.setdefault(n.label[4:], n)
        for c in n.children:
            collect(c)

    collect(ast)

    out: list[str] = []
    active: set[str] = set()

    # one frame per tree level
    def emit(nodes: tuple[AstNode, ...]):
        for n in nodes:
            if len(out) >= total_cap:
                return
            label = n.label
            count = _repeat_count(label, unroll_cap)
            if count is not None:
                for _ in range(count):
                    if len(out) >= total_cap:
                        return
                    emit(n.children)
            elif label in ("program", "then", "else") or label.startswith(("while_", "if_")):
                emit(n.children)
            elif label.startswith("def_"):
                pass  # body contributes at call sites only
            elif label.startswith("call_"):
                name = label[5:]
                body = defs.get(name)
                if body is not None and name not in active:
                    active.add(name)
                    emit(body.children)
                    active.discard(name)
            elif n.children:
                emit(n.children)
            else:
                out.append(label)

    emit((ast,))
    return out
