"""Parser and emitter for the grid-robot DSL.

Grammar (whitespace-insensitive, `#` comments run to end of line):

    program := stmt*
    stmt    := "move" | "left" | "right" | "shoot"
             | "repeat" INT block
             | "while" cond block
             | "if" cond block ("else" block)?
             | "def" IDENT block
             | "call" IDENT
    block   := "{" stmt* "}"
    cond    := IDENT (("==" | "!=") IDENT)?
    IDENT   := [A-Za-z_][A-Za-z0-9_]*    (not a keyword)
    INT     := [1-9][0-9]*

Structured statements fold their parameter into the node label
(repeat 3 -> "repeat_3", if wall -> "if_wall") so that tree edit distance
treats a changed count or condition as a single relabel.

The parser makes one pass over the tokens and keeps the open blocks on its
own stack, so blocks of any form nest up to one bound, 329, however deep
the caller's stack is.
"""

from __future__ import annotations

import re
import string
from itertools import islice

from .errors import ItemsimError, ParseError
from .tree import REPEAT_COUNT, AstNode

BASE_COMMANDS = ("move", "left", "right", "shoot")

_KEYWORDS = frozenset(BASE_COMMANDS) | {"repeat", "while", "if", "else", "def", "call"}

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# one match per token, its text the one group: whitespace and comments
# before it are skipped, any character no token starts with is a token of
# its own, and the end of the source is an empty token. The first
# alternative that matches is the token, so no match backtracks.
_TOKEN_RE = re.compile(
    rf"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*([0-9]+|{_IDENT}|==|!=|[{{}}]|.|\Z)", re.DOTALL)

# the characters a token of one character may be without being rejected
_ONE_CHAR_TOKENS = frozenset("0123456789{}_" + string.ascii_letters)
_IDENT_FIRST = frozenset("_" + string.ascii_letters)


# open blocks nest at most this deep, whatever the form: pretty_print writes a
# program back by one frame per block, within reach of a deep caller's stack
_MAX_NESTING = 329

# what the parser expects next
_STMT, _COUNT, _LHS, _RHS, _FUNC, _OP_OR_OPEN, _OPEN, _ELSE = range(8)

# the keywords that start a statement of more than one token -> what follows
_STARTS = {"repeat": _COUNT, "while": _LHS, "if": _LHS, "def": _FUNC, "call": _FUNC}

_IDENT_WHAT = {_LHS: "condition", _RHS: "condition operand", _FUNC: "function name"}

# an AstNode is immutable, so each command leaf is one node shared by every tree
_LEAVES = {command: AstNode(command) for command in BASE_COMMANDS}


def _error(source: str, tokens: list[str], index: int | None, message: str) -> ItemsimError:
    """The error of the token at `index` (None for an error with no
    position), with its 1-based line and column. A character the scanner
    rejects is reported first, wherever it is."""
    for i, token in enumerate(tokens):
        if len(token) == 1 and token not in _ONE_CHAR_TOKENS:
            index, message = i, f"unexpected character {token!r}"
            break
    if index is None:
        return ItemsimError(message)
    offset = next(islice(_TOKEN_RE.finditer(source), index, None)).start(1)
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


def parse_robot_program(source: str) -> AstNode:
    """Parse DSL source into an AST rooted at a "program" node. Blocks nest
    at most _MAX_NESTING deep; a deeper program raises "nesting too deep"."""
    tokens = _TOKEN_RE.findall(source)  # the last is "", the end of input
    stmts: list[AstNode] = []  # the statements of the innermost open block
    # per open block: its label, the statements it belongs to, its keyword,
    # and for an else block the body of its then block
    stack: list[tuple[str, list[AstNode], str, tuple[AstNode, ...]]] = []
    expect, keyword, label, then_body = _STMT, "", "", ()
    for i, token in enumerate(tokens):
        if expect == _ELSE:
            if token == "else":
                expect, keyword = _OPEN, "else"
                continue
            stmts.append(AstNode(label, then_body))
            expect = _STMT
        if expect == _STMT:
            if token in _LEAVES:
                stmts.append(_LEAVES[token])
            elif token in _STARTS:
                expect, keyword = _STARTS[token], token
            elif token[:1] in _IDENT_FIRST:
                raise _error(source, tokens, i, f"unknown keyword {token!r}")
            elif token == "}" and stack:
                label, parent, keyword, then = stack.pop()
                body, stmts = tuple(stmts), parent
                if keyword == "if":
                    expect, then_body = _ELSE, body
                elif keyword == "else":
                    stmts.append(AstNode(label, (AstNode("then", then), AstNode("else", body))))
                else:
                    stmts.append(AstNode(label, body))
            elif token == "}":
                raise _error(source, tokens, i, "unbalanced braces: unexpected '}'")
            elif token:
                raise _error(source, tokens, i, f"expected statement, found {token!r}")
            elif stack:
                raise _error(source, tokens, i, "unbalanced braces: missing '}'")
        elif expect == _COUNT:
            if not REPEAT_COUNT.fullmatch(token):
                raise _error(source, tokens, i, "repeat count not a positive integer")
            expect, label = _OPEN, "repeat_" + token
        elif expect in _IDENT_WHAT:
            what = _IDENT_WHAT[expect]
            if token[:1] not in _IDENT_FIRST:
                raise _error(source, tokens, i,
                             f"expected {what}, found {token or 'end of input'!r}")
            if token in _KEYWORDS:
                raise _error(source, tokens, i, f"expected {what}, found keyword {token!r}")
            if expect == _LHS:
                expect, label = _OP_OR_OPEN, f"{keyword}_{token}"
            elif expect == _RHS:
                expect, label = _OPEN, label + token
            elif keyword == "def":
                expect, label = _OPEN, "def_" + token
            else:
                expect = _STMT
                stmts.append(AstNode("call_" + token))
        elif expect == _OP_OR_OPEN and token in ("==", "!="):
            expect, label = _RHS, label + token
        elif token != "{":
            raise _error(source, tokens, i, "unbalanced braces: expected '{'")
        elif len(stack) == _MAX_NESTING:
            raise _error(source, tokens, None, "nesting too deep")
        else:
            stack.append((label, stmts, keyword, then_body))
            expect, stmts = _STMT, []
    return AstNode("program", tuple(stmts))


# ---------------------------------------------------------------------------
# Inverse emitter
# ---------------------------------------------------------------------------

_NAME = re.compile(rf"({_IDENT})")
_COND = re.compile(rf"({_IDENT})(?:(?:==|!=)({_IDENT}))?")

# the keyword before a label's first "_" -> the pattern its parameter must
# match; the identifiers a pattern captures must not be keywords
_PARAMETERS = {"repeat": REPEAT_COUNT, "while": _COND, "if": _COND, "def": _NAME, "call": _NAME}


def pretty_print(ast: AstNode) -> str:
    """Emit DSL source for an AST in the DSL fragment; inverse of
    parse_robot_program up to formatting. Raises for trees outside the
    fragment, keyword-named identifiers included."""
    if ast.label != "program":
        raise ItemsimError("pretty_print expects a 'program' root")
    lines: list[str] = []
    for child in ast.children:
        _emit(child, 0, lines)
    return "\n".join(lines) + ("\n" if lines else "")


def _emit(n: AstNode, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    label, kids = n.label, n.children
    keyword, _, param = label.partition("_")
    if label in BASE_COMMANDS:
        head, block = label, False
    else:
        pattern = _PARAMETERS.get(keyword)
        m = pattern.fullmatch(param) if pattern else None
        if m is None or _KEYWORDS.intersection(m.groups()):
            raise ItemsimError(f"label {label!r} is outside the robot DSL fragment")
        head, block = f"{keyword} {param}", keyword != "call"
    if not block:
        if kids:
            raise ItemsimError(f"command {label!r} cannot have children")
        lines.append(pad + head)
        return
    bodies = [kids]
    if keyword == "if" and len(kids) == 2 and kids[0].label == "then" and kids[1].label == "else":
        bodies = [kids[0].children, kids[1].children]
    lines.append(pad + head + " {")
    for i, body in enumerate(bodies):
        if i:
            lines.append(pad + "} else {")
        for c in body:
            _emit(c, indent + 1, lines)
    lines.append(pad + "}")
