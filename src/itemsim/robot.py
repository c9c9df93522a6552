"""Recursive-descent parser and emitter for the grid-robot DSL.

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
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ItemsimError, ParseError
from .tree import REPEAT_COUNT, AstNode

BASE_COMMANDS = ("move", "left", "right", "shoot")

_KEYWORDS = frozenset(BASE_COMMANDS) | {"repeat", "while", "if", "else", "def", "call"}

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# whitespace and comments are unnamed, so their matches have no lastgroup
_TOKEN_RE = re.compile(
    rf"[ \t\r\n]+|#[^\n]*|(?P<num>[0-9]+)|(?P<ident>{_IDENT})|(?P<op>==|!=|\{{|\}})|(?P<bad>.)",
    re.DOTALL,
)


class _Token(NamedTuple):
    kind: str  # num | ident | { | } | == | != | eof
    text: str
    offset: int


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = []
        for m in _TOKEN_RE.finditer(source):
            kind = m.lastgroup
            if kind is None:
                continue
            if kind == "bad":
                raise self.error(f"unexpected character {m.group()!r}", m.start())
            text = m.group()
            self.tokens.append(_Token(text if kind == "op" else kind, text, m.start()))
        self.tokens.append(_Token("eof", "", len(source)))
        self.pos = 0

    def error(self, message: str, offset: int) -> ParseError:
        """The error at a source offset, with its 1-based line and column."""
        line = self.source.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.source.rfind("\n", 0, offset))

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def program(self) -> AstNode:
        stmts = []
        while self.peek().kind != "eof":
            if self.peek().kind == "}":
                raise self.error("unbalanced braces: unexpected '}'", self.peek().offset)
            stmts.append(self.stmt())
        return AstNode("program", tuple(stmts))

    def stmt(self) -> AstNode:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text in BASE_COMMANDS:
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
            raise self.error(f"unknown keyword {tok.text!r}", tok.offset)
        raise self.error(f"expected statement, found {tok.text or 'end of input'!r}", tok.offset)

    def repeat_stmt(self) -> AstNode:
        self.advance()
        tok = self.peek()
        if tok.kind != "num" or not REPEAT_COUNT.fullmatch(tok.text):
            raise self.error("repeat count not a positive integer", tok.offset)
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
            raise self.error("unbalanced braces: expected '{'", open_tok.offset)
        self.advance()
        stmts = []
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind == "eof":
                raise self.error("unbalanced braces: missing '}'", tok.offset)
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
            raise self.error(f"expected {what}, found {tok.text or 'end of input'!r}", tok.offset)
        if tok.text in _KEYWORDS:
            raise self.error(f"expected {what}, found keyword {tok.text!r}", tok.offset)
        self.advance()
        return tok.text


def parse_robot_program(source: str) -> AstNode:
    """Parse DSL source into an AST rooted at a "program" node."""
    return _Parser(source).program()


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
