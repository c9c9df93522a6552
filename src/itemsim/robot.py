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
    IDENT   := [A-Za-z_][A-Za-z0-9_]*
    INT     := [1-9][0-9]*

Structured statements fold their parameter into the node label
(repeat 3 -> "repeat_3", if wall -> "if_wall") so that tree edit distance
treats a changed count or condition as a single relabel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ItemsimError, ParseError
from .tree import AstNode

BASE_COMMANDS = ("move", "left", "right", "shoot")

_KEYWORDS = frozenset(BASE_COMMANDS) | {"repeat", "while", "if", "else", "def", "call"}

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<num>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|!=|\{|\})"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | { | } | == | != | eof
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind == "num":
            tokens.append(_Token("num", text, line, col))
        elif kind == "ident":
            tokens.append(_Token("ident", text, line, col))
        elif kind == "op":
            tokens.append(_Token(text, text, line, col))
        # advance position counters through the lexeme
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

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
                tok = self.peek()
                raise ParseError("unbalanced braces: unexpected '}'", tok.line, tok.col)
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
        if tok.text in _KEYWORDS:
            raise ParseError(f"expected {what}, found keyword {tok.text!r}", tok.line, tok.col)
        self.advance()
        return tok.text


def parse_robot_program(source: str) -> AstNode:
    """Parse DSL source into an AST rooted at a "program" node."""
    return _Parser(_tokenize(source)).program()


# ---------------------------------------------------------------------------
# Inverse emitter
# ---------------------------------------------------------------------------

_COND_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*((==|!=)[A-Za-z_][A-Za-z0-9_]*)?$")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def pretty_print(ast: AstNode) -> str:
    """Emit DSL source for an AST in the DSL fragment; inverse of
    parse_robot_program up to formatting. Raises for trees outside the
    fragment."""
    if ast.label != "program":
        raise ItemsimError("pretty_print expects a 'program' root")
    lines: list[str] = []
    for child in ast.children:
        _emit(child, 0, lines)
    return "\n".join(lines) + ("\n" if lines else "")


def _emit(n: AstNode, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    label = n.label
    if label in BASE_COMMANDS:
        if n.children:
            raise ItemsimError(f"command {label!r} cannot have children")
        lines.append(pad + label)
        return
    if label.startswith("repeat_"):
        count = label[len("repeat_"):]
        if not re.fullmatch(r"[1-9][0-9]*", count):
            raise ItemsimError(f"bad repeat label {label!r}")
        _emit_block(f"repeat {count}", n.children, indent, lines)
        return
    if label.startswith("while_"):
        cond = label[len("while_"):]
        _check_cond(cond, label)
        _emit_block(f"while {cond}", n.children, indent, lines)
        return
    if label.startswith("if_"):
        cond = label[len("if_"):]
        _check_cond(cond, label)
        kids = n.children
        if len(kids) == 2 and kids[0].label == "then" and kids[1].label == "else":
            lines.append(pad + f"if {cond} {{")
            for c in kids[0].children:
                _emit(c, indent + 1, lines)
            lines.append(pad + "} else {")
            for c in kids[1].children:
                _emit(c, indent + 1, lines)
            lines.append(pad + "}")
        else:
            _emit_block(f"if {cond}", kids, indent, lines)
        return
    if label.startswith("def_"):
        name = label[len("def_"):]
        _check_ident(name, label)
        _emit_block(f"def {name}", n.children, indent, lines)
        return
    if label.startswith("call_"):
        name = label[len("call_"):]
        _check_ident(name, label)
        if n.children:
            raise ItemsimError(f"call node {label!r} cannot have children")
        lines.append(pad + f"call {name}")
        return
    raise ItemsimError(f"label {label!r} is outside the robot DSL fragment")


def _emit_block(head: str, body: tuple[AstNode, ...], indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    lines.append(pad + head + " {")
    for c in body:
        _emit(c, indent + 1, lines)
    lines.append(pad + "}")


def _check_cond(cond: str, label: str) -> None:
    if not _COND_RE.fullmatch(cond):
        raise ItemsimError(f"bad condition in label {label!r}")


def _check_ident(name: str, label: str) -> None:
    if not _IDENT_RE.fullmatch(name):
        raise ItemsimError(f"bad identifier in label {label!r}")
