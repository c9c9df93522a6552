"""Shared generators for random trees, programs, corpora, and matrices,
plus the hook that prints one summary line per acceptance criterion."""

from __future__ import annotations

import sys

import numpy as np

from itemsim import (
    AstNode,
    Corpus,
    Item,
    SimilarityMatrix,
    Solution,
    WorldSpec,
    node,
    parse_robot_program,
)
from itemsim.robot import BASE_COMMANDS
from itemsim.synth import CorpusSpec, generate_corpus


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for num, title, ok in sorted(results):
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"criterion {num} ({title}): {status}")


# ---------------------------------------------------------------------------
# Random structure generators (seeded, deterministic)
# ---------------------------------------------------------------------------


def random_tree(rng: np.random.Generator, max_nodes: int = 8,
                labels=("a", "b", "c")) -> AstNode:
    """Random ordered labeled tree with 1..max_nodes nodes."""
    return _grow(rng, int(rng.integers(1, max_nodes + 1)), labels)


def random_tree_of_size(rng: np.random.Generator, size: int,
                        labels=("a", "b", "c")) -> AstNode:
    """Random ordered labeled tree of exactly size nodes."""
    return _grow(rng, size, labels)


def _grow(rng: np.random.Generator, size: int, labels) -> AstNode:
    label = labels[int(rng.integers(len(labels)))]
    budget = size - 1
    children = []
    while budget > 0:
        take = int(rng.integers(1, budget + 1))
        children.append(_grow(rng, take, labels))
        budget -= take
    return AstNode(label, tuple(children))


_CONDS = ("wall", "path", "clear", "edge==near", "tile!=empty")
_FUNCS = ("go", "spin", "sweep")


# the block forms of the robot language, each bounded by the parser's one
# nesting limit; an if/else block is two tree levels (if, then)
NESTED_FORMS = ("while", "repeat", "if", "if_else", "def")

_NESTED_BLOCKS = {
    "while": ("while wall {", "}"),
    "repeat": ("repeat 2 {", "}"),
    "if": ("if wall {", "}"),
    "if_else": ("if wall {", "} else {\nleft\n}"),
    "def": ("def f {", "}"),
}


def nested_robot_source(form: str, depth: int) -> str:
    """Robot source of `depth` blocks of one form, each inside the last."""
    head, tail = _NESTED_BLOCKS[form]
    return (head + "\n") * depth + "move\n" + (tail + "\n") * depth


def random_robot_program(rng: np.random.Generator, max_stmts: int = 4) -> AstNode:
    count = int(rng.integers(0, max_stmts + 1))
    return node("program", *(_random_stmt(rng, 0) for _ in range(count)))


def _random_stmt(rng: np.random.Generator, depth: int) -> AstNode:
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        return node(BASE_COMMANDS[int(rng.integers(len(BASE_COMMANDS)))])
    if roll < 0.60:
        return node(f"repeat_{int(rng.integers(1, 10))}", *_random_block(rng, depth + 1))
    if roll < 0.70:
        cond = _CONDS[int(rng.integers(len(_CONDS)))]
        return node("while_" + cond, *_random_block(rng, depth + 1))
    if roll < 0.85:
        cond = _CONDS[int(rng.integers(len(_CONDS)))]
        if rng.random() < 0.5:
            return node("if_" + cond, *_random_block(rng, depth + 1))
        return node(
            "if_" + cond,
            node("then", *_random_block(rng, depth + 1)),
            node("else", *_random_block(rng, depth + 1)),
        )
    if roll < 0.93:
        name = _FUNCS[int(rng.integers(len(_FUNCS)))]
        return node("def_" + name, *_random_block(rng, depth + 1))
    return node("call_" + _FUNCS[int(rng.integers(len(_FUNCS)))])


def _random_block(rng: np.random.Generator, depth: int) -> tuple[AstNode, ...]:
    return tuple(_random_stmt(rng, depth) for _ in range(int(rng.integers(0, 4))))


def char_mutant(text: str, pieces, rng: np.random.Generator) -> str:
    """text after 1-3 random edits: insert a piece, delete a character, or
    write a piece over one character."""
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(len(text) + 1))
        piece = pieces[int(rng.integers(len(pieces)))]
        op = int(rng.integers(3))
        if op == 0:
            text = text[:pos] + piece + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + piece + text[pos + 1:]
    return text


def random_sequence(rng: np.random.Generator, max_len: int = 8,
                    alphabet=("x", "y", "z")) -> tuple[str, ...]:
    n = int(rng.integers(0, max_len + 1))
    return tuple(alphabet[int(rng.integers(len(alphabet)))] for _ in range(n))


def top_level_mutant(program: AstNode, rng: np.random.Generator) -> AstNode:
    """Copy of a program with 1-3 random top-level edits: insert a base
    command, delete a statement, or swap two neighbouring statements."""
    children = list(program.children)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(3))
        if op == 0:
            command = node(BASE_COMMANDS[int(rng.integers(len(BASE_COMMANDS)))])
            children.insert(int(rng.integers(len(children) + 1)), command)
        elif op == 1 and len(children) > 1:
            del children[int(rng.integers(len(children)))]
        elif op == 2 and len(children) > 1:
            k = int(rng.integers(len(children) - 1))
            children[k], children[k + 1] = children[k + 1], children[k]
    return AstNode(program.label, tuple(children))


def random_similarity(rng: np.random.Generator, n: int = 10, missing: float = 0.0,
                      name: str = "m") -> SimilarityMatrix:
    """Random symmetric matrix with unit diagonal; `missing` is the chance
    of blanking an off-diagonal pair."""
    raw = rng.normal(size=(n, n))
    values = (raw + raw.T) / 2.0
    np.fill_diagonal(values, 1.0)
    if missing > 0:
        blank = np.triu(rng.random((n, n)) < missing, k=1)
        blank = blank | blank.T
        values[blank] = np.nan
    ids = tuple(f"i{k:02d}" for k in range(n))
    return SimilarityMatrix(item_ids=ids, values=values, measure_name=name)


def random_records(rng: np.random.Generator, n_learners: int = 12, n_items: int = 5,
                   attempt_prob: float = 0.9) -> list[tuple[str, str, float, bool]]:
    """(learner_id, item_id, time_seconds, success) rows, learner-major."""
    records = []
    for l in range(n_learners):
        for i in range(n_items):
            if rng.random() < attempt_prob:
                records.append(
                    (f"L{l:03d}", f"i{i}", float(np.exp(rng.normal())), bool(rng.integers(2)))
                )
    return records


def scrambled_records(rng: np.random.Generator, **kwargs) -> list[tuple[str, str, float, bool]]:
    """random_records in shuffled order, with a few (learner, item) pairs
    repeated under other values, before or after the original row."""
    rows = random_records(rng, **kwargs)
    repeats = [(learner, item, float(np.exp(rng.normal())), bool(rng.integers(2)))
               for learner, item, _, _ in rows[: int(rng.integers(0, 4))]]
    rows = rows + repeats
    return [rows[k] for k in rng.permutation(len(rows))]


# ---------------------------------------------------------------------------
# A small fixed corpus with all three data sources
# ---------------------------------------------------------------------------


def make_tiny_corpus() -> Corpus:
    """Three items: two with worlds and learner solutions, one bare."""
    alpha = Item(
        id="alpha",
        statement_text="Collect the diamond before the fuel runs out",
        world=WorldSpec(grid=("D..", ".M."), legend={"D": "diamond", "M": "meteorite"}),
        command_limit=10,
        solutions=(
            Solution(ast=parse_robot_program("move move shoot"), kind="sample"),
            Solution(ast=parse_robot_program("repeat 2 { move } shoot"), weight=3.0,
                     kind="learner"),
            Solution(ast=parse_robot_program("move shoot"), kind="learner"),
        ),
        level=0,
    )
    beta = Item(
        id="beta",
        statement_text="Dodge every meteorite on the way home",
        world=WorldSpec(grid=("MM.", "..D"), legend={"D": "diamond", "M": "meteorite"}),
        solutions=(
            Solution(ast=parse_robot_program("left move move"), kind="sample"),
            Solution(ast=parse_robot_program("left left move"), weight=2.0, kind="learner"),
        ),
        level=0,
    )
    gamma = Item(
        id="gamma",
        statement_text="Loop until the wall then turn",
        solutions=(
            Solution(ast=parse_robot_program("while wall { move } right"), kind="sample"),
        ),
        level=1,
    )
    return Corpus((alpha, beta, gamma))


def make_multi_corpus(n_items: int = 4, seed: int = 1) -> Corpus:
    """Synthetic items with four solutions each: the sample, an exact
    learner copy of it, and two top-level mutants. The last item's second
    mutant is replaced by the first item's sample, so equal solutions also
    meet across items."""
    rng = np.random.default_rng(seed)
    base = generate_corpus(CorpusSpec(n_items=n_items, n_levels=n_items, seed=seed))
    items = []
    for k, it in enumerate(base.items):
        sample = it.solutions[0].ast
        mutants = [top_level_mutant(sample, rng) for _ in range(2)]
        if k == n_items - 1:
            mutants[1] = base.items[0].solutions[0].ast
        solutions = (
            Solution(ast=sample, kind="sample"),
            Solution(ast=sample, weight=3.0, kind="learner"),
            *(Solution(ast=m, weight=float(w), kind="learner") for m, w in zip(mutants, (1, 2))),
        )
        items.append(Item(id=it.id, statement_text=it.statement_text, solutions=solutions,
                          level=it.level))
    return Corpus(tuple(items))
