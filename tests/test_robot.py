"""Robot DSL parser and the inverse emitter."""

import numpy as np
import pytest

from itemsim import AstNode, ItemsimError, node, parse_robot_program, pretty_print
from itemsim.errors import ParseError
from itemsim.robot import _KEYWORDS
from itemsim.tree import iter_labels, max_depth, node_count

from conftest import NESTED_FORMS, char_mutant, nested_robot_source, random_robot_program
from oracles import reference_parse_robot_program

# what a character mutation inserts or writes over one character: every
# token kind, characters the scanner rejects (\f and é among them) and the
# line breaks that move the line:col of an error
_PIECES = ("$", "\f", "\r", "\n", "\t", " ", "é", "#", "{", "}", "{}", "==", "!=",
           "=", "!", "0", "7", "03", "12", "a", "_", "x1", "else", "move", "repeat", "def")


def _outcome(parse, source: str):
    try:
        return parse(source)
    except ParseError as e:
        return str(e), e.line, e.col


# parameters a label mutation puts after a prefix: valid ones, malformed
# ones and keyword-named identifiers, which the parser refuses
_LABEL_PARAMS = ("3", "12", "03", "0", "", "go", "wall", "a==b", "a!=b", "a==", "=b", "é",
                 "a b", "x\n", "9x", "a==def", "move!=b") + tuple(sorted(_KEYWORDS))
_LABEL_PREFIXES = ("repeat_", "while_", "if_", "def_", "call_")


def _relabelled(tree: AstNode, target: int, label: str, counter: list[int]) -> AstNode:
    """tree with its preorder node number `target` (the root is 0) relabelled."""
    here = counter[0]
    counter[0] += 1
    children = tuple(_relabelled(c, target, label, counter) for c in tree.children)
    return AstNode(label if here == target else tree.label, children)


def _label_mutant(program: AstNode, rng: np.random.Generator) -> AstNode:
    for _ in range(int(rng.integers(1, 3))):
        size = node_count(program)
        if size == 1:
            break
        if rng.random() < 0.8:
            prefix = _LABEL_PREFIXES[int(rng.integers(len(_LABEL_PREFIXES)))]
            label = prefix + _LABEL_PARAMS[int(rng.integers(len(_LABEL_PARAMS)))]
        else:
            label = ("then", "else", "move", "repeat", "dance")[int(rng.integers(5))]
        program = _relabelled(program, int(rng.integers(1, size)), label, [0])
    return program


class TestParse:
    def test_single_command(self):
        assert parse_robot_program("move") == node("program", node("move"))

    def test_repeat_folds_count_into_label(self):
        assert parse_robot_program("repeat 3 { move left }") == node(
            "program", node("repeat_3", node("move"), node("left"))
        )

    def test_if_else_wraps_branches(self):
        assert parse_robot_program("if wall { shoot } else { move }") == node(
            "program",
            node("if_wall", node("then", node("shoot")), node("else", node("move"))),
        )

    def test_if_without_else_keeps_body_flat(self):
        assert parse_robot_program("if wall { shoot move }") == node(
            "program", node("if_wall", node("shoot"), node("move"))
        )

    def test_while_with_comparison_condition(self):
        assert parse_robot_program("while path == clear { move }") == node(
            "program", node("while_path==clear", node("move"))
        )
        assert parse_robot_program("while path != blocked { left }") == node(
            "program", node("while_path!=blocked", node("left"))
        )

    def test_def_and_call(self):
        assert parse_robot_program("def go { move move } call go") == node(
            "program", node("def_go", node("move"), node("move")), node("call_go")
        )

    def test_empty_source_and_blocks(self):
        assert parse_robot_program("") == node("program")
        assert parse_robot_program("repeat 2 { }") == node("program", node("repeat_2"))

    def test_comments_and_whitespace_ignored(self):
        source = "# header\n  move\t# trailing\n\n repeat 2{move}"
        assert parse_robot_program(source) == node(
            "program", node("move"), node("repeat_2", node("move"))
        )

    def test_missing_repeat_count(self):
        with pytest.raises(ItemsimError, match="repeat count not a positive integer"):
            parse_robot_program("repeat { move }")

    def test_zero_and_padded_repeat_counts_rejected(self):
        for bad in ("repeat 0 { move }", "repeat 03 { move }"):
            with pytest.raises(ItemsimError, match="repeat count"):
                parse_robot_program(bad)

    def test_unknown_keyword(self):
        with pytest.raises(ItemsimError, match="unknown keyword 'fly'"):
            parse_robot_program("fly")

    def test_unbalanced_braces(self):
        with pytest.raises(ItemsimError, match="unbalanced braces"):
            parse_robot_program("repeat 2 { move")
        with pytest.raises(ItemsimError, match="unbalanced braces"):
            parse_robot_program("}")
        with pytest.raises(ItemsimError, match="unbalanced braces"):
            parse_robot_program("while wall move }")

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as excinfo:
            parse_robot_program("move\n  fly")
        assert excinfo.value.line == 2
        assert excinfo.value.col == 3
        assert str(excinfo.value).startswith("2:3:")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_robot_program("move $")

    def test_keyword_cannot_name_a_function(self):
        with pytest.raises(ItemsimError, match="keyword"):
            parse_robot_program("def move { left }")

    def test_condition_required(self):
        with pytest.raises(ItemsimError, match="condition"):
            parse_robot_program("while { move }")


class TestParseMatchesReference:
    """parse_robot_program against the parser that counts lines and columns
    per lexeme: equal ASTs, or equal error text, line and column."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_character_mutants(self, seed):
        rng = np.random.default_rng(seed)
        parsed = failed = 0
        for _ in range(1500):
            source = pretty_print(random_robot_program(rng))
            mutants = [char_mutant(source, _PIECES, rng) for _ in range(2)]
            for mutant in [source, *mutants]:
                expected = _outcome(reference_parse_robot_program, mutant)
                assert _outcome(parse_robot_program, mutant) == expected, repr(mutant)
                if isinstance(expected, AstNode):
                    parsed += 1
                else:
                    failed += 1
        assert parsed > 1000 and failed > 1000

    @pytest.mark.parametrize("source", [
        "", "\n", "move\n\n  $", "# only a comment", "repeat 2 {\n move", "\r\nmove\r\nfly",
        "while a == { move }", "if x { left } else", "call\n", "move\f", "é", "repeat 1{}é",
    ])
    def test_hand_samples(self, source):
        assert _outcome(parse_robot_program, source) == _outcome(
            reference_parse_robot_program, source)


class TestNestingBound:
    """Blocks of every form nest up to 329 levels, however deep the caller's
    stack; the 330th level is "nesting too deep", with no position."""

    @pytest.mark.parametrize("form", NESTED_FORMS)
    def test_329_levels_parse(self, form):
        ast = parse_robot_program(nested_robot_source(form, 329))
        levels_per_block = 2 if form == "if_else" else 1
        assert max_depth(ast) == 329 * levels_per_block + 2  # program ... move

    @pytest.mark.parametrize("form", NESTED_FORMS)
    def test_330_levels_are_too_deep(self, form):
        with pytest.raises(ItemsimError) as excinfo:
            parse_robot_program(nested_robot_source(form, 330))
        assert str(excinfo.value) == "nesting too deep"
        assert not isinstance(excinfo.value, ParseError)

    @pytest.mark.parametrize("form", NESTED_FORMS)
    def test_329_levels_under_500_extra_frames(self, form):
        source = nested_robot_source(form, 329)

        def under(frames):
            return parse_robot_program(source) if frames == 0 else under(frames - 1)

        # AstNode equality recurses, so compare by the walks that keep their own stack
        ast = under(500)
        assert list(iter_labels(ast)) == list(iter_labels(parse_robot_program(source)))
        assert max_depth(ast) > 329

    def test_a_rejected_character_comes_before_the_bound(self):
        with pytest.raises(ParseError, match=r"unexpected character '\$'"):
            parse_robot_program(nested_robot_source("while", 400) + "$")


class TestPrettyPrint:
    def test_round_trip_hand_samples(self):
        sources = [
            "move",
            "repeat 3 { move left }",
            "if wall { shoot } else { move }",
            "if wall { shoot }",
            "while path == clear { move }",
            "def go { repeat 2 { move } } call go",
            "",
        ]
        for source in sources:
            ast = parse_robot_program(source)
            assert parse_robot_program(pretty_print(ast)) == ast

    def test_round_trip_random_programs(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            ast = random_robot_program(rng)
            assert parse_robot_program(pretty_print(ast)) == ast

    def test_requires_program_root(self):
        with pytest.raises(ItemsimError, match="program"):
            pretty_print(node("move"))

    def test_rejects_labels_outside_the_fragment(self):
        with pytest.raises(ItemsimError):
            pretty_print(node("program", node("dance")))
        with pytest.raises(ItemsimError):
            pretty_print(node("program", node("repeat_x", node("move"))))
        with pytest.raises(ItemsimError):
            pretty_print(node("program", node("while_9bad", node("move"))))

    @pytest.mark.parametrize("label", ["call_if", "def_move", "while_repeat", "if_else",
                                       "while_a==def", "if_call!=b"])
    def test_rejects_what_the_parser_refuses(self, label):
        body = () if label.startswith("call_") else (node("move"),)
        with pytest.raises(ItemsimError, match="outside the robot DSL"):
            pretty_print(node("program", AstNode(label, body)))

    def test_label_mutants_round_trip_or_raise(self):
        rng = np.random.default_rng(12)
        printed = 0
        for _ in range(4000):
            ast = _label_mutant(random_robot_program(rng), rng)
            try:
                text = pretty_print(ast)
            except ItemsimError:
                continue
            printed += 1
            assert parse_robot_program(text) == ast, text
        assert printed > 1000

    def test_rejects_children_on_commands(self):
        with pytest.raises(ItemsimError):
            pretty_print(node("program", node("move", node("left"))))
        with pytest.raises(ItemsimError):
            pretty_print(node("program", node("call_go", node("move"))))
