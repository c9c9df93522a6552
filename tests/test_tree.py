"""AST node type, JSON document round-trips, canonization, and action
sequences."""

import json

import pytest

from itemsim import (
    AstNode,
    ItemsimError,
    action_sequence,
    canonize,
    max_depth,
    node,
    node_count,
    parse_ast_document,
    parse_robot_program,
)
from itemsim.tree import ast_to_document, iter_labels

from conftest import nested_robot_source


def test_empty_label_rejected():
    with pytest.raises(ItemsimError):
        AstNode("")


def test_node_count_and_depth():
    assert node_count(node("move")) == 1
    assert max_depth(node("move")) == 1
    t = node("program", node("repeat_2", node("if_wall", node("shoot"))))
    assert node_count(t) == 4
    assert max_depth(t) == 4


def test_depth_follows_the_deepest_branch_wherever_it_is():
    deep, shallow = node("b", node("c", node("d"))), node("e")
    for children in [(deep, shallow, shallow), (shallow, deep, shallow), (shallow, shallow, deep)]:
        assert max_depth(node("a", *children)) == 4
    assert max_depth(node("a", shallow, node("f", shallow, deep))) == 5


def test_iter_labels_preorder():
    t = node("a", node("b", node("c")), node("d"))
    assert list(iter_labels(t)) == ["a", "b", "c", "d"]


def test_walks_follow_trees_deeper_than_the_recursion_limit():
    t = node("move")
    for _ in range(5000):
        t = node("while_wall", t)
    assert node_count(t) == 5001
    assert max_depth(t) == 5001
    assert sum(1 for label in iter_labels(t) if label == "while_wall") == 5000


def _chain(depth: int, leaf: str = "move") -> AstNode:
    t = node(leaf)
    for _ in range(depth):
        t = node("while_wall", t)
    return t


class TestStructuralEquality:
    """== and hash compare whole trees with their own stack, at any depth."""

    def test_equal_trees_are_equal_and_hash_alike(self):
        a = node("r", node("a", node("b")), node("c"))
        b = node("r", node("a", node("b")), node("c"))
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_any_difference_makes_trees_unequal(self):
        t = node("r", node("a", node("b")), node("c"))
        for other in (
            node("r", node("a", node("x")), node("c")),  # a label below the root
            node("r", node("a", node("b"))),  # a child fewer
            node("r", node("a", node("b"), node("c"))),  # the same labels, moved
            node("r", node("c"), node("a", node("b"))),  # children reordered
            node("q", node("a", node("b")), node("c")),  # the root label
        ):
            assert t != other and other != t
        assert t != "r" and node("r") != ("r", ())

    def test_chains_deeper_than_the_recursion_limit(self):
        a, b = _chain(5000), _chain(5000)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert a != _chain(5000, leaf="left")
        assert a != _chain(4999)

    def test_deepest_if_else_nest_the_parser_accepts(self):
        # 329 if/else blocks are 660 tree levels
        source = nested_robot_source("if_else", 329)
        a, b = parse_robot_program(source), parse_robot_program(source)
        assert max_depth(a) == 660
        assert a == b
        assert hash(a) == hash(b)
        assert a != parse_robot_program(source.replace("move", "shoot"))


class TestAstDocument:
    def test_leaf(self):
        assert parse_ast_document('{"label":"print","children":[]}') == node("print")

    def test_nested(self):
        text = ('{"label":"for","children":[{"label":"range","children":[]},'
                '{"label":"print","children":[]}]}')
        assert parse_ast_document(text) == node("for", node("range"), node("print"))

    def test_missing_children_defaults_to_leaf(self):
        assert parse_ast_document('{"label":"print"}') == node("print")

    def test_empty_label_rejected(self):
        with pytest.raises(ItemsimError, match="label"):
            parse_ast_document('{"label":"","children":[]}')

    def test_children_must_be_a_list(self):
        with pytest.raises(ItemsimError, match="children"):
            parse_ast_document('{"label":"x","children":{}}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ItemsimError, match="unknown keys"):
            parse_ast_document('{"label":"x","children":[],"extra":1}')

    def test_malformed_json(self):
        with pytest.raises(ItemsimError, match="malformed"):
            parse_ast_document("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ItemsimError):
            parse_ast_document("[1,2]")

    def test_round_trip(self):
        t = node("for", node("range", node("n")), node("print", node("i")))
        assert parse_ast_document(ast_to_document(t)) == t

    def test_document_bytes_are_canonical(self):
        t = node("a", node("b"))
        text = ast_to_document(t)
        assert text == '{"label":"a","children":[{"label":"b","children":[]}]}\n'
        assert json.loads(text) == {
            "label": "a",
            "children": [{"label": "b", "children": []}],
        }


class TestCanonize:
    def test_leaf(self):
        assert canonize(node("move")) == ["move"]

    def test_delimited_children(self):
        t = node("repeat_3", node("move"), node("left"))
        assert canonize(t) == ["repeat_3", "(", "move", "left", ")"]

    def test_single_token_difference(self):
        a = canonize(node("program", node("move")))
        b = canonize(node("program", node("left")))
        assert len(a) == len(b)
        assert sum(x != y for x, y in zip(a, b)) == 1

    def test_nesting_disambiguated(self):
        flat = node("a", node("b"), node("c"))
        deep = node("a", node("b", node("c")))
        assert canonize(flat) != canonize(deep)


class TestActionSequence:
    def test_repeat_unrolls(self):
        t = node("program", node("repeat_3", node("move")))
        assert action_sequence(t) == ["move", "move", "move"]

    def test_loop_and_branch_bodies_emit_once(self):
        t = node("while_path", node("move"), node("left"))
        assert action_sequence(t) == ["move", "left"]
        t = node("if_wall", node("then", node("shoot")), node("else", node("move")))
        assert action_sequence(t) == ["shoot", "move"]

    def test_unroll_cap(self):
        t = node("repeat_5", node("move"))
        assert action_sequence(t, unroll_cap=2) == ["move", "move"]

    def test_count_is_compared_with_the_cap_by_its_digits(self):
        move = node("move")
        assert action_sequence(node("repeat_10", move), unroll_cap=9) == ["move"] * 9
        assert action_sequence(node("repeat_9", move), unroll_cap=10) == ["move"] * 9
        assert action_sequence(node("repeat_12", move), unroll_cap=15) == ["move"] * 12
        # int() refuses strings over 4300 digits
        assert action_sequence(node("repeat_" + "1" * 5000, move), unroll_cap=3) == ["move"] * 3

    def test_only_a_whole_repeat_label_unrolls(self):
        for label in ("repeat_2\n", "repeat_02", "repeat_2x", "xrepeat_2", "repeat_"):
            assert action_sequence(node(label, node("move"))) == ["move"]

    def test_total_cap_truncates(self):
        t = node("repeat_50", node("move"), node("left"), node("shoot"))
        assert len(action_sequence(t, total_cap=100)) == 100

    def test_function_body_emits_at_call_site(self):
        t = node("program", node("def_F", node("move")), node("call_F"))
        assert action_sequence(t) == ["move"]

    def test_uncalled_function_contributes_nothing(self):
        t = node("program", node("def_F", node("move")), node("shoot"))
        assert action_sequence(t) == ["shoot"]

    def test_call_without_definition_is_silent(self):
        t = node("program", node("call_F"), node("move"))
        assert action_sequence(t) == ["move"]

    def test_direct_recursion_expands_one_level(self):
        t = node("program", node("def_F", node("move"), node("call_F")), node("call_F"))
        assert action_sequence(t) == ["move"]

    def test_mutual_recursion_expands_one_level_each(self):
        t = node(
            "program",
            node("def_A", node("move"), node("call_B")),
            node("def_B", node("left"), node("call_A")),
            node("call_A"),
        )
        assert action_sequence(t) == ["move", "left"]

    def test_repeated_calls_each_expand(self):
        t = node("program", node("def_F", node("move")), node("call_F"), node("call_F"))
        assert action_sequence(t) == ["move", "move"]

    def test_caps_must_be_positive(self):
        with pytest.raises(ItemsimError):
            action_sequence(node("move"), unroll_cap=0)
        with pytest.raises(ItemsimError):
            action_sequence(node("move"), total_cap=0)
