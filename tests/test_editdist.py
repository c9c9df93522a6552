"""Sequence and tree edit distances against hand values and brute force."""

import importlib.util
import logging
import re
import sys
import tracemalloc
import warnings
from functools import lru_cache
from itertools import combinations
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from itemsim import (
    CorpusSpec,
    ItemsimError,
    NwScoring,
    action_sequence,
    canonize,
    editdist,
    generate_corpus,
    levenshtein,
    needleman_wunsch,
    node,
    tree_edit_distance,
)
from itemsim.editdist import (
    _BATCH_POSITIONS,
    _BLOCK_CELLS,
    _TD_ENTRIES,
    levenshtein_batch,
    needleman_wunsch_batch,
    zhang_shasha_batch,
)
from itemsim.tree import iter_labels, node_count

from conftest import random_sequence, random_tree, random_tree_of_size, top_level_mutant
from oracles import (
    oracle_alignment,
    oracle_levenshtein,
    oracle_tree_edit,
    reference_levenshtein,
    reference_needleman_wunsch,
    reference_tree_edit_distance,
    reference_zhang_shasha_batch,
    tree_form,
)

ROOT = Path(__file__).resolve().parent.parent

# unit, fractional, and gaps beating matches (match < 2 * gap); then
# scorings exact in integers beyond the unit one: integral, dyadic, two gaps
# tying a match, a positive gap, under which the empty pair is +0.0, and
# three with a +0.0 score: unit costs (Levenshtein's), zero mismatch and a
# zero gap, under which the empty pair is +0.0 too; last two fractional ones
# with a +0.0 score, a zero match and a zero gap, whose cells tie at +0.0
# under np.maximum. The fractional, gaps-win and last two run the wavefront
# in floats, the others in integers (test_debug_line_names_the_path).
# NwScoring stores a -0.0 score as +0.0, so the -0.0 cases below run as
# their +0.0 twins, and against the reference under the scoring as stored
SCORINGS = [NwScoring(), NwScoring(1.0, -0.5, -0.7), NwScoring(-1.0, -2.0, -0.3),
            NwScoring(3.0, -2.0, -5.0), NwScoring(0.5, -0.25, -0.75), NwScoring(-1.0, -2.0, -0.5),
            NwScoring(1.0, -1.0, 0.25), NwScoring(0.0, -1.0, -1.0), NwScoring(1.0, 0.0, -1.0),
            NwScoring(1.0, -1.0, 0.0), NwScoring(0.0, -0.3, -0.7), NwScoring(0.1, -0.1, 0.0)]
SCORING_IDS = ["integer", "fractional", "gaps-win", "integral", "dyadic", "gaps-tie",
               "positive-gap", "unit-costs", "zero-mismatch", "zero-gap-positive",
               "zero-match-float", "zero-gap-float"]
INTEGER_PATH = {"integer", "integral", "dyadic", "gaps-tie", "positive-gap", "unit-costs",
                "zero-mismatch", "zero-gap-positive"}  # by id


def same_float(x: float, y: float) -> bool:
    """Equal values with equal signs: == alone (and np.array_equal) takes
    -0.0 for 0.0."""
    return x == y and np.signbit(x) == np.signbit(y)


def program_pairs(seed: int) -> list[tuple]:
    """Every pair of a synthetic corpus's programs, plus each program
    against a top-level mutant of itself."""
    corpus = generate_corpus(CorpusSpec(n_items=12, n_levels=9, seed=seed))
    programs = [it.solutions[0].ast for it in corpus.items]
    rng = np.random.default_rng(seed)
    return [*combinations(programs, 2), *((p, top_level_mutant(p, rng)) for p in programs)]


@lru_cache(maxsize=None)
def program_tree_distances(seed: int) -> tuple[int, ...]:
    """reference_tree_edit_distance of each pair of program_pairs(seed),
    computed once per session: the plain recurrence takes seconds."""
    return tuple(reference_tree_edit_distance(a, b) for a, b in program_pairs(seed))


class TestLevenshtein:
    def test_classic_word_pair(self):
        assert levenshtein(list("kitten"), list("sitting")) == 3

    def test_empty_against_tokens(self):
        assert levenshtein([], ["a", "b", "c"]) == 3
        assert levenshtein(["a", "b", "c"], []) == 3
        assert levenshtein([], []) == 0

    def test_identity_and_single_edits(self):
        assert levenshtein(["move", "left"], ["move", "left"]) == 0
        assert levenshtein(["move"], ["left"]) == 1
        assert levenshtein(["move"], ["move", "left"]) == 1

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_sequence(rng)
            b = random_sequence(rng)
            assert levenshtein(a, b) == levenshtein(b, a)

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = random_sequence(rng, max_len=6, alphabet=("x", "y"))
            b = random_sequence(rng, max_len=6, alphabet=("x", "y"))
            assert levenshtein(a, b) == oracle_levenshtein(a, b)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_reference_on_synthetic_programs(self, seed):
        # canonical token sequences of about 30-100 tokens, in both orders:
        # one batched call over all pairs, and one-pair calls
        seqs = [canonize(p) for pair in program_pairs(seed) for p in pair]
        pairs = [p for k in range(0, len(seqs), 2) for p in ((k, k + 1), (k + 1, k))]
        want = [reference_levenshtein(seqs[a], seqs[b]) for a, b in pairs]
        got, _ = levenshtein_batch(seqs, pairs)
        assert got == want
        assert [levenshtein(seqs[a], seqs[b]) for a, b in pairs] == want

    @pytest.mark.parametrize("n", [32763, 32764], ids=["int16", "int32"])
    def test_one_token_at_the_int16_edge(self, n):
        # a batch of longest rows m and columns n runs in int16 while
        # (m + n + 3) max|score| < 2**15: under unit costs one token against
        # 32763 is the last such batch, against 32764 the first in int32
        seqs = [("x",), ("y",) * (n - 1) + ("x",), ("y",) * n]
        got, batches = levenshtein_batch(seqs, [(0, 1), (1, 0), (0, 2), (2, 0)])
        assert batches == 1
        assert got == [n - 1, n - 1, n, n]
        assert all(type(d) is int for d in got)

    def test_equals_reference_beyond_one_machine_word(self):
        # inputs of 65-300 tokens, against shorter ones down to empty
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_sequence(rng, max_len=300, alphabet=tuple("abcdefg"))
            b = random_sequence(rng, max_len=300, alphabet=tuple("abcdefg"))
            a, b = a + ("a",) * 65, b[:int(rng.integers(len(b) + 1))]
            want = reference_levenshtein(a, b)
            assert levenshtein(a, b) == want
            assert levenshtein(b, a) == want
        a = tuple("ab" * 70)
        assert levenshtein(a, a) == 0
        assert levenshtein(a, tuple("c" * 140)) == 140
        assert levenshtein(a, a[1:]) == 1


class TestTreeEditDistance:
    def test_deleting_one_leaf(self):
        t1 = node("a", node("b"), node("c"))
        t2 = node("a", node("b"))
        assert tree_edit_distance(t1, t2) == 1

    def test_relabeling_one_leaf(self):
        t1 = node("a", node("b"))
        t2 = node("a", node("c"))
        assert tree_edit_distance(t1, t2) == 1

    def test_identical_trees(self):
        t = node("a", node("b", node("c")), node("d"))
        assert tree_edit_distance(t, t) == 0

    def test_structural_move_needs_two_edits(self):
        # delete inner c and reinsert it higher: d(a, c(b)) vs c(d(a, b))
        t1 = node("f", node("d", node("a"), node("c", node("b"))), node("e"))
        t2 = node("f", node("c", node("d", node("a"), node("b"))), node("e"))
        assert tree_edit_distance(t1, t2) == 2
        assert tree_edit_distance(t1, t2) == oracle_tree_edit(t1, t2)

    def test_single_nodes(self):
        assert tree_edit_distance(node("a"), node("a")) == 0
        assert tree_edit_distance(node("a"), node("b")) == 1
        # in one call, where each tree's closed-form rows are shared: no
        # inner keyroot, so no block batch
        trees = [node("a"), node("b"), node("a")]
        pairs = [(a, b) for a in range(3) for b in range(3)]
        assert zhang_shasha_batch(trees, pairs) == ([0, 1, 0, 1, 0, 1, 0, 1, 0], 0)

    def test_order_sensitivity(self):
        t1 = node("r", node("a"), node("b"))
        t2 = node("r", node("b"), node("a"))
        assert tree_edit_distance(t1, t2) == 2

    def test_symmetry_on_random_trees(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            t1 = random_tree(rng, max_nodes=7)
            t2 = random_tree(rng, max_nodes=7)
            assert tree_edit_distance(t1, t2) == tree_edit_distance(t2, t1)

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            t1 = random_tree(rng, max_nodes=5, labels=("a", "b"))
            t2 = random_tree(rng, max_nodes=5, labels=("a", "b"))
            assert tree_edit_distance(t1, t2) == oracle_tree_edit(t1, t2)


    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_reference_on_synthetic_programs(self, seed):
        # every pair of a synthetic corpus's programs (about 45 nodes each),
        # plus each program against a top-level mutant of itself
        for (a, b), want in zip(program_pairs(seed), program_tree_distances(seed)):
            assert tree_edit_distance(a, b) == want
            assert tree_edit_distance(b, a) == want

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_batch_equals_reference_in_any_order(self, seed, caplog):
        # the programs and their mutants share most subtrees, so the batch
        # replays most keyroot blocks; neither the order of the pairs, nor
        # their direction, nor the other pairs in the batch change a value
        tree_pairs = program_pairs(seed)
        trees = list({id(t): t for pair in tree_pairs for t in pair}.values())
        at = {id(t): k for k, t in enumerate(trees)}
        pairs = [(at[id(x)], at[id(y)]) for x, y in tree_pairs]
        shuffled = [*pairs, *((b, a) for a, b in pairs)]
        np.random.default_rng(seed).shuffle(shuffled)
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            got, batches = zhang_shasha_batch(trees, shuffled)
        assert batches == _batch_counts(caplog)["batches"] > 1
        value = dict(zip(shuffled, got))
        want = list(program_tree_distances(seed))
        assert [value[a, b] for a, b in pairs] == want
        assert [value[b, a] for a, b in pairs] == want
        assert [zhang_shasha_batch(trees, [p])[0][0] for p in pairs] == want
        assert zhang_shasha_batch(trees, []) == ([], 0)

    def test_batch_logs_one_debug_line(self, caplog):
        # x = f(a(b), a(b)) has keyroots a(b) and f; z = c(d) has keyroot c
        x = node("f", node("a", node("b")), node("a", node("b")))
        trees = [x, x, node("c", node("d"))]
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            assert zhang_shasha_batch(trees, [(0, 1), (1, 0), (2, 2)]) == ([0, 0, 0], 3)
        # subtrees b, a(b), x, d, c(d). Both x pairs give the blocks
        # (a(b), a(b)), (x, x), and (a(b), x) in each orientation, a(b) on
        # the rows of both, once; z gives (c(d), c(d)). a(b) and c(d) have no
        # inner keyroot inside, x has a(b): levels 0, 1, 2, one batch each, of
        # 2 + 2 + 5 row steps and 2x2 + 2x2, 2x5 + 2x5, 5x5 cells
        assert [r.getMessage() for r in caplog.records] == [
            "ted batch: 3 pairs, 5 distinct subtrees, 5 blocks, 3 levels, 3 batches, "
            "9 row steps, 1 td chunks, 53 of 53 padded block cells real"]

    def test_batch_logs_no_block_for_leaf_keyroots(self, caplog):
        # x = f(a(b), c) has keyroots c (a leaf) and f; y = g(d) has keyroot
        # g; e is one leaf. Only the inner pair (g, f) runs a block, with y
        # on the rows: trees 0 and 1 are both x, so it runs once
        x, y = node("f", node("a", node("b")), node("c")), node("g", node("d"))
        trees = [x, x, y, node("e")]
        pairs = [(0, 2), (1, 2), (0, 3), (3, 2)]
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            assert zhang_shasha_batch(trees, pairs) == ([4, 4, 4, 2], 1)
        # subtrees b, a(b), c, x, d, y, e
        assert [r.getMessage() for r in caplog.records] == [
            "ted batch: 4 pairs, 7 distinct subtrees, 1 blocks, 1 levels, 1 batches, "
            "2 row steps, 1 td chunks, 8 of 8 padded block cells real"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_single_node_against_programs_in_closed_form(self, seed):
        # node(l) is |T| - 1 + [l not in T] from any tree T, either way
        # round: the values a leaf keyroot takes without a block
        corpus = generate_corpus(CorpusSpec(n_items=12, n_levels=9, seed=seed))
        for program in (it.solutions[0].ast for it in corpus.items):
            labels = set(iter_labels(program))
            leaf = program.children[-1]
            while leaf.children:
                leaf = leaf.children[-1]
            for label, absent in ((program.label, 0), (leaf.label, 0), ("absent", 1)):
                want = node_count(program) - 1 + absent
                assert (label not in labels) == absent
                single = node(label)
                assert tree_edit_distance(program, single) == want
                assert tree_edit_distance(single, program) == want
                assert reference_tree_edit_distance(program, single) == want
                assert reference_tree_edit_distance(single, program) == want

    def test_flat_program_of_leaf_keyroots(self):
        # every keyroot of a flat program but its root is a leaf
        flat = node("program", *map(node, ("move", "left", "move", "shoot", "right", "move")))
        _, leftmost, keyroots = tree_form(flat)
        assert [k for k in keyroots if leftmost[k] < k] == [6]
        others = [
            node("program", *map(node, ("left", "move", "right"))),
            node("program", node("repeat_3", node("move"), node("left")), node("shoot")),
            node("move"),
            node("program"),
        ]
        for other in others:
            want = reference_tree_edit_distance(flat, other)
            assert want == reference_tree_edit_distance(other, flat)
            assert tree_edit_distance(flat, other) == tree_edit_distance(other, flat) == want
        assert tree_edit_distance(flat, node("move")) == 6
        assert tree_edit_distance(flat, node("program")) == 6
        assert tree_edit_distance(node("jump"), flat) == 7

    def test_one_batch_mixes_leaf_and_inner_keyroots(self, caplog):
        # single nodes, flat programs, synthetic programs and random trees
        # over few labels, every ordered pair in one batch
        rng = np.random.default_rng(5)
        corpus = generate_corpus(CorpusSpec(n_items=3, n_levels=3, seed=3))
        trees = [
            node("move"), node("left"), node("program"),
            node("program", *map(node, ("move", "left", "move"))),
            node("program", *map(node, ("shoot", "move"))),
            *(it.solutions[0].ast for it in corpus.items),
            *(random_tree(rng, max_nodes=8) for _ in range(20)),
        ]
        ordered = [(a, b) for a in range(len(trees)) for b in range(len(trees))]
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            got, batches = zhang_shasha_batch(trees, ordered)
        assert batches == _batch_counts(caplog)["batches"] > 1
        assert got == [reference_tree_edit_distance(trees[a], trees[b]) for a, b in ordered]

    def test_keyroots_are_the_root_and_later_children(self, caplog):
        # t = a(b(c, d), e), postorder c d b e a: its keyroots are d, e and
        # a. b is a's first child, so not a keyroot though inner; d and e
        # are leaves. u = f(g, h(i)) has inner keyroots f and h(i). So t
        # against u runs the blocks (a, f) and (a, h(i)), either way round,
        # and t against itself the block (a, a)
        t = node("a", node("b", node("c"), node("d")), node("e"))
        u = node("f", node("g"), node("h", node("i")))
        assert tree_form(t)[2] == (1, 3, 4)
        for pairs, blocks in (([(0, 1)], 2), ([(1, 0)], 2), ([(0, 0)], 1)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
                got, _ = zhang_shasha_batch([t, u], pairs)
            assert got == reference_zhang_shasha_batch([t, u], pairs)[0]
            assert _batch_counts(caplog)["blocks"] == blocks

    def test_deep_chain_in_a_batch(self):
        # interning the subtrees of a 5000-deep chain needs no recursion either
        chain = node("leaf")
        for _ in range(5000):
            chain = node("while_x", chain)
        trees = [chain, node("leaf"), node("while_x", node("leaf"))]
        got, _ = zhang_shasha_batch(trees, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)])
        assert got == [5000, 5000, 4999, 4999, 1]

    def test_equals_reference_on_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            t1 = random_tree(rng, max_nodes=12)
            t2 = random_tree(rng, max_nodes=12)
            assert tree_edit_distance(t1, t2) == reference_tree_edit_distance(t1, t2)


def _workloads():
    # loaded by path: perfbench is not a package
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _left_comb(prefix: str, depth: int):
    """p0(p1(...(a, a)..., a), a) with distinct labels: depth + 2 distinct
    subtrees, and one inner keyroot, the root, whose leftmost path is the
    whole spine."""
    t = node("a")
    for k in range(depth):
        t = node(f"{prefix}{k}", t, node("a"))
    return t


def _batch_counts(caplog) -> dict[str, int]:
    (line,) = [r.getMessage() for r in caplog.records]
    counts = {name: int(count) for count, name in re.findall(r"(\d+) ([a-z ]+?),", line)}
    real, padded = re.search(r"(\d+) of (\d+) padded block cells real$", line).groups()
    return counts | {"real cells": int(real), "padded cells": int(padded)}


class TestBatchKernel:
    """zhang_shasha_batch equals the earlier kernel it replaced,
    oracles.reference_zhang_shasha_batch, at the benchmark's sizes and at
    the limits of its own batching, with inputs sized from its module
    constants."""

    @pytest.mark.parametrize("seed", [1, 11])
    @pytest.mark.parametrize("workload", ["edit-sample", "edit-multi"])
    def test_equals_reference_on_benchmark_corpora(self, workload, seed, caplog):
        w = _workloads()
        corpus = w.build_corpus(w.WORKLOADS[workload], seed, generate_corpus)
        trees = [s.ast for it in corpus.items for s in it.solutions]
        pairs = [(a, b) for a in range(len(trees)) for b in range(len(trees))]
        np.random.default_rng(seed).shuffle(pairs)
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            got, batches = zhang_shasha_batch(trees, pairs)
        assert got == reference_zhang_shasha_batch(trees, pairs)[0]
        assert batches == _batch_counts(caplog)["batches"] > 1
        value = dict(zip(pairs, got))
        assert all(value[a, b] == value[b, a] for a, b in pairs)
        if (workload, seed) == ("edit-sample", 1):
            # the kernel's whole work, which a wall time cannot resolve
            assert [r.getMessage() for r in caplog.records] == [
                "ted batch: 576 pairs, 199 distinct subtrees, 17136 blocks, 3 levels, "
                "29 batches, 547 row steps, 1 td chunks, 1664599 of 1761839 padded block "
                "cells real"]

    def test_deep_right_comb_of_keyroots(self, caplog):
        # x(a, x(a, ... x(a, a))): every x is the root or a right child, so
        # a keyroot, 3000 of them nested. From a comb of depth n, a single a
        # is 2n deletions away, a single z one relabel more, and x(a) 2n - 1
        # deletions
        def comb(depth: int):
            t = node("a")
            for _ in range(depth):
                t = node("x", node("a"), t)
            return t

        smalls = [node("a"), node("z"), node("x", node("a"))]
        pairs = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]
        shallow = [comb(40), *smalls]
        assert reference_zhang_shasha_batch(shallow, pairs)[0] == [80, 81, 79] * 2
        assert zhang_shasha_batch(shallow, pairs)[0] == [80, 81, 79] * 2
        trees = [comb(3000), *smalls]
        _, leftmost, keyroots = tree_form(trees[0])
        assert sum(leftmost[k] < k for k in keyroots) == 3000
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            got, _ = zhang_shasha_batch(trees, pairs)
        assert got == [6000, 6001, 5999] * 2
        # only x(a) has an inner keyroot: one block with each keyroot of the
        # comb, of 3, 5, ... 6001 nodes, x(a) on its 2 rows. With the comb on
        # the rows, the same blocks would take 3000 x 3002 row steps
        counts = _batch_counts(caplog)
        assert counts["blocks"] == 3000
        assert counts["row steps"] == 2 * 3000
        assert counts["padded cells"] == counts["real cells"] == 2 * sum(range(3, 6002, 2))

    def test_memory_is_linear_in_a_big_tree_against_a_small_one(self):
        # a comb of 10000 distinct subtrees against a leaf and against x(a):
        # a table over the subtrees of both trees would take 4 x 10002^2
        # bytes, about 400 MB
        big = _left_comb("W", 10000)
        for small in (node("a"), node("x", node("a"))):
            for pair in [(0, 1), (1, 0)]:
                tracemalloc.start()
                try:
                    (got,), _ = zhang_shasha_batch([big, small], [pair])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert got == 20000
                assert peak < 1024 * node_count(big)

    def test_memory_of_a_lone_big_block(self):
        # two chains of 1000 distinct labels: one root block of 1000 x 1001
        # padded cells, over _BLOCK_CELLS and so admitted alone, every cell a
        # path cell. It peaks at about 41 bytes a cell, td's 4 included
        def chain(prefix: str):
            t = node(f"{prefix}0")
            for k in range(1, 1000):
                t = node(f"{prefix}{k}", t)
            return t

        trees = [chain("a"), chain("b")]
        tracemalloc.start()
        try:
            (got,), batches = zhang_shasha_batch(trees, [(0, 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got, batches) == (1000, 1)
        assert peak < 48 * 1000 * 1001

    def test_leaf_rows_fill_in_slices(self, monkeypatch):
        # two flat trees of 1000 distinct leaves: a td of 1001 x 1001 int32
        # entries, about 4 MiB, all of it leaf rows and columns. Filled
        # through int64 arrays of all leaves x subtrees at once, it would
        # peak at about 27 MiB. The peak is read as the root block's sweep
        # starts, which holds more than the fill
        trees = [node("r", *(node(f"a{k}") for k in range(1000))),
                 node("s", *(node(f"b{k}") for k in range(1000)))]
        peaks = []
        sweep = editdist._sweep

        def measured(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return sweep(*args)

        monkeypatch.setattr(editdist, "_sweep", measured)
        tracemalloc.start()
        try:
            (got,), _ = zhang_shasha_batch(trees, [(0, 1)])
        finally:
            tracemalloc.stop()
        assert got == 1001
        assert peaks[0] < 8 * 2**20

    def test_pair_over_the_table_budget(self, monkeypatch):
        # r(a, b) has 3 distinct subtrees and s(c, d, e) 4: 12 table entries,
        # checked before any is allocated
        trees = [node("r", node("a"), node("b")), node("s", node("c"), node("d"), node("e"))]
        monkeypatch.setattr(editdist, "_TD_BUDGET", 12)
        assert zhang_shasha_batch(trees, [(0, 1), (1, 0)])[0] == [4, 4]
        monkeypatch.setattr(editdist, "_TD_BUDGET", 11)
        with pytest.raises(ItemsimError, match="trees of 3 and 4 distinct subtrees needs a "
                                               "table of 12 entries, over the budget of 11"):
            zhang_shasha_batch(trees, [(0, 1)])

    def test_batches_blocks_and_chunks_past_the_module_limits(self, caplog):
        rng = np.random.default_rng(8)
        # two trees whose root block alone has more cells than a batch may
        big = isqrt(_BLOCK_CELLS) + 1
        trees = [random_tree_of_size(rng, big), random_tree_of_size(rng, big)]
        assert all(t.children for t in trees)  # the roots are inner keyroots
        # many small trees: their blocks fill each level many times over
        trees += [random_tree_of_size(rng, int(rng.integers(12, 24))) for _ in range(16)]
        pairs = [(a, b) for a in range(2, len(trees)) for b in range(2, len(trees))]
        pairs += [(0, 1), (1, 0), (0, 2), (3, 1)]
        # pairs of trees over labels of their own, so that no two pairs share
        # a subtree: a tree of 48 nodes over 4 labels has about 26 distinct
        # subtrees, so the td of k of these pairs has about (26 k)^2 entries,
        # over _TD_ENTRIES from k of about isqrt(_TD_ENTRIES) / 26 on
        for k in range(3 * isqrt(_TD_ENTRIES) // 40):
            labels = (f"{k}a", f"{k}b", f"{k}c", f"{k}d")
            trees += [random_tree_of_size(rng, 48, labels), random_tree_of_size(rng, 48, labels)]
            pairs += [(len(trees) - 2, len(trees) - 1), (len(trees) - 1, len(trees) - 2)]
        np.random.default_rng(9).shuffle(pairs)
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            got, _ = zhang_shasha_batch(trees, pairs)
        assert got == reference_zhang_shasha_batch(trees, pairs)[0]
        counts = _batch_counts(caplog)
        assert counts["batches"] > counts["levels"] + 10
        assert counts["td chunks"] >= 3


@pytest.mark.parametrize("bound, dtype", [((1 << 15) - 1, np.int16), (1 << 15, np.int32),
                                          ((1 << 31) - 1, np.int32), (1 << 31, np.int64)])
def test_int_type_holds_its_bound(bound, dtype):
    # one rule for nw's cells and TED's td index: the narrowest of int16,
    # int32 and int64 that holds -bound and bound
    assert editdist._int_type(bound) is dtype
    assert np.iinfo(dtype).min <= -bound and bound <= np.iinfo(dtype).max


class TestNeedlemanWunsch:
    def test_identical_pair(self):
        assert needleman_wunsch(["A", "B"], ["A", "B"]) == 2.0

    def test_single_token_against_empty(self):
        assert needleman_wunsch(["A"], []) == -1.0
        assert needleman_wunsch([], ["A"]) == -1.0

    def test_one_mismatch_in_three(self):
        assert needleman_wunsch(["A", "B", "C"], ["A", "D", "C"]) == 1.0

    def test_empty_pair(self):
        assert needleman_wunsch([], []) == 0.0

    def test_self_alignment_scores_length(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = random_sequence(rng)
            assert needleman_wunsch(a, a) == float(len(a))

    def test_custom_scoring(self):
        s = NwScoring(match=2.0, mismatch=0.0, gap=-3.0)
        # align B with B (2) and gap out A (-3)
        assert needleman_wunsch(["A", "B"], ["B"], s) == -1.0

    def test_negative_zero_scores_are_stored_as_zero(self):
        s = NwScoring(-0.0, -0.0, -0.0)
        assert not any(np.signbit([s.match, s.mismatch, s.gap]))
        assert s == NwScoring(0.0, 0.0, 0.0)

    def test_scores_must_be_finite(self):
        with pytest.raises(ItemsimError, match="finite"):
            NwScoring(gap=float("-inf"))
        with pytest.raises(ItemsimError, match="finite"):
            NwScoring(match=float("nan"))

    @pytest.mark.parametrize("scoring", [*SCORINGS, NwScoring(1.0, -0.5, -0.0)],
                             ids=[*SCORING_IDS, "negative-zero-gap"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_reference_on_synthetic_programs(self, seed, scoring):
        # action sequences of about 20-110 actions (loops unrolled at most
        # 3 times keep the scalar reference quick), every pair in both
        # orders: one batched call over all of them, and one-pair calls.
        # The -0.0 gap is stored as +0.0, so that scoring is dyadic
        seqs, pairs = [], []
        for x, y in program_pairs(seed):
            seqs += [action_sequence(x, unroll_cap=3), action_sequence(y, unroll_cap=3)]
            pairs += [(len(seqs) - 2, len(seqs) - 1), (len(seqs) - 1, len(seqs) - 2)]
        want = [reference_needleman_wunsch(seqs[a], seqs[b], scoring) for a, b in pairs]
        got, _ = needleman_wunsch_batch(seqs, pairs, scoring)
        assert all(map(same_float, got, want))
        for (a, b), w in list(zip(pairs, want))[-24:]:  # the mutant pairs
            assert same_float(needleman_wunsch(seqs[a], seqs[b], scoring), w)

    @pytest.mark.parametrize("scoring", [
        *SCORINGS,
        # every score a zero of either sign, each stored as +0.0, so that
        # every cell is +0.0, the empty pair's too
        NwScoring(0.0, -0.0, -0.0), NwScoring(-0.0, 0.0, -0.0), NwScoring(-0.0, -0.0, 0.0),
    ], ids=[*SCORING_IDS, "zeros-1", "zeros-2", "zeros-3"])
    def test_equals_reference_on_random_sequences(self, scoring):
        rng = np.random.default_rng(9)
        seqs = [random_sequence(rng, max_len=6, alphabet=("x", "y")) for _ in range(40)]
        pairs = [(a, b) for a in range(len(seqs)) for b in range(len(seqs))]
        want = [reference_needleman_wunsch(seqs[a], seqs[b], scoring) for a, b in pairs]
        got, _ = needleman_wunsch_batch(seqs, pairs, scoring)
        assert all(map(same_float, got, want))
        assert all(same_float(needleman_wunsch(seqs[a], seqs[b], scoring), w)
                   for (a, b), w in zip(pairs, want))

    @pytest.mark.parametrize("scoring", SCORINGS, ids=SCORING_IDS)
    def test_empty_and_single_token_pairs(self, scoring):
        # len(a) + len(b) <= 1; the empty pair scores 0 * gap, -0.0 under a
        # negative gap and 0.0 under a positive one
        seqs = [(), ("x",), ("y",)]
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (0, 2)]
        want = [reference_needleman_wunsch(seqs[a], seqs[b], scoring) for a, b in pairs]
        assert np.signbit(want[0]) == (scoring.gap < 0)
        got, batches = needleman_wunsch_batch(seqs, pairs, scoring)
        assert batches == 1
        assert all(map(same_float, got, want))
        assert needleman_wunsch_batch(seqs, [], scoring) == ([], 0)

    @pytest.mark.parametrize("scoring", SCORINGS, ids=SCORING_IDS)
    def test_one_batch_of_very_unequal_lengths(self, scoring):
        rng = np.random.default_rng(10)
        seqs = [(), *(tuple(rng.choice(list("mlrs"), size=n)) for n in (1, 2, 7, 150, 220))]
        pairs = [(a, b) for a in range(len(seqs)) for b in range(len(seqs))]
        want = [reference_needleman_wunsch(seqs[a], seqs[b], scoring) for a, b in pairs]
        got, batches = needleman_wunsch_batch(seqs, pairs, scoring)
        assert batches == 1
        assert all(map(same_float, got, want))

    @pytest.mark.parametrize("s", [NwScoring(1.0, -0.5, -0.7), NwScoring(3.0, -2.0, -5.0)],
                             ids=["float-wavefront", "integer-wavefront"])
    def test_many_pairs_split_into_batches(self, s):
        # every pair of 24 sequences of 25-40 tokens, and each of them
        # against 40 of 0-4 tokens both ways, repeated until they hold more
        # padded positions than one batch does: a pair takes at least
        # len a + len b + 2
        rng = np.random.default_rng(11)
        seqs = [tuple(rng.choice(list("mlrs"), size=int(rng.integers(low, high))))
                for low, high in [(25, 41)] * 24 + [(0, 5)] * 40]
        pairs = [(a, b) for a in range(24) for b in range(24)]
        pairs += [p for a in range(24) for b in range(24, 64) for p in ((a, b), (b, a))]
        want = {(a, b): reference_needleman_wunsch(seqs[a], seqs[b], s) for a, b in pairs}
        pairs *= _BATCH_POSITIONS // sum(len(seqs[a]) + len(seqs[b]) + 2 for a, b in pairs) + 1
        got, batches = needleman_wunsch_batch(seqs, pairs, s)
        assert batches > 1
        assert all(same_float(g, want[p]) for g, p in zip(got, pairs))

    @pytest.mark.parametrize("scoring, path", [
        *((s, "integer wavefront" if i in INTEGER_PATH else "float wavefront")
          for s, i in zip(SCORINGS, SCORING_IDS)),
        (NwScoring(0.0, -1.0, -1.0), "integer wavefront"),
        (NwScoring(1.0, -1.0, -0.0), "integer wavefront"),
        (NwScoring(1e308, -1e308, -1e308), "float wavefront"),
    ], ids=[*SCORING_IDS, "zero-match", "zero-gap", "huge"])
    def test_debug_line_names_the_path(self, scoring, path, caplog):
        # exact in integers (under the bound, a -0.0 score taken as +0.0) or not
        seqs = [("x", "y", "x"), ("y", "y"), ()]
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            needleman_wunsch_batch(seqs, [(0, 1), (2, 0), (1, 1)], scoring)
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.startswith(f"nw batch: 3 pairs, {path}, 1 batches, ")

    def test_debug_line_counts(self, caplog):
        # (y, y) goes on the rows against (x, y, x) and (y, y), and ()
        # against (x, y, x). In integers and in floats the wavefront runs 6
        # diagonals of the batch's 2 x 3 rectangle, 3 + 6 + 4 + 1 cells
        # over the pairs still running
        seqs = [("x", "y", "x"), ("y", "y"), ()]
        pairs = [(0, 1), (2, 0), (1, 1)]
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            needleman_wunsch_batch(seqs, pairs)
            needleman_wunsch_batch(seqs, pairs, NwScoring(1.0, -0.5, -0.7))
        assert [r.getMessage() for r in caplog.records] == [
            "nw batch: 3 pairs, integer wavefront, 1 batches, 6 diagonal steps, "
            "10 of 14 padded cells real",
            "nw batch: 3 pairs, float wavefront, 1 batches, 6 diagonal steps, "
            "10 of 14 padded cells real",
        ]

    @pytest.mark.parametrize("bits", [15, 31], ids=["int16", "int32"])
    def test_scores_near_each_int_dtype_limit(self, bits):
        # a batch of sequences of up to 100 tokens runs in int16 while
        # (100 + 100 + 3) max|score| < 2**15, then in int32: limit // 203
        # is the last top of the narrower batch, limit // 203 + 1 the first
        # of the wider one. Under (-top, top // 2, top) all gaps win, and
        # the 100 x 100 cells reach 200 top, past the limit from
        # limit // 200 + 1 on. The second batch holds (3, 3) beside eight
        # 100 x 100 pairs: it finishes after 6 diagonals, but fewer than an
        # eighth of the columns then have, so its column runs on to the end
        # of the padded 100 x 100 rectangle, to the same extremes
        rng = np.random.default_rng(13)
        seqs = [tuple(rng.choice(list("xy"), size=n)) for n in (100, 100, 60, 3)]
        seqs.append(seqs[0])
        every = [(a, b) for a in range(len(seqs)) for b in range(len(seqs))]
        limit = 2**bits - 1
        for top in (limit // 203, limit // 203 + 1, limit // 200 + 1):
            for s in (NwScoring(float(top), float(-top), float(-top)),
                      NwScoring(float(-top), float(top // 2), float(top))):
                for pairs in (every, [(0, 1), (1, 0), (0, 4), (4, 1)] * 2 + [(3, 3)]):
                    got, batches = needleman_wunsch_batch(seqs, pairs, s)
                    assert batches == 1
                    want = [reference_needleman_wunsch(seqs[a], seqs[b], s) for a, b in pairs]
                    assert all(map(same_float, got, want))

    @pytest.mark.parametrize("over", [0, 1], ids=["under", "over"])
    def test_scores_at_the_exactness_bound(self, over, caplog):
        # the longest shorter sequence (40; the 60-token self pair is left
        # out) plus the longest longer one (60) times the largest score
        # magnitude: just under 2**53, the integer wavefront holds every
        # score exactly, in int64, near 2**53; one more, the float one runs
        rng = np.random.default_rng(12)
        seqs = [tuple(rng.choice(list("xy"), size=n)) for n in (60, 40, 20, 7, 1, 0)]
        pairs = [(a, b) for a in range(len(seqs)) for b in range(len(seqs)) if a or b]
        top = (2**53 - 1) // 100 + over
        assert (100 * top < 2**53) != over
        s = NwScoring(float(top // 3), float(-(top // 2)), float(-top))
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            got, _ = needleman_wunsch_batch(seqs, pairs, s)
        path = "float wavefront" if over else "integer wavefront"
        assert [r.getMessage().split(", ")[1] for r in caplog.records] == [path]
        want = [reference_needleman_wunsch(seqs[a], seqs[b], s) for a, b in pairs]
        assert all(map(same_float, got, want))
        assert min(want) < -2**52

    def test_overflow_gives_infinities_without_warnings(self):
        seqs = [("x",) * 3, ("y",) * 3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _ = needleman_wunsch_batch(seqs, [(0, 0), (0, 1)], NwScoring(1e308, -1e308, -1e308))
        assert got == [float("inf"), float("-inf")]

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(6)
        s = NwScoring(match=1.5, mismatch=-0.5, gap=-1.25)
        for _ in range(30):
            a = random_sequence(rng, max_len=6, alphabet=("x", "y"))
            b = random_sequence(rng, max_len=6, alphabet=("x", "y"))
            assert needleman_wunsch(a, b) == pytest.approx(oracle_alignment(a, b), abs=1e-12)
            assert needleman_wunsch(a, b, s) == pytest.approx(oracle_alignment(a, b, s), abs=1e-12)
