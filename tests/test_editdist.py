"""Sequence and tree edit distances against hand values and brute force."""

import logging
import warnings
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from itemsim import (
    CorpusSpec,
    ItemsimError,
    NwScoring,
    action_sequence,
    canonize,
    generate_corpus,
    levenshtein,
    needleman_wunsch,
    node,
    tree_edit_distance,
)
from itemsim.editdist import needleman_wunsch_batch, tree_form, zhang_shasha_batch

from conftest import random_sequence, random_tree, top_level_mutant
from oracles import (
    oracle_alignment,
    oracle_levenshtein,
    oracle_tree_edit,
    reference_levenshtein,
    reference_needleman_wunsch,
    reference_tree_edit_distance,
)

# integer, fractional, and gaps beating matches (match < 2 * gap)
SCORINGS = [NwScoring(), NwScoring(1.0, -0.5, -0.7), NwScoring(-1.0, -2.0, -0.3)]
SCORING_IDS = ["integer", "fractional", "gaps-win"]


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
        # canonical token sequences of about 30-100 tokens, in both orders
        for x, y in program_pairs(seed):
            a, b = canonize(x), canonize(y)
            want = reference_levenshtein(a, b)
            assert levenshtein(a, b) == want
            assert levenshtein(b, a) == want

    def test_equals_reference_beyond_one_machine_word(self):
        # the bit vectors are as long as the longer input: 65-300 positions
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
    def test_one_batch_equals_reference_in_any_order(self, seed):
        # the programs and their mutants share most subtrees, so the batch
        # replays most keyroot blocks; neither the order of the pairs, nor
        # their direction, nor the other pairs in the batch change a value
        tree_pairs = program_pairs(seed)
        trees = list({id(t): t for pair in tree_pairs for t in pair}.values())
        at = {id(t): k for k, t in enumerate(trees)}
        pairs = [(at[id(x)], at[id(y)]) for x, y in tree_pairs]
        forms = [tree_form(t) for t in trees]
        shuffled = [*pairs, *((b, a) for a, b in pairs)]
        np.random.default_rng(seed).shuffle(shuffled)
        got, batches = zhang_shasha_batch(forms, shuffled)
        assert batches == 1
        value = dict(zip(shuffled, got))
        want = list(program_tree_distances(seed))
        assert [value[a, b] for a, b in pairs] == want
        assert [value[b, a] for a, b in pairs] == want
        assert [zhang_shasha_batch(forms, [p])[0][0] for p in pairs] == want
        assert zhang_shasha_batch(forms, []) == ([], 0)

    def test_batch_logs_one_debug_line(self, caplog):
        # x = f(a(b), a(b)) has keyroots a(b) and f; z = c(d) has keyroot c
        x = node("f", node("a", node("b")), node("a", node("b")))
        forms = [tree_form(x), tree_form(x), tree_form(node("c", node("d")))]
        with caplog.at_level(logging.DEBUG, logger="itemsim.editdist"):
            assert zhang_shasha_batch(forms, [(0, 1), (1, 0), (2, 2)]) == ([0, 0, 0], 1)
        # subtrees b, a(b), x, d, c(d); the first x pair computes and stores
        # its four blocks, the second replays them; c(d) is a keyroot once,
        # so its block is not stored
        assert [r.getMessage() for r in caplog.records] == [
            "ted batch: 3 pairs, 5 distinct subtrees, 5 blocks computed, 4 replayed, 4 stored"]

    def test_deep_chain_in_a_batch(self):
        # interning the subtrees of a 5000-deep chain needs no recursion either
        chain = node("leaf")
        for _ in range(5000):
            chain = node("while_x", chain)
        forms = [tree_form(chain), tree_form(node("leaf")), tree_form(node("while_x", node("leaf")))]
        got, _ = zhang_shasha_batch(forms, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)])
        assert got == [5000, 5000, 4999, 4999, 1]

    def test_equals_reference_on_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            t1 = random_tree(rng, max_nodes=12)
            t2 = random_tree(rng, max_nodes=12)
            assert tree_edit_distance(t1, t2) == reference_tree_edit_distance(t1, t2)


class TestTreeForm:
    def test_postorder_leftmost_leaves_and_keyroots(self):
        # a(b(c, d), e): postorder c d b e a
        t = node("a", node("b", node("c"), node("d")), node("e"))
        labels, leftmost, keyroots = tree_form(t)
        assert labels == ("c", "d", "b", "e", "a")
        assert leftmost == (0, 1, 0, 3, 0)
        assert keyroots == (1, 3, 4)

    def test_deep_chain_needs_no_recursion(self):
        t = node("leaf")
        for _ in range(5000):
            t = node("while_x", t)
        labels, leftmost, keyroots = tree_form(t)
        assert len(labels) == 5001
        assert set(leftmost) == {0}
        assert keyroots == (5000,)

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

    def test_scores_must_be_finite(self):
        with pytest.raises(ItemsimError, match="finite"):
            NwScoring(gap=float("-inf"))
        with pytest.raises(ItemsimError, match="finite"):
            NwScoring(match=float("nan"))

    @pytest.mark.parametrize("scoring", SCORINGS, ids=SCORING_IDS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_reference_on_synthetic_programs(self, seed, scoring):
        # action sequences of about 20-110 actions (loops unrolled at most
        # 3 times keep the scalar reference quick), every pair in both
        # orders: one batched call over all of them, and one-pair calls
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
        # every score a zero of either sign: cells tie between -0.0 and 0.0,
        # and the first candidate in max() order must win
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
        # len(a) + len(b) <= 1; the empty pair scores 0 * gap, -0.0 here
        seqs = [(), ("x",), ("y",)]
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (0, 2)]
        want = [reference_needleman_wunsch(seqs[a], seqs[b], scoring) for a, b in pairs]
        assert np.signbit(want[0])
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

    def test_many_pairs_split_into_batches(self):
        rng = np.random.default_rng(11)
        seqs = [tuple(rng.choice(list("mlrs"), size=int(rng.integers(25, 41))))
                for _ in range(24)]
        pairs = [(a, b) for a in range(len(seqs)) for b in range(len(seqs))]
        s = NwScoring(1.0, -0.5, -0.7)
        got, batches = needleman_wunsch_batch(seqs, pairs, s)
        assert batches > 1
        assert all(same_float(g, reference_needleman_wunsch(seqs[a], seqs[b], s))
                   for g, (a, b) in zip(got, pairs))

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
