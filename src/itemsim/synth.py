"""Seeded synthetic corpora with ground-truth level labels, plus a matching
performance-log generator, for evaluation without real course data.

Levels own disjoint concept sets (distinct repeat counts, conditions, and
loop guards); item solutions draw from their level's concepts with
probability 0.8 and from the shared base commands otherwise, so items of
one level look more alike than items across levels. Statements are drawn
from a shared vocabulary independently of the solutions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from itertools import compress
from numbers import Integral, Real

import numpy as np

from .corpus import Corpus, Item, PerformanceTable, Solution, WorldSpec, check_table_budget, is_kind
from .errors import ItemsimError
from .robot import BASE_COMMANDS
from .tree import AstNode, node

CONCEPT_PURITY = 0.8

# statement and body shapes; counts are deliberately heavy tailed so raw
# counts are noisy while log-compressed counts stay well behaved
_PROGRAM_LEN = (8, 13)
_BODY_LEN = (1, 4)
_BODY_TAIL_LEN = (6, 15)
_BODY_TAIL_P = 0.25
_WORD_REPEAT_P = 0.5

_WORLD_LEGEND = {"D": "diamond", "M": "meteorite", "W": "wormhole"}


def _check_types(spec) -> None:
    """A field with an integer default takes an integer, the others any real
    number; a boolean is neither."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        kind, what = (Integral, "an integer") if type(f.default) is int else (Real, "a number")
        if not is_kind(value, kind):
            raise ItemsimError(f"{f.name} must be {what}")


@dataclass(frozen=True)
class CorpusSpec:
    n_items: int = 45
    n_levels: int = 9
    concepts_per_level: int = 3
    statement_vocab: int = 40
    statement_len: int = 40
    noise_tokens: int = 3
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        for field_name in ("n_items", "n_levels", "concepts_per_level",
                           "statement_vocab", "statement_len"):
            if getattr(self, field_name) < 1:
                raise ItemsimError(f"{field_name} must be positive")
        if self.noise_tokens < 0:
            raise ItemsimError("noise_tokens must be non-negative")
        if self.seed < 0:
            raise ItemsimError("seed must be non-negative")
        if self.n_levels > self.n_items:
            raise ItemsimError("n_levels cannot exceed n_items")


@dataclass(frozen=True)
class PerfSpec:
    n_learners: int = 100
    solve_prob: float = 1.0
    skill_sd: float = 1.0
    difficulty_sd: float = 0.3
    noise_sd: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.n_learners < 1:
            raise ItemsimError("n_learners must be positive")
        if self.seed < 0:
            raise ItemsimError("seed must be non-negative")
        if not 0 < self.solve_prob <= 1:
            raise ItemsimError("solve_prob must be in (0, 1]")
        for field_name in ("skill_sd", "difficulty_sd", "noise_sd"):
            v = getattr(self, field_name)
            if not 0 <= v <= sys.float_info.max:  # also rejects nan and ints beyond float
                raise ItemsimError(f"{field_name} must be finite and non-negative")


def _level_concepts(level: int, per_level: int) -> list[str]:
    """Construct labels characteristic of one level; globally unique so
    levels stay distinguishable by keyword features."""
    labels = []
    for j in range(per_level):
        g = level * per_level + j
        kind = g % 3
        if kind == 0:
            labels.append(f"repeat_{g + 2}")
        elif kind == 1:
            labels.append(f"if_c{g}")
        else:
            labels.append(f"while_w{g}")
    return labels


def _random_command(rng: np.random.Generator) -> AstNode:
    return node(BASE_COMMANDS[int(rng.integers(len(BASE_COMMANDS)))])


def _body_length(rng: np.random.Generator) -> int:
    if rng.random() < _BODY_TAIL_P:
        return int(rng.integers(*_BODY_TAIL_LEN))
    return int(rng.integers(*_BODY_LEN))


def _random_program(rng: np.random.Generator, concepts: list[str], length: int) -> AstNode:
    """Concept constructs get freshly randomized command bodies, so the base
    commands carry no level signal; only the construct labels do."""
    children = []
    for _ in range(length):
        if rng.random() < CONCEPT_PURITY:
            label = concepts[int(rng.integers(len(concepts)))]
            body = [_random_command(rng) for _ in range(_body_length(rng))]
            children.append(node(label, *body))
        else:
            children.append(_random_command(rng))
    return node("program", *children)


def _random_statement(rng: np.random.Generator, vocab: list[str], length: int,
                      noise_tokens: int) -> str:
    tokens: list[str] = []
    for _ in range(length):
        if tokens and rng.random() < _WORD_REPEAT_P:
            tokens.append(tokens[-1])
        else:
            tokens.append(vocab[int(rng.integers(len(vocab)))])
    tokens += [f"z{int(rng.integers(10 ** 6)):06d}" for _ in range(noise_tokens)]
    return " ".join(tokens)


def _random_world(rng: np.random.Generator) -> WorldSpec:
    rows = int(rng.integers(3, 6))
    cols = int(rng.integers(3, 6))
    codes = list(_WORLD_LEGEND)
    grid = []
    for _ in range(rows):
        row = ""
        for _ in range(cols):
            if rng.random() < 0.3:
                row += codes[int(rng.integers(len(codes)))]
            else:
                row += "."
        grid.append(row)
    return WorldSpec(grid=tuple(grid), legend=dict(_WORLD_LEGEND))


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Corpus of n_items robot items split evenly over n_levels, with level
    labels attached and one sample solution per item."""
    rng = np.random.default_rng(spec.seed)
    width = max(3, len(str(spec.n_items - 1)))
    vocab = [f"word{v:02d}" for v in range(spec.statement_vocab)]
    items = []
    for i in range(spec.n_items):
        level = i * spec.n_levels // spec.n_items
        concepts = _level_concepts(level, spec.concepts_per_level)
        program = _random_program(rng, concepts, length=int(rng.integers(*_PROGRAM_LEN)))
        statement = _random_statement(rng, vocab, spec.statement_len, spec.noise_tokens)
        items.append(
            Item(
                id=f"item_{i:0{width}d}",
                statement_text=statement,
                world=_random_world(rng),
                command_limit=int(rng.integers(5, 40)),
                solutions=(Solution(ast=program, weight=1.0, kind="sample"),),
                level=level,
            )
        )
    return Corpus(tuple(items))


def level_partition(corpus: Corpus):
    """Manual-label partition from the items' level fields."""
    from .analysis import Partition

    levels = [it.level for it in corpus.items]
    if any(l is None for l in levels):
        raise ItemsimError("corpus items lack level labels")
    return Partition(item_ids=corpus.item_ids, labels=tuple(int(l) for l in levels))


def generate_performance(corpus: Corpus, spec: PerfSpec) -> PerformanceTable:
    """Log-normal solving times: log time = difficulty - skill + noise.

    Skill is drawn per (learner, level) rather than once per learner, so the
    true item-item correlation matrix is block structured: items of one level
    correlate through the shared skill component, items of different levels
    do not. A single global skill would make every pairwise correlation
    identical and leave nothing for stability analysis to detect. A table
    that load_performance would refuse as over its budget is an error,
    raised before the times are drawn, and so is a drawn time that is not
    finite and positive."""
    levels = level_partition(corpus).labels
    groups = sorted(set(levels))
    group_index = {g: gi for gi, g in enumerate(groups)}
    rng = np.random.default_rng(spec.seed)
    n_items = len(corpus)
    skills = rng.normal(0.0, spec.skill_sd, size=(spec.n_learners, len(groups)))
    difficulty = np.array(levels, dtype=np.float64) + rng.normal(0.0, spec.difficulty_sd, n_items)
    solved = rng.random((spec.n_learners, n_items)) < spec.solve_prob
    # learners and items without an attempt have no row or column in the
    # table, which must stay within the budget load_performance keeps
    rows, cols = solved.any(axis=1), solved.any(axis=0)
    check_table_budget(int(rows.sum()), int(cols.sum()), ItemsimError)
    noise = rng.normal(0.0, spec.noise_sd, size=(spec.n_learners, n_items))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        log_time = difficulty - skills[:, [group_index[l] for l in levels]] + noise
        times = np.exp(log_time[solved])
    bad = times[~(np.isfinite(times) & (times > 0))]
    if len(bad):
        raise ItemsimError(f"a drawn time of {bad[0]} s is not finite and positive: "
                           "skill_sd, difficulty_sd or noise_sd is too large")
    time_seconds = np.full(solved.shape, np.nan)
    time_seconds[solved] = times
    lwidth = max(4, len(str(spec.n_learners - 1)))
    learner_ids = [f"learner_{l:0{lwidth}d}" for l in np.flatnonzero(rows).tolist()]
    return PerformanceTable(
        learner_ids=tuple(learner_ids),
        item_ids=tuple(compress(corpus.item_ids, cols)),
        time_seconds=time_seconds[np.ix_(rows, cols)],
        success=np.where(solved, 1.0, np.nan)[np.ix_(rows, cols)],
    )
