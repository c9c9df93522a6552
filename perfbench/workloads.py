"""The three benchmark workloads: how their inputs are generated from a seed
and which CLI commands one pass runs.

analysis: seed `s` gives `CorpusSpec(seed=s)` and `PerfSpec(seed=s + 1)`.
Its work depends on sizes the spec fixes (240 items, 400 learners), so it
hardly varies with the seed.

edit-sample, edit-multi: the edit kernels' work depends on the sizes of a
few dozen random programs, so fresh programs per seed would move run_s far
more than any bound (the computed DP cells vary by 11-107% between seeds,
as interquartile range over median of 20 seeds). Their programs therefore
come from the default seed, and seed `s` varies everything that leaves the
edit work unchanged: statements, worlds and command limits come from
`CorpusSpec(seed=s)`, the pinned programs are dealt to the items in a seeded
order, and the four robot commands are renamed by a seeded bijection (edit
distances see labels only through equality). The default seed reproduces
`CorpusSpec(seed=1)` exactly.

This module imports itemsim lazily (inside functions) so that the parent
benchmark process never loads numpy or the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

EDIT_MEASURES = ["ted", "levenshtein", "nw", "bag/log+max+idf+weights/correlation"]

ANALYSIS_MEASURES = [
    "bag/log+max+idf+weights/correlation",
    "statement/none/cosine",
    "structural/max/euclidean",
    "perfcorr",
]

BAG = "bag/log+max+idf+weights/correlation"

# leaf commands of the robot language: what the edit-multi mutants insert
# and what a seed renames, so save_corpus still writes .robot source
ROBOT_COMMANDS = ("move", "left", "right", "shoot")

# weight of the exact learner copy of each sample; mutants draw 1..4
COPY_WEIGHT = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_items: int
    n_levels: int
    default_seed: int
    heldout_seed: int
    n_learners: int = 0  # 0: no performance data
    pinned_programs: bool = True  # programs from default_seed, see the module doc
    multi: bool = False  # learner variants, selector=all, aggregation=average

    def script(self, corpus: str, out: str) -> list[tuple[str, dict]]:
        """(subcommand, config) pairs of one pass, run in this order."""
        if self.name == "analysis":
            return [
                ("features", {"corpus": corpus, "source": "bag",
                              "transforms": ["log", "max", "idf", "weights"]}),
                ("sim", {"corpus": corpus, "measure": "perfcorr"}),
                ("meta-agree", {"corpus": corpus, "measures": ANALYSIS_MEASURES,
                                "methods": ["correlation", "top:10"]}),
                ("stability", {"corpus": corpus}),
                ("cluster", {"corpus": corpus, "measure": BAG, "k": 9, "runs": 10}),
                ("project", {"corpus": corpus, "projection": "mds", "measure": BAG, "dims": 2}),
                ("heatmap", {"matrix": str(Path(out) / "sim.csv"), "ordering": "hierarchical"}),
            ]
        cfg = {"corpus": corpus, "measures": EDIT_MEASURES, "methods": ["correlation", "top:3"]}
        if self.multi:
            cfg.update(selector="all", aggregation="average",
                       nw={"match": 1.0, "mismatch": -0.5, "gap": -0.7})
        return [("meta-agree", cfg)]

    def edit_params(self) -> dict:
        """Solution selector and NW scoring of the pass's edit measures, for
        the kernel replay and the work counts; empty when it has none."""
        if self.name == "analysis":
            return {}
        from itemsim.editdist import NwScoring

        if self.multi:
            return {"selector": "all", "nw_scoring": NwScoring(1.0, -0.5, -0.7)}
        return {"selector": "sample", "nw_scoring": NwScoring()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="edit-sample",
            why="single-solution items: item-pair edit kernels (ted, nw, levenshtein) "
                "take over 95% of the pass",
            n_items=24, n_levels=9, default_seed=1, heldout_seed=11,
        ),
        Workload(
            name="edit-multi",
            why="four solutions per item with duplicates, average aggregation and "
                "fractional NW scores: the same kernels used differently",
            n_items=6, n_levels=6, default_seed=1, heldout_seed=11, multi=True,
        ),
        Workload(
            name="analysis",
            why="no edit distances: performance correlation, split-half, top-n "
                "agreement, ordering, heatmap and corpus reloads",
            n_items=240, n_levels=9, default_seed=1, heldout_seed=11, n_learners=400,
            pinned_programs=False,
        ),
    )
}


def _mutant(program, rng):
    """Copy of a sample program with 1-3 random top-level edits: insert a
    command, delete a statement, or swap two neighbouring statements."""
    from itemsim.tree import node

    children = list(program.children)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(3))
        if op == 0:
            command = node(ROBOT_COMMANDS[int(rng.integers(len(ROBOT_COMMANDS)))])
            children.insert(int(rng.integers(len(children) + 1)), command)
        elif op == 1 and len(children) > 1:
            del children[int(rng.integers(len(children)))]
        elif op == 2 and len(children) > 1:
            k = int(rng.integers(len(children) - 1))
            children[k], children[k + 1] = children[k + 1], children[k]
    return node(program.label, *children)


def add_learner_variants(corpus, seed: int):
    """Give every item 4 solutions: its sample, an exact learner copy of it
    (weight 3), and two seeded learner mutants with integer weights 1-4."""
    import numpy as np
    from itemsim.corpus import Corpus, Item, Solution

    rng = np.random.default_rng([seed, 1])
    items = []
    for it in corpus.items:
        (sample,) = it.solutions
        learners = [Solution(ast=sample.ast, weight=COPY_WEIGHT, kind="learner")]
        for _ in range(2):
            ast = _mutant(sample.ast, rng)
            learners.append(Solution(ast=ast, weight=float(rng.integers(1, 5)), kind="learner"))
        items.append(Item(id=it.id, statement_text=it.statement_text, world=it.world,
                          command_limit=it.command_limit, solutions=(sample, *learners),
                          level=it.level))
    return Corpus(tuple(items))


def _renamed(ast, names: dict):
    from itemsim.tree import node

    return node(names.get(ast.label, ast.label), *(_renamed(c, names) for c in ast.children))


def build_corpus(w: Workload, seed: int, generate):
    """The corpus a workload's seed gives. `generate` is
    itemsim.synth.generate_corpus, passed in so the caller can time it."""
    from itemsim.corpus import Corpus, Item, Solution
    from itemsim.synth import CorpusSpec

    spec = CorpusSpec(n_items=w.n_items, n_levels=w.n_levels, seed=seed)
    if not w.pinned_programs:
        return generate(spec)
    pinned = generate(CorpusSpec(n_items=w.n_items, n_levels=w.n_levels, seed=w.default_seed))
    if w.multi:
        pinned = add_learner_variants(pinned, w.default_seed)
    if seed == w.default_seed:
        return pinned
    import numpy as np

    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(len(pinned))
    names = dict(zip(ROBOT_COMMANDS, (ROBOT_COMMANDS[k] for k in rng.permutation(4))))
    items = []
    for fresh, k in zip(generate(spec).items, order):
        source = pinned.items[k]
        solutions = tuple(Solution(ast=_renamed(s.ast, names), weight=s.weight, kind=s.kind)
                          for s in source.solutions)
        items.append(Item(id=fresh.id, statement_text=fresh.statement_text, world=fresh.world,
                          command_limit=fresh.command_limit, solutions=solutions,
                          level=source.level))
    return Corpus(tuple(items))


def variant_problems(expected, loaded) -> list[str]:
    """Differences between the generated edit-multi corpus and what
    load_corpus reads back. save_corpus names learners learner.robot,
    learner_2.robot, learner_3.robot, and load_corpus orders files by name."""
    problems = []
    if loaded.item_ids != expected.item_ids:
        return ["item ids differ after load_corpus"]
    for want, got in zip(expected.items, loaded.items):
        if len(got.solutions) != 4:
            problems.append(f"{got.id}: {len(got.solutions)} solutions read back, expected 4")
            continue
        sample = got.sample_solution()
        learners = got.learner_solutions()
        if sample is None or sample.ast != want.solutions[0].ast:
            problems.append(f"{got.id}: sample changed in the round trip")
        if [s.ast for s in learners] != [s.ast for s in want.solutions[1:]]:
            problems.append(f"{got.id}: learner solutions changed in the round trip")
        if [s.weight for s in learners] != [s.weight for s in want.solutions[1:]]:
            problems.append(f"{got.id}: learner weights changed in the round trip")
        if sample is None or not learners or learners[0].ast != sample.ast:
            problems.append(f"{got.id}: the learner copy differs from the sample")
    return problems
