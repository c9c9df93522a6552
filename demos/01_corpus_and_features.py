"""
Building a corpus by hand and turning it into feature matrices
==============================================================

Items carry up to three data sources: a natural-language statement, one or
more solution programs, and (optionally) a grid world. Each source feeds a
different feature extractor; a transform pipeline then reshapes the counts.
"""

from itemsim import (
    Corpus,
    Item,
    Solution,
    WorldSpec,
    apply_transforms,
    parse_robot_program,
    solution_keyword_features,
    statement_bow,
    world_features,
)

# Three small items. Solutions are written in the block-based robot
# language and parsed into ASTs; the second item also has a weighted
# learner solution (weight = how many learners submitted it).
collect = Item(
    id="collect",
    statement_text="Collect every diamond before the fuel runs out",
    world=WorldSpec(grid=("D..", ".D.", "..D"), legend={"D": "diamond"}),
    solutions=(
        Solution(ast=parse_robot_program("repeat 3 { move right }"), kind="sample"),
    ),
    level=0,
)
dodge = Item(
    id="dodge",
    statement_text="Dodge the meteorites and reach the wormhole",
    world=WorldSpec(grid=("M.M", ".W."), legend={"M": "meteorite", "W": "wormhole"}),
    solutions=(
        Solution(ast=parse_robot_program("move left move move"), kind="sample"),
        Solution(ast=parse_robot_program("repeat 2 { move } left move"),
                 kind="learner", weight=4.0),
    ),
    level=0,
)
patrol = Item(
    id="patrol",
    statement_text="Patrol along the wall until the wall ends",
    solutions=(
        Solution(ast=parse_robot_program("while wall { move } right"), kind="sample"),
    ),
    level=1,
)
corpus = Corpus(items=(collect, dodge, patrol))

# Statement source: a bag of lowercased words (single characters dropped).
bow = statement_bow(corpus)
print("statement vocabulary:", ", ".join(bow.names))
print("word counts for 'collect':",
      {n: int(v) for n, v in zip(bow.names, bow.values[0]) if v})

# Solution source: construct keywords counted over each item's solutions.
# The "all" selector averages solutions by their learner weights.
kw = solution_keyword_features(corpus, "all")
print("\nsolution keywords:", ", ".join(kw.names))
for item_id, row in zip(kw.item_ids, kw.values):
    print(f"  {item_id:8s}", [float(round(v, 2)) for v in row])

# World source: one row per item that has a grid (patrol has none, so this
# matrix covers only two items).
worlds = world_features(corpus)
print("\nworld features", worlds.names, "for", worlds.item_ids)

# Transforms reshape a matrix without changing its meaning: log compresses
# heavy-tailed counts, idf downweights words every item shares, max scales
# each feature to a peak of 1. They take the measure grammar's tokens.
shaped = apply_transforms(bow, ["log", "idf", "max"])
print("\nafter log+idf+max, 'collect' row:",
      {n: float(round(v, 3)) for n, v in zip(shaped.names, shaped.values[0]) if v})
