"""
How much performance data does a stable similarity measure need?
================================================================

Performance-based similarity correlates items by the log solving times of
the learners who attempted both. Split-half stability shuffles learners,
splits them in two, computes the measure per half, and reports how well the
halves agree: a direct answer to "do I have enough data yet?".
"""

import numpy as np

from itemsim import performance_similarity, split_half_stability
from itemsim.synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance

corpus = generate_corpus(CorpusSpec(n_items=20, n_levels=2, seed=0))

print("learners  mean stability over 5 seeds")
for n_learners in (15, 30, 60, 120, 500):
    values = []
    for seed in range(5):
        table = generate_performance(
            corpus,
            PerfSpec(n_learners=n_learners, skill_sd=1.0, noise_sd=0.5, seed=seed),
        )
        values.append(split_half_stability(table, min_overlap=5, seed=seed))
    print(f"{n_learners:8d}  {np.mean(values):.3f}")

# The full-data similarity matrix behind those numbers: with two difficulty
# groups, log-time correlations are strongly positive within a group.
# generate_performance and load_performance both return a PerformanceTable:
# learner x item matrices of times and successes, NaN where not attempted.
table = generate_performance(corpus, PerfSpec(n_learners=500, seed=0))
print(f"\n{len(table.learner_ids)} learners x {len(table.item_ids)} items, {len(table)} attempts")
s = performance_similarity(table)
levels = np.array([it.level for it in corpus.items])
same = (levels[:, None] == levels[None, :]) & ~np.eye(s.n_items, dtype=bool)
print(f"\nperformance similarity within a difficulty group {s.values[same].mean():.3f}"
      f" vs across groups {s.values[~same & ~np.eye(s.n_items, dtype=bool)].mean():.3f}")
