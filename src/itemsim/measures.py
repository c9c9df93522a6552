"""Measure names and the pipeline that turns a name into a similarity matrix.

Grammar: `<source>/<transforms>/<metric>` where source is one of bag,
statement, solution, structural, world, performance; transforms is `none` or
a '+'-joined list of bin, log, max, idf, weights; metric is correlation,
cosine, or euclidean. The bare names ted, levenshtein, nw denote solution
edit-distance measures, and perfcorr denotes direct performance correlation.

`bag` concatenates statement word counts with solution keyword counts; the
`weights` transform multiplies the solution feature group by 5.
A performance table feeds perfcorr and the performance source only;
solution programs feed the sources in SOLUTION_SOURCES only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .corpus import Corpus, PerformanceTable
from .editdist import NwScoring
from .errors import ItemsimError
from .features import (
    FeatureMatrix,
    apply_transforms,
    check_transforms,
    concat_features,
    performance_features,
    restrict_items,
    solution_keyword_features,
    statement_bow,
    structural_features,
    world_features,
)
from .similarity import (
    METRICS, SimilarityMatrix, edit_similarity, performance_similarity, similarity_from_features,
)

BARE_MEASURES = ("ted", "levenshtein", "nw", "perfcorr")

FEATURE_SOURCES = ("bag", "statement", "solution", "structural", "world", "performance")

RECORD_SOURCES = ("perfcorr", "performance")

SOLUTION_SOURCES = ("bag", "solution", "structural", "ted", "levenshtein", "nw")


@dataclass(frozen=True)
class MeasureName:
    """Parsed measure name. Bare edit-distance and performance-correlation
    measures have no metric; feature measures carry source, transform
    tokens, and metric."""

    source: str
    transforms: tuple[str, ...] = ()
    metric: str | None = None

    def __post_init__(self):
        if self.metric is None:
            if self.source not in BARE_MEASURES:
                raise ItemsimError(f"unknown measure {self.source!r}")
            if self.transforms:
                raise ItemsimError(f"measure {self.source!r} takes no transforms")
        else:
            if self.source not in FEATURE_SOURCES:
                raise ItemsimError(f"unknown feature source {self.source!r}")
            if self.metric not in METRICS:
                raise ItemsimError(f"unknown metric {self.metric!r}")
            check_transforms(self.transforms)


def parse_measure(text: str) -> MeasureName:
    text = text.strip()
    if "/" not in text:
        return MeasureName(source=text)
    parts = text.split("/")
    if len(parts) != 3:
        raise ItemsimError(
            f"bad measure name {text!r}: expected <source>/<transforms>/<metric>"
        )
    source, transform_text, metric = parts
    if transform_text == "none":
        transforms: tuple[str, ...] = ()
    else:
        transforms = tuple(transform_text.split("+"))
        if any(not t for t in transforms):
            raise ItemsimError(f"bad transform list {transform_text!r}")
    return MeasureName(source=source, transforms=transforms, metric=metric)


def format_measure(name: MeasureName) -> str:
    if name.metric is None:
        return name.source
    transform_text = "+".join(name.transforms) if name.transforms else "none"
    return f"{name.source}/{transform_text}/{name.metric}"


@dataclass(frozen=True)
class MeasureParams:
    """Knobs shared by the measure pipeline: solution selection, aggregation
    over multiple solutions, alignment scoring, performance handling."""

    selector: str = "sample"
    aggregation: str = "min"
    nw_scoring: NwScoring = NwScoring()
    min_overlap: int = 10
    perf_measure: str = "log_time"
    stopwords: frozenset[str] = frozenset()


def build_features(
    corpus: Corpus,
    source: str,
    performance: PerformanceTable | None = None,
    params: MeasureParams = MeasureParams(),
) -> FeatureMatrix:
    """Feature matrix for one source name from the measure grammar."""
    if source == "statement":
        return statement_bow(corpus, stopwords=params.stopwords)
    if source == "solution":
        return solution_keyword_features(corpus, selector=params.selector)
    if source == "structural":
        return structural_features(corpus)
    if source == "world":
        return world_features(corpus)
    if source == "performance":
        if performance is None:
            raise ItemsimError("performance features need performance records")
        return performance_features(performance, item_ids=corpus.item_ids)
    if source == "bag":
        statement = statement_bow(corpus, stopwords=params.stopwords)
        solution = solution_keyword_features(corpus, selector=params.selector)
        statement = restrict_items(statement, solution.item_ids)
        return concat_features([statement, solution])
    raise ItemsimError(f"unknown feature source {source!r}")


def compute_measure(
    corpus: Corpus,
    name: MeasureName | str,
    performance: PerformanceTable | None = None,
    params: MeasureParams = MeasureParams(),
) -> SimilarityMatrix:
    """Similarity matrix for one named measure over a corpus."""
    if isinstance(name, str):
        name = parse_measure(name)
    canonical = format_measure(name)
    if name.metric is None:
        if name.source == "perfcorr":
            if performance is None:
                raise ItemsimError("perfcorr needs performance records")
            s = performance_similarity(
                performance,
                measure=params.perf_measure,
                min_overlap=params.min_overlap,
                item_ids=corpus.item_ids,
            )
        else:
            s = edit_similarity(
                corpus,
                kind=name.source,
                selector=params.selector,
                aggregation=params.aggregation,
                nw_scoring=params.nw_scoring,
            )
        return replace(s, measure_name=canonical)
    m = build_features(corpus, name.source, performance=performance, params=params)
    m = apply_transforms(m, name.transforms)
    return similarity_from_features(m, metric=name.metric, measure_name=canonical)
