"""Command-line front end: itemsim <subcommand> -c config.json -o outdir.

Subcommands: features, sim, agree, meta-agree, cluster, project, stability,
synth, heatmap. Each takes only -c and -o: the config, a JSON object with
"schema": 1, holds every setting of the run, seeds included ("seed", and
"synth.seed" for synth). Every output is a pure function of the corpus bytes
and the config bytes, so reruns are byte-identical. Each subcommand returns
its files and main writes them once it has returned, so a failed command
writes nothing.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, fields
from numbers import Real
from pathlib import Path

from .analysis import (
    Partition,
    agreement_matrix,
    cluster_eval,
    kmeans,
    meta_agreement,
    parse_method,
    split_half_stability,
)
from .corpus import (
    Corpus,
    corpus_files,
    is_kind,
    load_corpus,
    load_performance,
    performance_csv,
    read_json,
    read_text,
    write_files,
)
from .editdist import NwScoring
from .errors import ConfigError, ItemsimError
from .features import apply_transforms, check_transforms
from .heatmap import heatmap_svg
from .measures import (
    RECORD_SOURCES, SOLUTION_SOURCES, MeasureParams, build_features, compute_measure, parse_measure,
)
from .projection import mds_project, pca_project
from .serialize import (
    embedding_csv,
    agreement_csv,
    feature_csv,
    partition_csv,
    read_square_csv,
    scalar_text,
    similarity_csv,
)
from .similarity import restrict
from .synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance, level_partition

_CONFIG_KEYS = {
    "schema", "corpus", "performance", "stopwords", "measure", "measures",
    "method", "methods", "selector", "aggregation", "min_overlap",
    "perf_measure", "nw", "seed", "k", "runs", "source", "transforms",
    "projection", "dims", "synth", "matrix", "ordering",
}

_SYNTH_KEYS = {f.name for f in fields(CorpusSpec)} | {"performance"}

_PERF_KEYS = {f.name for f in fields(PerfSpec)}


def load_config(path: str) -> dict:
    try:
        obj = read_json(path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror or e}") from e
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if obj.get("schema") != 1:
        raise ConfigError(f'{path}: config needs "schema": 1')
    _check_keys(obj, _CONFIG_KEYS, f"{path}: unknown config keys")
    return obj


def _check_keys(obj: dict, allowed, what: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{what}: {', '.join(unknown)}")


def _optional(cfg: dict, key: str, kind: type, default):
    if key not in cfg:
        return default
    value = cfg[key]
    if not is_kind(value, kind):
        name = "number" if kind is Real else kind.__name__
        raise ConfigError(f"config key {key!r} must be a {name}")
    if kind is Real:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"config key {key!r} must be a number within float range") from None
    return value


def _require(cfg: dict, key: str, kind: type, what: str):
    if key not in cfg:
        raise ConfigError(f"config needs {key!r} for {what}")
    return _optional(cfg, key, kind, None)


def _load_records(cfg: dict, corpus: Corpus | None):
    if "performance" in cfg:
        return load_performance(_require(cfg, "performance", str, "performance data"), corpus)
    if "corpus" in cfg:
        default = Path(cfg["corpus"]) / "performance.csv"
        if default.is_file():
            return load_performance(default, corpus)
    raise ConfigError('config needs "performance" (or a corpus performance.csv)')


def _measure_params(cfg: dict) -> MeasureParams:
    default = MeasureParams()
    stopwords = default.stopwords
    if "stopwords" in cfg:
        path = _require(cfg, "stopwords", str, "stopwords")
        words = read_text(path).split()
        stopwords = frozenset(w.lower() for w in words)
    nw = _optional(cfg, "nw", dict, {})
    nw_default = asdict(default.nw_scoring)
    _check_keys(nw, nw_default, "unknown nw keys")
    scoring = NwScoring(**{k: _optional(nw, k, Real, v) for k, v in nw_default.items()})
    return MeasureParams(
        selector=_optional(cfg, "selector", str, default.selector),
        aggregation=_optional(cfg, "aggregation", str, default.aggregation),
        nw_scoring=scoring,
        min_overlap=_optional(cfg, "min_overlap", int, default.min_overlap),
        perf_measure=_optional(cfg, "perf_measure", str, default.perf_measure),
        stopwords=stopwords,
    )


def _inputs(cfg: dict, sources: list[str]):
    """Corpus, measure parameters, and the performance records when one of
    the sources reads them (None otherwise). Solution files are parsed only
    when one of the sources reads them."""
    needs_solutions = any(source in SOLUTION_SOURCES for source in sources)
    corpus = load_corpus(_require(cfg, "corpus", str, "this subcommand"), solutions=needs_solutions)
    params = _measure_params(cfg)
    needs_records = any(source in RECORD_SOURCES for source in sources)
    return corpus, params, _load_records(cfg, corpus) if needs_records else None


def _seed(cfg: dict) -> int:
    seed = _optional(cfg, "seed", int, 0)
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    return seed


def _measure_names(cfg: dict) -> list[str]:
    names = _require(cfg, "measures", list, "agreement")
    if not all(isinstance(n, str) for n in names):
        raise ConfigError('config key "measures" must be a list of strings')
    if len(names) < 2:
        raise ItemsimError("need at least 2 measures")
    return names


def _features(cfg: dict, what: str):
    """The transformed feature matrix of the config's source."""
    source = _require(cfg, "source", str, what)
    tokens = check_transforms(_optional(cfg, "transforms", list, []))
    corpus, params, records = _inputs(cfg, [source])
    return apply_transforms(build_features(corpus, source, performance=records, params=params), tokens)


def _measures(cfg: dict, names: list[str]):
    """The corpus and one similarity matrix per measure name."""
    corpus, params, records = _inputs(cfg, [parse_measure(n).source for n in names])
    return corpus, [compute_measure(corpus, n, performance=records, params=params) for n in names]


def _computed_measures(cfg: dict, names: list[str]):
    corpus, matrices = _measures(cfg, names)
    common = [i for i in corpus.item_ids if all(i in m.item_ids for m in matrices)]
    if not common:
        raise ItemsimError("measures share no items")
    return [restrict(m, tuple(common)) for m in matrices]


def _spec(cls, fields: dict, what: str):
    """A synth spec from config keys; the error of a bad value names the spec."""
    try:
        return cls(**fields)
    except ItemsimError as e:
        raise ConfigError(f"bad {what} spec: {e}") from e


# ---------------------------------------------------------------------------
# Subcommands: each returns its output files as {path under -o: text}
# ---------------------------------------------------------------------------


def cmd_features(cfg: dict) -> dict[str, str]:
    return {"features.csv": feature_csv(_features(cfg, "features"))}


def cmd_sim(cfg: dict) -> dict[str, str]:
    _, (s,) = _measures(cfg, [_require(cfg, "measure", str, "sim")])
    return {"sim.csv": similarity_csv(s)}


def cmd_agree(cfg: dict) -> dict[str, str]:
    names = _measure_names(cfg)
    method = _optional(cfg, "method", str, "correlation")
    parse_method(method)  # a bad method is refused before any measure is computed
    a = agreement_matrix(_computed_measures(cfg, names), method=method)
    return {"agreement.csv": agreement_csv(a)}


def cmd_meta_agree(cfg: dict) -> dict[str, str]:
    names = _measure_names(cfg)
    methods = _optional(cfg, "methods", list, ["correlation", "top:5"])
    if len(methods) != 2 or not all(isinstance(m, str) for m in methods):
        raise ConfigError('config key "methods" must be a list of two method strings')
    for m in methods:
        parse_method(m)
    matrices = _computed_measures(cfg, names)
    a1, a2 = (agreement_matrix(matrices, method=m) for m in methods)
    return {"meta_agree.txt": scalar_text(meta_agreement(a1, a2))}


def cmd_cluster(cfg: dict) -> dict[str, str]:
    corpus, (s,) = _measures(cfg, [_require(cfg, "measure", str, "cluster")])
    k = _optional(cfg, "k", int, 9)
    runs = _optional(cfg, "runs", int, 10)
    seed = _seed(cfg)
    manual_full = level_partition(corpus)
    index = dict(zip(manual_full.item_ids, manual_full.labels))
    manual = Partition(item_ids=s.item_ids, labels=tuple(index[i] for i in s.item_ids))
    part = kmeans(s, k, seed=seed)
    return {
        "partition.csv": partition_csv(part),
        "rand_index.txt": scalar_text(cluster_eval(s, manual, k, runs=runs, seed=seed)),
    }


def cmd_project(cfg: dict) -> dict[str, str]:
    kind = _optional(cfg, "projection", str, "pca")
    dims = _optional(cfg, "dims", int, 2)
    if kind == "pca":
        embedding = pca_project(_features(cfg, "pca projection"), dims)
    elif kind == "mds":
        _, (s,) = _measures(cfg, [_require(cfg, "measure", str, "mds projection")])
        embedding = mds_project(s, dims)
    else:
        raise ConfigError(f"unknown projection {kind!r}; use pca or mds")
    return {"embedding.csv": embedding_csv(embedding)}


def cmd_stability(cfg: dict) -> dict[str, str]:
    corpus = None
    if "corpus" in cfg:
        corpus = load_corpus(_require(cfg, "corpus", str, "stability"), solutions=False)
    records = _load_records(cfg, corpus)
    params = _measure_params(cfg)
    value = split_half_stability(
        records,
        measure=params.perf_measure,
        min_overlap=params.min_overlap,
        seed=_seed(cfg),
    )
    return {"stability.txt": scalar_text(value)}


def cmd_synth(cfg: dict) -> dict[str, str]:
    synth_cfg = _require(cfg, "synth", dict, "synth")
    _check_keys(synth_cfg, _SYNTH_KEYS, "unknown synth keys")
    perf_cfg = _optional(synth_cfg, "performance", dict, None)
    corpus_cfg = {k: v for k, v in synth_cfg.items() if k != "performance"}
    corpus_spec = _spec(CorpusSpec, corpus_cfg, "synth")
    perf_spec = None
    if perf_cfg is not None:
        _check_keys(perf_cfg, _PERF_KEYS, "unknown synth performance keys")
        perf_spec = _spec(PerfSpec, perf_cfg, "synth performance")
    corpus = generate_corpus(corpus_spec)
    files = corpus_files(corpus)
    if perf_spec is not None:
        try:
            records = generate_performance(corpus, perf_spec)
        except MemoryError as e:
            raise ConfigError(
                f"bad synth performance spec: n_learners={perf_spec.n_learners} too large"
            ) from e
        files["performance.csv"] = performance_csv(records)
    return files


def cmd_heatmap(cfg: dict) -> dict[str, str]:
    matrix_path = _require(cfg, "matrix", str, "heatmap")
    ordering = _optional(cfg, "ordering", str, "none")
    ids, values = read_square_csv(read_text(matrix_path), source=matrix_path)
    return {"heatmap.svg": heatmap_svg(ids, values, ordering=ordering)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line errors, exit code 1
        raise ItemsimError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="itemsim", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {
        "features": (cmd_features, "write a feature matrix CSV"),
        "sim": (cmd_sim, "write a similarity matrix CSV for one measure"),
        "agree": (cmd_agree, "write the pairwise agreement matrix for several measures"),
        "meta-agree": (cmd_meta_agree, "compare two agreement methods (level 3 scalar)"),
        "cluster": (cmd_cluster, "k-means partition plus Rand index against level labels"),
        "project": (cmd_project, "PCA or MDS embedding CSV"),
        "stability": (cmd_stability, "split-half stability of the performance measure"),
        "synth": (cmd_synth, "generate a synthetic corpus directory"),
        "heatmap": (cmd_heatmap, "render a square matrix CSV as an SVG heatmap"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", required=True, help="JSON config: every setting of the run")
        p.add_argument("-o", "--out", required=True, help="output directory")
        p.set_defaults(func=func)
    return parser


def _configure_logging() -> None:
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("ITEMSIM_LOG", "warn").lower()
    if name not in levels:
        name = "warn"
    logging.basicConfig(stream=sys.stderr, level=levels[name],
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        files = args.func(load_config(args.config))
        write_files(args.out, files)
    except (ItemsimError, OSError) as e:
        message = " ".join(str(e).split())
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
