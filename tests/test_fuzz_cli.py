"""Seeded malformed-input fuzzing of every subcommand.

Each subcommand has one valid config over the tiny fixture corpus. The
fuzzer mutates it (drop a key, give a value another JSON type, negate a
number; nested objects and lists included) and runs the result through
`main`. The items.json and solution files of the corpus are mutated the
same way, and by character; performance.csv by field and by byte; the
heatmap's matrix CSV by character. Every run gets a fresh `-o` and must
either succeed, writing well-formed XML for any SVG, or print exactly
one `error:` line, exit 1 and leave no `-o`: a traceback fails the test
with the input that caused it.
"""

import copy
import json
import shutil
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from itemsim import PerformanceTable, node, save_corpus, save_performance
from itemsim.cli import main
from itemsim.tree import ast_to_document

from conftest import char_mutant, make_tiny_corpus

MUTANTS_PER_CONFIG = 120

# one value of each JSON type; ints and floats count as different types,
# because a float where an integer belongs is a typical mistake
_REPLACEMENTS = (None, True, 3, 2.5, "x", ["x"], {"x": 1})


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return type(value).__name__


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The tiny corpus with performance records, a stopword list and a
    similarity CSV for the heatmap."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "tiny"
    save_corpus(make_tiny_corpus(), corpus)
    rng = np.random.default_rng(5)
    save_performance(
        PerformanceTable.from_records(
            (f"L{l}", item, float(np.exp(rng.normal())), bool(rng.integers(2)))
            for l in range(8) for item in ("alpha", "beta", "gamma")),
        corpus / "performance.csv",
    )
    (root / "stop.txt").write_text("the before", encoding="utf-8")
    (root / "sim.csv").write_text(
        "item_id,a,b,c\na,1,0.5,0\nb,0.5,1,-0.25\nc,0,-0.25,1\n", encoding="utf-8")
    return root


def _configs(root) -> dict[str, tuple[str, dict]]:
    corpus = str(root / "tiny")
    return {
        "features": ("features", {
            "corpus": corpus, "source": "bag", "transforms": ["log", "weights"],
            "selector": "all", "stopwords": str(root / "stop.txt"),
        }),
        "sim": ("sim", {
            "corpus": corpus, "measure": "nw", "selector": "all", "aggregation": "average",
            "nw": {"match": 2, "mismatch": -1, "gap": -1},
        }),
        "sim_perfcorr": ("sim", {
            "corpus": corpus, "measure": "perfcorr", "min_overlap": 3,
            "perf_measure": "success", "performance": str(root / "tiny" / "performance.csv"),
        }),
        "agree": ("agree", {
            "corpus": corpus, "measures": ["ted", "bag/log+idf/cosine", "statement/none/cosine"],
            "method": "top:1",
        }),
        "meta_agree": ("meta-agree", {
            "corpus": corpus, "measures": ["ted", "bag/log/cosine", "statement/none/cosine"],
            "methods": ["correlation", "top:1"],
        }),
        "cluster": ("cluster", {
            "corpus": corpus, "measure": "bag/log/correlation", "k": 2, "runs": 3, "seed": 1,
        }),
        "project_pca": ("project", {
            "corpus": corpus, "projection": "pca", "source": "solution",
            "transforms": ["max"], "dims": 2,
        }),
        "project_mds": ("project", {
            "corpus": corpus, "projection": "mds", "measure": "levenshtein", "dims": 1,
        }),
        "stability": ("stability", {"corpus": corpus, "min_overlap": 2, "seed": 3}),
        "synth": ("synth", {"synth": {
            "n_items": 4, "n_levels": 2, "seed": 1,
            "performance": {"n_learners": 6, "solve_prob": 0.9, "noise_sd": 0.5, "seed": 2},
        }}),
        "heatmap": ("heatmap", {"matrix": str(root / "sim.csv"), "ordering": "hierarchical"}),
    }


def _slots(value, path=()):
    """Every (path, value) below the top-level object, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from _slots(child, path + (key,))


def _mutate(cfg: dict, rng) -> dict:
    cfg = copy.deepcopy(cfg)
    slots = list(_slots(cfg))
    if not slots:
        return cfg
    path, value = slots[int(rng.integers(len(slots)))]
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    roll = int(rng.integers(3))
    if roll == 0:
        del parent[path[-1]]
    elif roll == 1 and numeric:
        parent[path[-1]] = -value
    else:
        options = [r for r in _REPLACEMENTS if _json_type(r) != _json_type(value)]
        parent[path[-1]] = copy.deepcopy(options[int(rng.integers(len(options)))])
    return cfg


def _run(sub: str, config: Path, capsys, what: str) -> int:
    """Exit code of one run into a fresh -o beside the config, which must
    succeed, writing any SVG as well-formed XML, or print one error line
    and leave no -o."""
    out = config.with_name("out")
    try:
        code = main([sub, "-c", str(config), "-o", str(out)])
    except Exception as e:
        pytest.fail(f"{sub} {what}: {type(e).__name__}: {e}")
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    expected = 1 if code else 0
    assert code in (0, 1) and len(errors) == expected, (sub, what, code, errors)
    if code:
        assert not out.exists(), f"{sub} {what}: a failed run wrote {out}"
    else:
        for svg in out.glob("*.svg"):
            try:
                ElementTree.parse(svg)
            except ElementTree.ParseError as e:
                pytest.fail(f"{sub} {what}: {svg.name} is not well-formed XML: {e}")
        shutil.rmtree(out)
    return code


@pytest.mark.parametrize("name", list(_configs(Path("."))))
def test_mutated_configs(inputs, tmp_path, capsys, name):
    sub, base = _configs(inputs)[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    mutants = [base] + [_mutate(base, rng) for _ in range(MUTANTS_PER_CONFIG)]
    for k in range(MUTANTS_PER_CONFIG // 4):
        mutants.append(_mutate(mutants[1 + k], rng))  # two mutations at once
    config = tmp_path / "config.json"
    for i, cfg in enumerate(mutants):
        config.write_text(json.dumps({"schema": 1, **cfg}), encoding="utf-8")
        code = _run(sub, config, capsys, json.dumps(cfg))
        if i == 0:
            assert code == 0, f"base config of {name} fails"


MUTANTS_PER_FILE = 80

# what a character mutation of a solution file inserts or writes over one
# character: JSON and DSL syntax, characters the DSL scanner rejects, a
# control character, and numbers past the float range
_PIECES = ("{", "}", "[", "]", '"', ":", ",", "\\", "-", "0", "7", "1e999", "9" * 400,
           "null", "true", '"x"', "[]", "{}", "==", "!=", "#", "\n", "\f", "\r", "\x00",
           "é", "$", "move", "repeat ", "else", "label", "children", "repeat_3")


@pytest.fixture(scope="module")
def solution_corpus(tmp_path_factory):
    """The tiny corpus with one solution saved as an AST document, since
    every tiny-corpus solution is written as .robot source."""
    root = tmp_path_factory.mktemp("solutions") / "tiny"
    save_corpus(make_tiny_corpus(), root)
    ast = node("program", node("for_each", node("move")),
               node("if_wall", node("then", node("left")), node("else")))
    (root / "solutions" / "gamma" / "learner.ast.json").write_text(
        ast_to_document(ast), encoding="utf-8")
    return root


def _run_file_mutants(path: Path, pieces, runs: dict, tmp_path, capsys, seed: str) -> None:
    """Run each config of runs over the file at path, as given and then
    under MUTANTS_PER_FILE mutations: half by JSON value for a .json file,
    the rest by character. The unmutated file must pass and some mutant
    must fail."""
    base = path.read_text(encoding="utf-8")
    rng = np.random.default_rng(sum(map(ord, seed)))
    mutants = [base]
    for _ in range(MUTANTS_PER_FILE):
        if path.name.endswith(".json") and rng.random() < 0.5:
            mutants.append(json.dumps(_mutate(json.loads(base), rng)))
        else:
            mutants.append(char_mutant(base, pieces, rng))
    config = tmp_path / "config.json"
    failed = 0
    for i, text in enumerate(mutants):
        path.write_text(text, encoding="utf-8")
        for name, (sub, cfg) in runs.items():
            config.write_text(json.dumps({"schema": 1, **cfg}), encoding="utf-8")
            code = _run(sub, config, capsys, f"{name}, {path.name} = {text!r}")
            assert code == 0 or i > 0, f"{name} fails on the unmutated {path.name}"
            failed += code
    assert failed > 0


@pytest.mark.parametrize("relative", [
    "alpha/learner.robot", "alpha/weights.json", "gamma/learner.ast.json"])
def test_mutated_solution_files(solution_corpus, tmp_path, capsys, relative):
    corpus = tmp_path / "tiny"
    shutil.copytree(solution_corpus, corpus)
    runs = {
        "sim": ("sim", {"corpus": str(corpus), "measure": "ted", "selector": "all"}),
        "features": ("features", {"corpus": str(corpus), "source": "solution",
                                  "selector": "all"}),
    }
    _run_file_mutants(corpus / "solutions" / relative, _PIECES, runs, tmp_path, capsys,
                      relative)


def test_mutated_items_json(solution_corpus, tmp_path, capsys):
    corpus = tmp_path / "tiny"
    shutil.copytree(solution_corpus, corpus)
    runs = {
        "features": ("features", {"corpus": str(corpus), "source": "world"}),
        "sim": ("sim", {"corpus": str(corpus), "measure": "ted", "selector": "all"}),
    }
    _run_file_mutants(corpus / "items.json", _PIECES, runs, tmp_path, capsys, "items.json")


# what a character mutation of a matrix CSV inserts or writes over one
# character: CSV syntax, ids, numbers out of range, and non-finite values
_CSV_PIECES = (",", "\n", "\r", '"', "-", "0", "7", ".", "e", "1e999", "-1e308", "1e308",
               "9" * 400, "nan", "inf", "-inf", "a", "b", "x", " ", "\x00", "é")


def test_mutated_heatmap_matrix(inputs, tmp_path, capsys):
    matrix = tmp_path / "sim.csv"
    shutil.copyfile(inputs / "sim.csv", matrix)
    runs = {ordering: ("heatmap", {"matrix": str(matrix), "ordering": ordering})
            for ordering in ("none", "hierarchical")}
    _run_file_mutants(matrix, _CSV_PIECES, runs, tmp_path, capsys, "sim.csv")


MUTANTS_PER_KIND = 4


def _performance_mutant(text: str, kind: str, rng) -> bytes:
    """performance.csv with one mutation of the given kind: a field
    dropped or added on any line, the header included; a bad time,
    success or id on a data row; a stray character at any offset; or a
    byte-order mark at the start of the file or of some line."""
    lines = text.splitlines()
    row = int(rng.integers(0 if kind.endswith(" field") else 1, len(lines)))
    fields = lines[row].split(",")
    if kind.endswith(" field"):
        column = int(rng.integers(len(fields)))
        fields[column:column + 1] = [] if kind == "drop field" else ["x", fields[column]]
    elif kind.startswith("time "):
        fields[2] = kind.removeprefix("time ")
    elif kind == "success 2":
        fields[3] = "2"
    elif kind == "empty id":
        fields[int(rng.integers(2))] = ""
    elif kind == "unknown item":
        fields[1] = "zeta"
    lines[row] = ",".join(fields)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    piece = {"stray quote": b'"', "NUL": b"\x00", "non-UTF-8 byte": b"\xff"}.get(kind)
    if piece is not None:
        offset = int(rng.integers(len(data) + 1))
        data = data[:offset] + piece + data[offset:]
    elif kind == "BOM":
        starts = [0, *(k + 1 for k, byte in enumerate(data[:-1]) if byte == ord("\n"))]
        offset = 0 if rng.random() < 0.5 else starts[int(rng.integers(len(starts)))]
        data = data[:offset] + b"\xef\xbb\xbf" + data[offset:]
    return data


@pytest.mark.parametrize("kind", [
    "drop field", "extra field", "time soon", "time 0", "time inf", "time nan", "success 2",
    "empty id", "unknown item", "stray quote", "NUL", "non-UTF-8 byte", "BOM"])
def test_mutated_performance_files(inputs, tmp_path, capsys, kind):
    corpus = tmp_path / "tiny"
    shutil.copytree(inputs / "tiny", corpus)
    path = corpus / "performance.csv"
    base = path.read_text(encoding="utf-8")
    rng = np.random.default_rng(sum(map(ord, kind)))
    runs = {
        "sim": {"corpus": str(corpus), "measure": "perfcorr", "min_overlap": 3},
        "stability": {"corpus": str(corpus), "min_overlap": 2, "seed": 3},
    }
    config = tmp_path / "config.json"
    failed = 0
    for i in range(MUTANTS_PER_KIND + 1):
        data = base.encode("utf-8") if i == 0 else _performance_mutant(base, kind, rng)
        path.write_bytes(data)
        for sub, cfg in runs.items():
            config.write_text(json.dumps({"schema": 1, **cfg}), encoding="utf-8")
            code = _run(sub, config, capsys, f"performance.csv = {data!r}")
            assert code == 0 or i > 0, f"{sub} fails on the unmutated performance.csv"
            failed += code
    assert failed > 0
