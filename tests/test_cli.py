"""End-to-end runs of every CLI subcommand through main(argv)."""

import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import itemsim
from itemsim import (
    ItemsimError, NwScoring, compute_measure, edit_similarity, editdist, load_corpus,
    load_performance, parse_measure, save_corpus,
)
from itemsim import corpus as corpus_module
from itemsim.cli import main
from itemsim.measures import FEATURE_SOURCES, SOLUTION_SOURCES, MeasureParams
from itemsim.serialize import read_square_csv

from conftest import NESTED_FORMS, make_tiny_corpus, nested_robot_source


def write_config(directory, name="config.json", **settings):
    settings.setdefault("schema", 1)
    path = directory / name
    path.write_text(json.dumps(settings), encoding="utf-8")
    return str(path)


def run_ok(argv):
    assert main(argv) == 0


def run_error(argv, capsys, fragment):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert fragment in err
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Synthetic 5-item corpus with performance data, built via the CLI."""
    root = tmp_path_factory.mktemp("synth")
    cfg = write_config(
        root,
        synth={
            "n_items": 5,
            "n_levels": 2,
            "seed": 3,
            "performance": {"n_learners": 25, "seed": 4},
        },
    )
    out = root / "corpus"
    run_ok(["synth", "-c", cfg, "-o", str(out)])
    return out


@pytest.fixture
def tiny_dir(tmp_path):
    """The tiny corpus (learner solutions, weights, worlds, levels) on disk."""
    root = tmp_path / "tiny"
    save_corpus(make_tiny_corpus(), root)
    return root


def edit_first_item(corpus_root, **fields):
    path = corpus_root / "items.json"
    entries = json.loads(path.read_text(encoding="utf-8"))
    entries[0].update(fields)
    path.write_text(json.dumps(entries), encoding="utf-8")


class TestSynth:
    def test_writes_loadable_corpus_with_performance(self, corpus_dir):
        corpus = load_corpus(corpus_dir)
        assert len(corpus) == 5
        assert (corpus_dir / "performance.csv").is_file()
        assert all(it.sample_solution() is not None for it in corpus.items)

    def test_seed_flag_overrides_config(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, synth={"n_items": 5, "n_levels": 2, "seed": 3})
        out = tmp_path / "other"
        run_ok(["synth", "-c", cfg, "-o", str(out), "--seed", "99"])
        original = (corpus_dir / "items.json").read_bytes()
        reseeded = (out / "items.json").read_bytes()
        assert original != reseeded

    def test_output_bytes_pinned(self, tmp_path):
        """The sha256 of every file synth writes for one fixed spec, .robot
        sources included, so the emitter and the generators keep their bytes."""
        cfg = write_config(tmp_path, synth={
            "n_items": 12, "n_levels": 3, "seed": 5,
            "performance": {"n_learners": 8, "seed": 6},
        })
        out = tmp_path / "corpus"
        run_ok(["synth", "-c", cfg, "-o", str(out)])
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.relative_to(out).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
        assert len(files) == 14
        assert digest.hexdigest() == "7b3d9bf18d50486e6a88c2e07fb1b1f0589dd5a3e309cce4e12442af94cf2844"

    def test_unknown_synth_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synth={"n_items": 5, "n_levls": 2})
        run_error(["synth", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "unknown synth keys: n_levls")

    @pytest.mark.parametrize("performance, fragment", [
        ({"n_learners": "x"}, "bad synth performance spec"),
        (5, "config key 'performance' must be a dict"),
    ])
    def test_badly_typed_performance_spec(self, tmp_path, capsys, performance, fragment):
        cfg = write_config(tmp_path, synth={"n_items": 5, "n_levels": 2,
                                            "performance": performance})
        run_error(["synth", "-c", cfg, "-o", str(tmp_path / "o")], capsys, fragment)

    @pytest.mark.parametrize("synth, fragment", [
        ({"seed": 1.5}, "bad synth spec: seed must be an integer"),
        ({"n_items": 5.5}, "bad synth spec: n_items must be an integer"),
        ({"seed": True}, "bad synth spec: seed must be an integer"),
        ({"performance": {"n_learners": 3.5}},
         "bad synth performance spec: n_learners must be an integer"),
        ({"performance": {"seed": 2.5}}, "bad synth performance spec: seed must be an integer"),
    ], ids=["seed_float", "n_items_float", "seed_bool", "n_learners_float",
            "performance_seed_float"])
    def test_spec_value_types(self, tmp_path, capsys, synth, fragment):
        cfg = write_config(tmp_path, synth={"n_items": 5, "n_levels": 2, **synth})
        run_error(["synth", "-c", cfg, "-o", str(tmp_path / "o")], capsys, fragment)

    def test_bad_performance_spec_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synth={"n_items": 5, "n_levels": 2,
                                            "performance": {"n_learners": 0}})
        run_error(["synth", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "n_learners must be positive")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("performance", [{"skill_sd": 1000}, {"noise_sd": 1e308}],
                             ids=["skill_sd", "noise_sd"])
    def test_times_out_of_range_write_nothing(self, tmp_path, capsys, performance):
        # np.exp of a drawn log time underflows to 0 or overflows to inf,
        # and load_performance would refuse either
        cfg = write_config(tmp_path, synth={"n_items": 9,
                                            "performance": {"n_learners": 20, **performance}})
        run_error(["synth", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "is not finite and positive: skill_sd, difficulty_sd or noise_sd is too large")
        assert not (tmp_path / "o").exists()

    def test_performance_too_large_to_allocate_writes_nothing(self, tmp_path, capsys):
        # the first array of this many learners cannot be allocated, so the
        # request fails at once without touching memory
        cfg = write_config(tmp_path, synth={"n_items": 5, "n_levels": 2,
                                            "performance": {"n_learners": 10_000_000_000_000}})
        run_error(["synth", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "bad synth performance spec: n_learners=10000000000000 too large")
        assert not (tmp_path / "o" / "items.json").exists()

    def test_performance_over_the_load_budget_writes_nothing(self, tmp_path, capsys,
                                                             monkeypatch):
        # 3 learners x 5 items, every cell attempted: a log of 15 cells,
        # which the loader refuses under a budget of 14
        cfg = write_config(tmp_path, synth={"n_items": 5, "n_levels": 2,
                                            "performance": {"n_learners": 3}})
        monkeypatch.setattr(corpus_module, "_TABLE_CELLS", 14)
        run_error(["synth", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "3 learners x 5 items are over the budget of 14 cells")
        assert not (tmp_path / "o").exists()
        monkeypatch.setattr(corpus_module, "_TABLE_CELLS", 15)
        run_ok(["synth", "-c", cfg, "-o", str(tmp_path / "o")])
        assert len(load_performance(tmp_path / "o" / "performance.csv")) == 15


class TestSim:
    @pytest.mark.parametrize("measure", ["bag/none/correlation", "solution/log/cosine", "ted"])
    def test_removed_selector_alias_is_rejected(self, tiny_dir, tmp_path, capsys, measure):
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure=measure,
                           selector="all_weighted")
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "unknown solution selector")

    def test_five_item_matrix_has_six_lines(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measure="ted")
        out = tmp_path / "out"
        run_ok(["sim", "-c", cfg, "-o", str(out)])
        text = (out / "sim.csv").read_text(encoding="utf-8")
        assert len(text.splitlines()) == 6
        ids, values = read_square_csv(text)
        assert len(ids) == 5
        assert np.allclose(np.diag(values), 1.0)

    def test_perfcorr_uses_corpus_performance_file(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measure="perfcorr")
        out = tmp_path / "out"
        run_ok(["sim", "-c", cfg, "-o", str(out)])
        ids, values = read_square_csv((out / "sim.csv").read_text(encoding="utf-8"))
        assert not np.isnan(values[0, 1])

    def test_reruns_are_byte_identical(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir),
                           measure="bag/log+max+idf+weights/correlation")
        out1, out2 = tmp_path / "one", tmp_path / "two"
        run_ok(["sim", "-c", cfg, "-o", str(out1)])
        run_ok(["sim", "-c", cfg, "-o", str(out2)])
        assert (out1 / "sim.csv").read_bytes() == (out2 / "sim.csv").read_bytes()


class TestFeatures:
    def test_writes_feature_csv(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), source="bag",
                           transforms=["log", "max"])
        out = tmp_path / "out"
        run_ok(["features", "-c", cfg, "-o", str(out)])
        lines = (out / "features.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("item_id,")
        assert len(lines) == 6

    def test_unknown_transform_token(self, corpus_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), source="bag",
                           transforms=["sqrt"])
        run_error(["features", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "unknown transform token")

    def test_weights_on_a_matrix_without_features(self, tiny_dir, tmp_path, capsys):
        # every statement word is a stopword, so the statement matrix has no column
        words = " ".join(it.statement_text for it in make_tiny_corpus().items)
        (tmp_path / "stop.txt").write_text(words, encoding="utf-8")
        cfg = write_config(tmp_path, corpus=str(tiny_dir), source="statement",
                           transforms=["weights"], stopwords=str(tmp_path / "stop.txt"))
        run_ok(["features", "-c", cfg, "-o", str(tmp_path / "out")])
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure="statement/weights/cosine",
                           stopwords=str(tmp_path / "stop.txt"))
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys, "empty feature matrix")

    @pytest.mark.parametrize("concept", ["grid_rows", "grid_cols", "command_limit"])
    def test_world_concept_named_like_a_grid_column(self, corpus_dir, tmp_path, capsys,
                                                    concept):
        # the concept column and the grid column of that name would collide
        root = tmp_path / "corpus"
        shutil.copytree(corpus_dir, root)
        edit_first_item(root, world={"grid": ["D."], "legend": {"D": concept}})
        cfg = write_config(tmp_path, corpus=str(root), source="world")
        run_error(["features", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "duplicate feature names")


class TestAgree:
    MEASURES = ["ted", "levenshtein", "bag/none/correlation"]

    def test_agreement_matrix(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measures=self.MEASURES)
        out = tmp_path / "out"
        run_ok(["agree", "-c", cfg, "-o", str(out)])
        text = (out / "agreement.csv").read_text(encoding="utf-8")
        names, values = read_square_csv(text)
        assert names == tuple(self.MEASURES)
        assert np.allclose(np.diag(values), 1.0)

    def test_measures_flag_overrides_config(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measures=["ted"])
        out = tmp_path / "out"
        run_ok(["agree", "-c", cfg, "-o", str(out),
                "--measures", "ted,levenshtein"])
        names, _ = read_square_csv((out / "agreement.csv").read_text(encoding="utf-8"))
        assert names == ("ted", "levenshtein")

    def test_corr_method_alias_matches_default(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measures=self.MEASURES)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        run_ok(["agree", "-c", cfg, "-o", str(out1)])
        run_ok(["agree", "-c", cfg, "-o", str(out2), "--method", "corr"])
        assert (out1 / "agreement.csv").read_bytes() == (out2 / "agreement.csv").read_bytes()

    def test_topn_method(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measures=self.MEASURES,
                           method="top:2")
        out = tmp_path / "out"
        run_ok(["agree", "-c", cfg, "-o", str(out)])
        _, values = read_square_csv((out / "agreement.csv").read_text(encoding="utf-8"))
        assert np.all((values >= 0) & (values <= 1))

    def test_single_measure_rejected(self, corpus_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measures=["ted"])
        run_error(["agree", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "need at least 2 measures")


class TestMetaAgree:
    def test_scalar_output(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir),
                           measures=TestAgree.MEASURES,
                           methods=["correlation", "top:2"])
        out = tmp_path / "out"
        run_ok(["meta-agree", "-c", cfg, "-o", str(out)])
        value = float((out / "meta_agree.txt").read_text(encoding="utf-8"))
        assert -1.0 <= value <= 1.0

    def test_methods_must_be_a_pair(self, corpus_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus=str(corpus_dir),
                           measures=TestAgree.MEASURES, methods=["correlation"])
        run_error(["meta-agree", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "list of two method strings")


class TestCluster:
    def test_partition_and_rand_index(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measure="ted",
                           k=2, runs=3, seed=0)
        out = tmp_path / "out"
        run_ok(["cluster", "-c", cfg, "-o", str(out)])
        lines = (out / "partition.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "item_id,label"
        assert len(lines) == 6
        labels = {int(line.split(",")[1]) for line in lines[1:]}
        assert labels <= {0, 1}
        value = float((out / "rand_index.txt").read_text(encoding="utf-8"))
        assert 0.0 <= value <= 1.0

    def test_k_must_be_an_int(self, corpus_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measure="ted", k="two")
        run_error(["cluster", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "config key 'k' must be a int")


class TestProject:
    def test_pca_embedding_with_variance_header(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), projection="pca",
                           source="bag", transforms=["log"], dims=2)
        out = tmp_path / "out"
        run_ok(["project", "-c", cfg, "-o", str(out)])
        lines = (out / "embedding.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# explained_variance: ")
        assert lines[1] == "item_id,x1,x2"
        assert len(lines) == 7

    def test_mds_embedding(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), projection="mds",
                           measure="ted", dims=2)
        out = tmp_path / "out"
        run_ok(["project", "-c", cfg, "-o", str(out)])
        lines = (out / "embedding.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "item_id,x1,x2"
        assert len(lines) == 6

    @pytest.mark.parametrize("transforms", [[3], [["x"]]], ids=["int", "list"])
    def test_pca_rejects_non_string_transform_tokens(self, corpus_dir, tmp_path, capsys,
                                                     transforms):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), projection="pca",
                           source="bag", transforms=transforms)
        run_error(["project", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "unknown transform tokens: ")

    def test_unknown_projection(self, corpus_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), projection="tsne")
        run_error(["project", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "unknown projection")


class TestStability:
    def test_uses_corpus_performance_by_default(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), min_overlap=5)
        out = tmp_path / "out"
        run_ok(["stability", "-c", cfg, "-o", str(out)])
        value = float((out / "stability.txt").read_text(encoding="utf-8"))
        assert -1.0 <= value <= 1.0

    def test_explicit_performance_path(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, performance=str(corpus_dir / "performance.csv"),
                           min_overlap=5)
        out = tmp_path / "out"
        run_ok(["stability", "-c", cfg, "-o", str(out)])
        assert (out / "stability.txt").is_file()

    def test_missing_performance(self, tmp_path, capsys):
        bare = tmp_path / "bare"
        save_corpus(make_tiny_corpus(), bare)
        cfg = write_config(tmp_path, corpus=str(bare))
        run_error(["stability", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  'config needs "performance"')


class TestRecordsReadOnlyWhenUsed:
    """performance.csv is read only by commands whose measures use records,
    so a broken file fails those commands and no others."""

    @pytest.fixture
    def broken_records(self, tiny_dir):
        (tiny_dir / "performance.csv").write_text(
            "learner_id,item_id,time_seconds,success\nL1,nowhere,2.0,1\n", encoding="utf-8")
        return tiny_dir

    @pytest.mark.parametrize("sub, settings", [
        ("sim", {"measure": "ted"}),
        ("features", {"source": "bag"}),
        ("cluster", {"measure": "bag/log/correlation", "k": 2}),
        ("project", {"projection": "mds", "measure": "levenshtein"}),
    ], ids=["sim_ted", "features_bag", "cluster_bag", "project_mds"])
    def test_unused_file_is_not_read(self, broken_records, tmp_path, sub, settings):
        cfg = write_config(tmp_path, corpus=str(broken_records), **settings)
        run_ok([sub, "-c", cfg, "-o", str(tmp_path / "o")])

    @pytest.mark.parametrize("sub, settings", [
        ("sim", {"measure": "perfcorr"}),
        ("features", {"source": "performance"}),
        ("stability", {}),
    ], ids=["sim_perfcorr", "features_performance", "stability"])
    def test_used_file_is_read(self, broken_records, tmp_path, capsys, sub, settings):
        cfg = write_config(tmp_path, corpus=str(broken_records), **settings)
        run_error([sub, "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "performance.csv:2: unknown item id 'nowhere'")


class TestHeatmap:
    def test_renders_similarity_csv(self, corpus_dir, tmp_path):
        sim_cfg = write_config(tmp_path, name="sim.json", corpus=str(corpus_dir),
                               measure="ted")
        sim_out = tmp_path / "sim"
        run_ok(["sim", "-c", sim_cfg, "-o", str(sim_out)])
        heat_cfg = write_config(tmp_path, name="heat.json",
                                matrix=str(sim_out / "sim.csv"),
                                ordering="hierarchical")
        out = tmp_path / "out"
        run_ok(["heatmap", "-c", heat_cfg, "-o", str(out)])
        svg = (out / "heatmap.svg").read_text(encoding="utf-8")
        assert svg.count("<rect ") == 25

    def test_reruns_are_byte_identical(self, corpus_dir, tmp_path):
        sim_cfg = write_config(tmp_path, name="sim.json", corpus=str(corpus_dir),
                               measure="levenshtein")
        sim_out = tmp_path / "sim"
        run_ok(["sim", "-c", sim_cfg, "-o", str(sim_out)])
        heat_cfg = write_config(tmp_path, name="heat.json",
                                matrix=str(sim_out / "sim.csv"))
        out1, out2 = tmp_path / "one", tmp_path / "two"
        run_ok(["heatmap", "-c", heat_cfg, "-o", str(out1)])
        run_ok(["heatmap", "-c", heat_cfg, "-o", str(out2)])
        assert (out1 / "heatmap.svg").read_bytes() == (out2 / "heatmap.svg").read_bytes()

    @pytest.mark.parametrize("ordering", ["none", "hierarchical"])
    def test_cells_spanning_beyond_float64(self, tmp_path, capsys, ordering):
        (tmp_path / "m.csv").write_text("item_id,a,b\na,-1e308,1.5e308\nb,1.5e308,-1e308\n",
                                        encoding="utf-8")
        cfg = write_config(tmp_path, matrix=str(tmp_path / "m.csv"), ordering=ordering)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may reach stderr
            run_error(["heatmap", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                      "heatmap cells from -1e+308 to 1.5e+308 span beyond the float64 range")
        assert not list(tmp_path.glob("o/*"))

    @pytest.mark.parametrize("rows, ordered", [
        (["item_id,a,b", "a,1e308,1e308", "b,1e308,1e308"], ["a", "b"]),
        (["item_id,a,b,c", "a,1e308,0,1.7e308", "b,0,1e308,1e308", "c,1.7e308,1e308,1e308"],
         ["a", "c", "b"]),
    ], ids=["constant", "spread"])
    @pytest.mark.parametrize("ordering", ["none", "hierarchical"])
    def test_huge_finite_cells_render(self, tmp_path, capsys, ordering, rows, ordered):
        # the triangles' sums and the merged distances overflow; the order
        # and colours do not
        (tmp_path / "m.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, matrix=str(tmp_path / "m.csv"), ordering=ordering)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_ok(["heatmap", "-c", cfg, "-o", str(tmp_path / "o")])
        assert capsys.readouterr().err == ""
        svg = (tmp_path / "o" / "heatmap.svg").read_text(encoding="utf-8")
        shown = re.findall(r'<text x="\d+" y="\d+">([^<]+)</text>', svg)
        assert shown == (sorted(ordered) if ordering == "none" else ordered)
        assert svg.count("<rect ") == len(ordered) ** 2


class TestFailedRunWritesNothing:
    def test_cluster_with_no_runs(self, corpus_dir, tmp_path, capsys):
        # the partition is computed before runs is checked
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measure="ted", k=2, runs=0)
        run_error(["cluster", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "runs must be positive")
        assert not (tmp_path / "o").exists()

    def test_performance_features_without_performance_csv(self, tiny_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus=str(tiny_dir), source="performance")
        run_error(["features", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  'config needs "performance"')
        assert not (tmp_path / "o").exists()

    def test_only_write_files_writes(self):
        """Every call in src/itemsim that writes a file or makes a directory
        sits in corpus.write_files. In the CLI only main calls it, once a
        command has returned; the library's save functions are its others."""
        writes = []
        for path in sorted(Path(itemsim.__file__).parent.glob("*.py")):
            finder = _FileWrites(path.name)
            finder.visit(ast.parse(path.read_text(encoding="utf-8")))
            writes += finder.found
        assert {where for where, _ in writes} == {
            "corpus.py:write_files", "cli.py:main", "corpus.py:save_corpus",
            "corpus.py:save_performance"}, writes

    def test_one_csv_quoting_rule(self):
        """No module in src/itemsim calls csv.writer, and csv_field is
        defined once, so every CSV file quotes its fields by one rule."""
        writers, rules = [], []
        for path in sorted(Path(itemsim.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in ("writer", "DictWriter"):
                        writers.append((path.name, node.lineno))
                if isinstance(node, ast.FunctionDef) and node.name == "csv_field":
                    rules.append(path.name)
        assert writers == []
        assert rules == ["corpus.py"]


class _FileWrites(ast.NodeVisitor):
    """(file:function, line) of each write_files, write_text, write_bytes,
    mkdir or touch call, and of each open whose mode is not a read-only
    literal."""

    def __init__(self, filename: str):
        self.filename, self.functions, self.found = filename, [], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_files", "write_text", "write_bytes", "mkdir", "touch") or (
                name == "open" and not self._read_only(node, func)):
            self.found.append((f"{self.filename}:{'.'.join(self.functions)}", node.lineno))
        self.generic_visit(node)

    @staticmethod
    def _read_only(node, func) -> bool:
        # open(file, mode) and path.open(mode)
        position = 0 if isinstance(func, ast.Attribute) else 1
        modes = [k.value for k in node.keywords if k.arg == "mode"]
        modes += node.args[position:position + 1]
        if not modes:
            return True
        mode = modes[0]
        return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


class TestConfigAndErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        run_error(["sim", "-c", str(tmp_path / "nope.json"), "-o", str(tmp_path / "o")],
                  capsys, "cannot read config")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        run_error(["sim", "-c", str(path), "-o", str(tmp_path / "o")], capsys,
                  "malformed JSON")

    def test_schema_field_required(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"measure": "ted"}', encoding="utf-8")
        run_error(["sim", "-c", str(path), "-o", str(tmp_path / "o")], capsys,
                  'config needs "schema": 1')

    def test_unknown_config_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, measure="ted", metric="cosine")
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "unknown config keys: metric")

    def test_missing_required_key(self, corpus_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus=str(corpus_dir))
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "config needs 'measure'")

    @pytest.mark.parametrize("value", ["abc", True, pytest.param(10**400, id="huge_int")])
    def test_nw_score_must_be_a_number(self, corpus_dir, tmp_path, capsys, value):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measure="nw", nw={"match": value})
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "config key 'match' must be a number")

    @pytest.mark.parametrize("sub, settings", [
        ("sim", {"measure": "nw"}),
        ("meta-agree", {"measures": ["nw", "ted"]}),
    ], ids=["sim", "meta-agree"])
    @pytest.mark.parametrize("scores", [
        (1e308, -1e308, -1e308), (1e308, 1e308, 1e308), (-1e308, -1e308, -1e308),
    ], ids=["mixed", "positive", "negative"])
    def test_overflowing_nw_scores(self, corpus_dir, tmp_path, capsys, sub, settings, scores):
        # finite scores whose alignments of whole programs are not
        nw = dict(zip(("match", "mismatch", "gap"), scores))
        cfg = write_config(tmp_path, corpus=str(corpus_dir), nw=nw, **settings)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may reach stderr
            run_error([sub, "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                      "error: nw alignment scores overflow float64 under "
                      f"match={scores[0]!r}, mismatch={scores[1]!r}, gap={scores[2]!r}\n")
        assert not list(tmp_path.glob("o/*"))

    @pytest.mark.parametrize("sub, settings", [
        ("sim", {"measure": "nw"}),
        ("meta-agree", {"measures": ["nw", "ted", "levenshtein"],
                        "methods": ["correlation", "top:2"]}),
    ], ids=["sim", "meta-agree"])
    def test_negative_zero_nw_gap_writes_the_zero_gap_bytes(self, corpus_dir, tmp_path, sub,
                                                             settings):
        # a -0.0 score is taken as +0.0
        got = _output_bytes(sub, {**settings, "nw": {"gap": -0.0}}, corpus_dir, tmp_path, "neg")
        want = _output_bytes(sub, {**settings, "nw": {"gap": 0.0}}, corpus_dir, tmp_path, "pos")
        assert got and got == want

    def test_huge_nw_scores_correlate(self, corpus_dir, tmp_path, capsys):
        # finite nw similarities whose centred sums of squares overflow
        nw = {"match": 1e300, "mismatch": -1, "gap": -1}
        cfg = write_config(tmp_path, corpus=str(corpus_dir), nw=nw, measures=["nw", "ted"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may reach stderr
            run_ok(["agree", "-c", cfg, "-o", str(tmp_path / "o")])
        assert capsys.readouterr().err == ""
        _, got = read_square_csv((tmp_path / "o" / "agreement.csv").read_text(encoding="utf-8"))
        corpus = load_corpus(corpus_dir)
        i, j = np.triu_indices(len(corpus.items), k=1)
        x = edit_similarity(corpus, "nw", nw_scoring=NwScoring(**nw)).values[i, j] / 1e300
        y = edit_similarity(corpus, "ted").values[i, j]
        assert got[0, 1] == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-8)

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify", "-c", "x", "-o", "y"]) == 1
        assert "error: " in capsys.readouterr().err

    def test_missing_corpus_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, corpus=str(tmp_path / "nowhere"), measure="ted")
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "missing items.json")

    def test_error_messages_collapse_to_one_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"schema": 1, "measure": "ted",\n "corpus": 3}',
                        encoding="utf-8")
        assert main(["sim", "-c", str(path), "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1


class TestNegativeSeeds:
    @pytest.mark.parametrize("sub, settings, flag", [
        ("cluster", {"measure": "ted", "k": 2, "seed": -1}, []),
        ("cluster", {"measure": "ted", "k": 2}, ["--seed", "-1"]),
        ("stability", {"min_overlap": 5, "seed": -1}, []),
        ("stability", {"min_overlap": 5}, ["--seed", "-1"]),
    ], ids=["cluster_config", "cluster_flag", "stability_config", "stability_flag"])
    def test_analysis_seed(self, corpus_dir, tmp_path, capsys, sub, settings, flag):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), **settings)
        run_error([sub, "-c", cfg, "-o", str(tmp_path / "o"), *flag], capsys,
                  "seed must be non-negative")

    @pytest.mark.parametrize("synth, flag", [
        ({"n_items": 5, "n_levels": 2, "seed": -1}, []),
        ({"n_items": 5, "n_levels": 2}, ["--seed", "-1"]),
        ({"n_items": 5, "n_levels": 2, "performance": {"seed": -1}}, []),
    ], ids=["config", "flag", "performance"])
    def test_synth_seed(self, tmp_path, capsys, synth, flag):
        cfg = write_config(tmp_path, synth=synth)
        run_error(["synth", "-c", cfg, "-o", str(tmp_path / "o"), *flag], capsys,
                  "seed must be non-negative")


NOT_UTF8 = b"move \xff\xfe"


class TestInputFiles:
    """Each input file that is not UTF-8 (or not JSON) gives one error line
    naming it."""

    @pytest.mark.parametrize("relative, measure", [
        ("items.json", "ted"),
        ("solutions/alpha/weights.json", "ted"),
        ("solutions/alpha/extra.robot", "ted"),
        ("solutions/alpha/extra.ast.json", "ted"),
        ("performance.csv", "perfcorr"),
    ])
    def test_undecodable_corpus_file(self, tiny_dir, tmp_path, capsys, relative, measure):
        (tiny_dir / relative).write_bytes(NOT_UTF8)
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure=measure)
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  f"{relative}: not valid UTF-8")

    def test_other_files_in_a_solution_directory_are_not_read(self, tiny_dir, tmp_path):
        (tiny_dir / "solutions" / "alpha" / "notes.bin").write_bytes(NOT_UTF8)
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure="ted")
        run_ok(["sim", "-c", cfg, "-o", str(tmp_path / "o")])

    def test_undecodable_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(NOT_UTF8)
        run_error(["sim", "-c", str(path), "-o", str(tmp_path / "o")], capsys,
                  "config.json: not valid UTF-8")

    def test_undecodable_stopwords(self, tiny_dir, tmp_path, capsys):
        (tmp_path / "stop.txt").write_bytes(NOT_UTF8)
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure="statement/none/cosine",
                           stopwords=str(tmp_path / "stop.txt"))
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "stop.txt: not valid UTF-8")

    def test_undecodable_heatmap_matrix(self, tmp_path, capsys):
        (tmp_path / "sim.csv").write_bytes(NOT_UTF8)
        cfg = write_config(tmp_path, matrix=str(tmp_path / "sim.csv"))
        run_error(["heatmap", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "sim.csv: not valid UTF-8")

    @pytest.mark.parametrize("sub, key, text", [
        ("stability", "performance",
         "learner_id,item_id,time_seconds,success\n" + "L" * 200_000 + ",alpha,1,1\n"),
        ("heatmap", "matrix", "item_id,a\na," + "1" * 200_000 + "\n"),
    ], ids=["performance_csv", "heatmap_matrix"])
    def test_csv_field_over_the_size_limit(self, tmp_path, capsys, sub, key, text):
        (tmp_path / "in.csv").write_text(text, encoding="utf-8")
        cfg = write_config(tmp_path, **{key: str(tmp_path / "in.csv")})
        run_error([sub, "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "in.csv:2: malformed CSV (field larger than field limit (131072))")

    @pytest.mark.parametrize("row, fragment", [
        (",alpha,1,1", "p.csv:3: empty learner_id"),
        ("L2,,1,1", "p.csv:3: empty item_id"),
    ], ids=["learner", "item"])
    def test_empty_performance_id(self, tmp_path, capsys, row, fragment):
        # without a corpus no item id is cross-checked
        (tmp_path / "p.csv").write_text(
            f"learner_id,item_id,time_seconds,success\nL1,alpha,1,1\n{row}\n", encoding="utf-8")
        cfg = write_config(tmp_path, performance=str(tmp_path / "p.csv"))
        run_error(["stability", "-c", cfg, "-o", str(tmp_path / "o")], capsys, fragment)

    def test_performance_tables_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # the dense learners x items tables are never allocated: np.full raises
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(np, "full", no_memory)
        (tmp_path / "p.csv").write_text(
            "learner_id,item_id,time_seconds,success\nL1,alpha,1,1\nL2,alpha,2,0\n"
            "L3,beta,1,1\n", encoding="utf-8")
        cfg = write_config(tmp_path, performance=str(tmp_path / "p.csv"))
        run_error(["stability", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "p.csv: 3 learners x 2 items do not fit in memory")

    def test_performance_tables_over_the_budget(self, tmp_path, capsys, monkeypatch):
        # the budget refuses 10**6 learners x 10**3 items and leaves the
        # 720-item scale pass, 1000 learners, far under it; here 3 x 2
        # against a budget of 5 cells is refused before np.full is called
        assert 20 * 1000 * 720 < corpus_module._TABLE_CELLS < 10**6 * 10**3

        def allocated(*args, **kwargs):
            raise AssertionError("the tables were allocated")

        monkeypatch.setattr(np, "full", allocated)
        monkeypatch.setattr(corpus_module, "_TABLE_CELLS", 5)
        (tmp_path / "p.csv").write_text(
            "learner_id,item_id,time_seconds,success\nL1,alpha,1,1\nL2,alpha,2,0\n"
            "L3,beta,1,1\n", encoding="utf-8")
        cfg = write_config(tmp_path, performance=str(tmp_path / "p.csv"))
        run_error(["stability", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  f"{tmp_path / 'p.csv'}: 3 learners x 2 items are over the budget of 5 cells")

    def test_malformed_weights_json(self, tiny_dir, tmp_path, capsys):
        (tiny_dir / "solutions" / "alpha" / "weights.json").write_text("{oops", encoding="utf-8")
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure="ted")
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "weights.json: malformed JSON")


class TestInputValues:
    """Badly typed values in items.json and weights.json are rejected where
    they are read, by the subcommand that used to crash on them; values
    too large for a conversion are bounded or rejected."""

    def test_repeat_count_longer_than_int_converts(self, tiny_dir, tmp_path):
        (tiny_dir / "solutions" / "gamma" / "sample.robot").write_text(
            "repeat " + "7" * 5000 + " { move }\n", encoding="utf-8")
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure="nw")
        run_ok(["sim", "-c", cfg, "-o", str(tmp_path / "o")])

    @pytest.mark.parametrize("sub, settings, fields, fragment", [
        ("sim", {"measure": "ted"}, {"command_limit": "7"},
         "command_limit must be an integer"),
        ("sim", {"measure": "ted"}, {"command_limit": True},
         "command_limit must be an integer"),
        ("cluster", {"measure": "ted", "k": 2}, {"level": "x"}, "level must be an integer"),
        ("cluster", {"measure": "ted", "k": 2}, {"level": True}, "level must be an integer"),
        ("sim", {"measure": "statement/none/cosine"}, {"statement_text": 5},
         "statement_text must be a string"),
        ("sim", {"measure": "world/none/cosine"},
         {"world": {"grid": ["D..", 5], "legend": {"D": "diamond"}}},
         "item 'alpha': world grid rows must be strings"),
        ("sim", {"measure": "world/none/cosine"},
         {"world": {"grid": ["D..", "M.."], "legend": {"D": 1, "M": 2}}},
         "item 'alpha': world legend values must be concept name strings"),
        ("sim", {"measure": "world/none/cosine"},
         {"world": {"grid": ["D..", "D."], "legend": {"D": "diamond"}}},
         "item 'alpha': world grid rows have unequal lengths"),
        ("features", {"source": "world"},
         {"world": {"grid": ["DM."], "legend": {"D": "diamond"}}},
         "item 'alpha': world cell code 'M' missing from legend"),
        ("sim", {"measure": "ted"}, {"id": 5}, "every entry needs a string 'id' field"),
        ("features", {"source": "world"}, {"command_limit": 10**400},
         "command_limit does not fit a float"),
    ], ids=["command_limit_str", "command_limit_bool", "level_str", "level_bool",
            "statement_int", "grid_row_int", "legend_value_int", "grid_ragged",
            "cell_code_missing", "id_int", "command_limit_huge"])
    def test_items_json(self, tiny_dir, tmp_path, capsys, sub, settings, fields, fragment):
        edit_first_item(tiny_dir, **fields)
        cfg = write_config(tmp_path, corpus=str(tiny_dir), **settings)
        run_error([sub, "-c", cfg, "-o", str(tmp_path / "o")], capsys, fragment)

    @pytest.mark.parametrize("weight", ["abc", "2.5", True, None,
                                        pytest.param(10**400, id="huge_int")])
    def test_weights_json(self, tiny_dir, tmp_path, capsys, weight):
        path = tiny_dir / "solutions" / "alpha" / "weights.json"
        path.write_text(json.dumps({"learner.robot": weight}), encoding="utf-8")
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure="ted")
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "'learner.robot' needs a finite positive weight")

    def test_tree_pair_over_the_table_budget(self, tiny_dir, tmp_path, capsys, monkeypatch):
        # the budget patched low: the check runs before any table is built
        monkeypatch.setattr(editdist, "_TD_BUDGET", 1)
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure="ted")
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "entries, over the budget of 1")


def _nested_robot(depth):
    return "while wall {\n" * depth + "move\n" + "}\n" * depth


def _nested_document(depth):
    doc = '{"label":"move","children":[]}'
    for _ in range(depth):
        doc = '{"label":"while_wall","children":[' + doc + "]}"
    return '{"label":"program","children":[' + doc + "]}"


class TestDeepNesting:
    @pytest.mark.parametrize("name, text", [
        ("deep.robot", _nested_robot(1200)),
        ("deep.ast.json", _nested_document(900)),
    ], ids=["robot", "ast_json"])
    @pytest.mark.parametrize("measure", ["ted", "levenshtein", "nw"])
    def test_too_deep_is_one_error_line(self, tiny_dir, tmp_path, capsys, name, text, measure):
        (tiny_dir / "solutions" / "gamma" / name).write_text(text, encoding="utf-8")
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure=measure)
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  f"gamma/{name}: nesting too deep")

    @pytest.mark.parametrize("measure", ["ted", "levenshtein", "nw"])
    def test_300_levels_still_compute(self, tiny_dir, tmp_path, measure):
        (tiny_dir / "solutions" / "gamma" / "sample.robot").write_text(
            _nested_robot(300), encoding="utf-8")
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure=measure)
        run_ok(["sim", "-c", cfg, "-o", str(tmp_path / "o")])
        ids, values = read_square_csv((tmp_path / "o" / "sim.csv").read_text(encoding="utf-8"))
        assert ids == ("alpha", "beta", "gamma")
        assert np.isfinite(values).all()


class TestOneNestingBound:
    @pytest.mark.parametrize("form", NESTED_FORMS)
    @pytest.mark.parametrize("measure", ["ted", "levenshtein", "nw"])
    def test_329_levels_compute(self, tiny_dir, tmp_path, form, measure):
        (tiny_dir / "solutions" / "gamma" / "sample.robot").write_text(
            nested_robot_source(form, 329), encoding="utf-8")
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure=measure)
        run_ok(["sim", "-c", cfg, "-o", str(tmp_path / "o")])
        ids, values = read_square_csv((tmp_path / "o" / "sim.csv").read_text(encoding="utf-8"))
        assert ids == ("alpha", "beta", "gamma")
        assert np.isfinite(values).all()

    @pytest.mark.parametrize("form", NESTED_FORMS)
    def test_330_levels_are_one_error_line(self, tiny_dir, tmp_path, capsys, form):
        (tiny_dir / "solutions" / "gamma" / "sample.robot").write_text(
            nested_robot_source(form, 330), encoding="utf-8")
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure="ted")
        run_error(["sim", "-c", cfg, "-o", str(tmp_path / "o")], capsys,
                  "gamma/sample.robot: nesting too deep")


# commands whose sources read no solution file, with their config settings
_NO_SOLUTION_RUNS = {
    "sim_perfcorr": ("sim", {"measure": "perfcorr", "min_overlap": 5}),
    "stability": ("stability", {"min_overlap": 5}),
    "features_statement": ("features", {"source": "statement"}),
    "features_world": ("features", {"source": "world"}),
    "project_pca_statement": ("project", {"projection": "pca", "source": "statement"}),
}


def _output_bytes(command, settings, corpus, tmp_path, name):
    cfg = write_config(tmp_path, name=f"{name}.json", corpus=str(corpus), **settings)
    out = tmp_path / name
    run_ok([command, "-c", cfg, "-o", str(out)])
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _same_matrix(a, b):
    return a.item_ids == b.item_ids and np.array_equal(a.values, b.values, equal_nan=True)


class TestSolutionsOnlyWhereRead:
    """A malformed solution file fails only the commands that read solutions."""

    @pytest.fixture
    def broken(self, corpus_dir, tmp_path):
        root = tmp_path / "broken"
        shutil.copytree(corpus_dir, root)
        path = sorted((root / "solutions").iterdir())[0] / "zz.robot"
        path.write_text("fly {\n", encoding="utf-8")
        return root, path

    @pytest.mark.parametrize("run", sorted(_NO_SOLUTION_RUNS))
    def test_commands_that_read_no_solution_succeed(self, corpus_dir, broken, tmp_path, run):
        command, settings = _NO_SOLUTION_RUNS[run]
        clean = _output_bytes(command, settings, corpus_dir, tmp_path, "out_clean")
        assert clean
        assert _output_bytes(command, settings, broken[0], tmp_path, "out_broken") == clean

    @pytest.mark.parametrize("command, settings", [
        ("sim", {"measure": "ted"}),
        ("features", {"source": "bag"}),
    ], ids=["sim_ted", "features_bag"])
    def test_commands_that_read_solutions_fail(self, broken, tmp_path, capsys, command,
                                               settings):
        root, path = broken
        cfg = write_config(tmp_path, corpus=str(root), **settings)
        assert main([command, "-c", cfg, "-o", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}: 1:1: unknown keyword 'fly'\n"
        assert not (tmp_path / "o").exists()

    def test_every_source_that_reads_solutions_is_listed(self, corpus_dir):
        full = load_corpus(corpus_dir)
        bare = load_corpus(corpus_dir, solutions=False)
        records = load_performance(corpus_dir / "performance.csv", full)
        params = MeasureParams(min_overlap=5)
        names = [f"{s}/none/cosine" for s in FEATURE_SOURCES] + ["ted", "levenshtein", "nw",
                                                                   "perfcorr"]
        for name in names:
            expected = compute_measure(full, name, performance=records, params=params)
            if parse_measure(name).source not in SOLUTION_SOURCES:
                got = compute_measure(bare, name, performance=records, params=params)
                assert _same_matrix(got, expected), name
                continue
            # the listed sources do see the missing solutions, so the check above
            # would catch a source that reads them and is left out of the tuple
            try:
                got = compute_measure(bare, name, performance=records, params=params)
            except ItemsimError:
                continue
            assert not _same_matrix(got, expected), name


def _sim_stderr_and_bytes(cfg, out_root):
    """stderr and sim.csv of `sim` run as a subprocess at the default log
    level and at info."""
    src = str(Path(itemsim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "ITEMSIM_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    runs = {}
    for level in ("default", "info"):
        out = out_root / level
        run_env = env if level == "default" else {**env, "ITEMSIM_LOG": level}
        result = subprocess.run(
            [sys.executable, "-m", "itemsim.cli", "sim", "-c", cfg, "-o", str(out)],
            env=run_env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        runs[level] = result.stderr, (out / "sim.csv").read_bytes()
    assert runs["default"][0] == ""
    assert runs["default"][1] == runs["info"][1]
    return runs["info"][0]


class TestLogging:
    def test_info_reports_edit_work_and_outputs_stay_the_same(self, tiny_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(tiny_dir), measure="ted", selector="all")
        # 6 self pairs on the diagonal and 3*2 + 3*1 + 2*1 cross pairs
        assert ("INFO itemsim.similarity: edit ted: 3 items, 17 solution pairs, "
                "11 kernel calls, 6 known self pairs, 0 pairs from repeated inputs"
                in _sim_stderr_and_bytes(cfg, tmp_path))

    def test_info_reports_perfcorr_work_and_outputs_stay_the_same(self, corpus_dir, tmp_path):
        cfg = write_config(tmp_path, corpus=str(corpus_dir), measure="perfcorr")
        assert ("INFO itemsim.similarity: perfcorr log_time: 5 items, 25 learners, "
                "0 pairs below min_overlap 10, 0 pairs with a constant item, "
                "0 low-variance pairs re-checked\n" in _sim_stderr_and_bytes(cfg, tmp_path))
