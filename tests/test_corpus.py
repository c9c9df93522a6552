"""Corpus data model, directory loading and saving, performance logs."""

import csv
import io
import json
import logging
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from itemsim import (
    AstNode,
    Corpus,
    Item,
    ItemsimError,
    PerformanceTable,
    Solution,
    WorldSpec,
    load_corpus,
    load_performance,
    node,
    save_corpus,
    save_performance,
    select_solutions,
)
from itemsim import corpus as corpus_module
from itemsim.corpus import (
    _BLOCK_CHARS,
    _not_utf8,
    corpus_files,
    items_index_json,
    performance_csv,
    read_json,
    read_performance,
    text_rows,
    write_files,
)

from conftest import char_mutant, make_tiny_corpus
from oracles import reference_read_performance


class TestWorldSpec:
    def test_counts_cells_per_concept(self):
        w = WorldSpec(grid=("DMD", "..M"), legend={"D": "diamond", "M": "meteorite"})
        assert w.rows == 2
        assert w.cols == 3
        assert w.concept_counts() == {"diamond": 2, "meteorite": 2}

    def test_codes_sharing_a_concept_are_summed(self):
        w = WorldSpec(grid=("ab",), legend={"a": "color", "b": "color"})
        assert w.concept_counts() == {"color": 2}

    def test_blank_cells_need_no_legend(self):
        w = WorldSpec(grid=(" .", ". "), legend={})
        assert w.concept_counts() == {}

    def test_ragged_grid_rejected(self):
        with pytest.raises(ItemsimError, match="unequal"):
            WorldSpec(grid=("ab", "a"), legend={"a": "x", "b": "y"})

    def test_unknown_cell_code_rejected(self):
        with pytest.raises(ItemsimError, match="legend"):
            WorldSpec(grid=("Z",), legend={})


class TestSolutionAndItem:
    def test_weight_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ItemsimError):
                Solution(ast=node("move"), weight=bad)

    def test_kind_restricted(self):
        with pytest.raises(ItemsimError, match="kind"):
            Solution(ast=node("move"), kind="grader")

    def test_item_id_charset(self):
        with pytest.raises(ItemsimError, match="invalid item id"):
            Item(id="bad id", statement_text="x")
        with pytest.raises(ItemsimError, match="invalid item id"):
            Item(id="", statement_text="x")

    def test_item_needs_some_content(self):
        with pytest.raises(ItemsimError, match="no statement"):
            Item(id="a")

    def test_command_limit_positive(self):
        with pytest.raises(ItemsimError, match="command_limit"):
            Item(id="a", statement_text="x", command_limit=0)

    def test_sample_and_learner_accessors(self):
        sample = Solution(ast=node("move"), kind="sample")
        learner = Solution(ast=node("left"), kind="learner")
        item = Item(id="a", solutions=(learner, sample))
        assert item.sample_solution() is sample
        assert item.learner_solutions() == (learner,)


class TestSelectSolutions:
    def setup_method(self):
        self.sample = Solution(ast=node("move"), kind="sample")
        self.light = Solution(ast=node("left"), weight=1.0, kind="learner")
        self.heavy = Solution(ast=node("right"), weight=4.0, kind="learner")
        self.heavy_too = Solution(ast=node("shoot"), weight=4.0, kind="learner")
        self.item = Item(id="a", solutions=(self.sample, self.light, self.heavy,
                                            self.heavy_too))

    def test_sample(self):
        assert select_solutions(self.item, "sample") == (self.sample,)

    def test_sample_missing_yields_empty(self):
        item = Item(id="a", solutions=(self.light,))
        assert select_solutions(item, "sample") == ()

    def test_top_learner_takes_heaviest_first_on_ties(self):
        assert select_solutions(self.item, "top_learner") == (self.heavy,)

    def test_all(self):
        assert select_solutions(self.item, "all") == self.item.solutions

    def test_unknown_selector(self):
        with pytest.raises(ItemsimError, match="selector"):
            select_solutions(self.item, "best")


class TestCorpus:
    def test_requires_sorted_unique_ids(self):
        a = Item(id="a", statement_text="x")
        b = Item(id="b", statement_text="y")
        with pytest.raises(ItemsimError, match="sorted"):
            Corpus((b, a))
        with pytest.raises(ItemsimError, match="duplicate"):
            Corpus((a, a))

    def test_lookup(self):
        corpus = make_tiny_corpus()
        assert corpus.item_ids == ("alpha", "beta", "gamma")
        assert len(corpus) == 3
        assert corpus.get("beta").id == "beta"
        with pytest.raises(KeyError):
            corpus.get("zz")


def _write_layout(root):
    (root / "items.json").write_text(json.dumps([
        {"id": "p2", "statement_text": "Second puzzle", "level": 1},
        {"id": "p1", "statement_text": "First puzzle",
         "world": {"grid": ["D."], "legend": {"D": "diamond"}},
         "command_limit": 5, "level": 0},
    ]), encoding="utf-8")
    sol = root / "solutions" / "p1"
    sol.mkdir(parents=True)
    (sol / "sample.robot").write_text("move shoot\n", encoding="utf-8")
    (sol / "b.robot").write_text("move\n", encoding="utf-8")
    (sol / "a.ast.json").write_text('{"label":"walk","children":[]}', encoding="utf-8")
    (sol / "weights.json").write_text('{"a.ast.json": 2.5}', encoding="utf-8")


class TestLoadCorpus:
    def test_loads_items_sorted_with_solutions(self, tmp_path):
        _write_layout(tmp_path)
        corpus = load_corpus(tmp_path)
        assert corpus.item_ids == ("p1", "p2")
        p1 = corpus.get("p1")
        assert p1.statement_text == "First puzzle"
        assert p1.world.concept_counts() == {"diamond": 1}
        assert p1.command_limit == 5
        assert p1.level == 0
        # solution files in filename order; sample* prefix marks the sample
        kinds = [s.kind for s in p1.solutions]
        assert kinds == ["learner", "learner", "sample"]
        assert [s.weight for s in p1.solutions] == [2.5, 1.0, 1.0]
        assert p1.solutions[0].ast == node("walk")
        assert p1.sample_solution().ast == node("program", node("move"), node("shoot"))
        assert corpus.get("p2").solutions == ()

    def test_missing_index(self, tmp_path):
        with pytest.raises(ItemsimError, match="items.json"):
            load_corpus(tmp_path)

    def test_malformed_index(self, tmp_path):
        (tmp_path / "items.json").write_text("{oops", encoding="utf-8")
        with pytest.raises(ItemsimError, match="malformed"):
            load_corpus(tmp_path)

    def test_duplicate_id(self, tmp_path):
        (tmp_path / "items.json").write_text(
            '[{"id": "a", "statement_text": "x"}, {"id": "a", "statement_text": "y"}]',
            encoding="utf-8")
        with pytest.raises(ItemsimError, match="duplicate item id"):
            load_corpus(tmp_path)

    def test_solution_dir_for_unknown_item(self, tmp_path):
        (tmp_path / "items.json").write_text('[{"id": "a", "statement_text": "x"}]',
                                             encoding="utf-8")
        orphan = tmp_path / "solutions" / "zz"
        orphan.mkdir(parents=True)
        (orphan / "sample.robot").write_text("move", encoding="utf-8")
        with pytest.raises(ItemsimError, match="zz"):
            load_corpus(tmp_path)

    def test_unparsable_solution_reports_file_and_position(self, tmp_path):
        (tmp_path / "items.json").write_text('[{"id": "a", "statement_text": "x"}]',
                                             encoding="utf-8")
        sol = tmp_path / "solutions" / "a"
        sol.mkdir(parents=True)
        (sol / "sample.robot").write_text("\nrepeat { move }", encoding="utf-8")
        with pytest.raises(ItemsimError, match=r"sample\.robot.*2:8"):
            load_corpus(tmp_path)

    def test_save_load_round_trip(self, tmp_path):
        from itemsim.tree import ast_to_document

        def key(sol):
            return (sol.kind, sol.weight, ast_to_document(sol.ast))

        corpus = make_tiny_corpus()
        save_corpus(corpus, tmp_path / "out")
        again = load_corpus(tmp_path / "out")
        assert again.item_ids == corpus.item_ids
        for item_id in corpus.item_ids:
            a, b = corpus.get(item_id), again.get(item_id)
            assert a.statement_text == b.statement_text
            assert a.level == b.level
            assert a.command_limit == b.command_limit
            assert (a.world is None) == (b.world is None)
            if a.world is not None:
                assert a.world.grid == b.world.grid
                assert a.world.legend == b.world.legend
            # loading orders solutions by filename, so compare as multisets
            assert sorted(map(key, a.solutions)) == sorted(map(key, b.solutions))

    @pytest.mark.parametrize("label", ["call_if", "def_move", "while_repeat", "if_else",
                                       "while_a==def"])
    def test_keyword_named_labels_saved_as_documents(self, tmp_path, label):
        body = () if label.startswith("call_") else (node("move"),)
        ast = node("program", AstNode(label, body), node("left"))
        item = Item(id="a", statement_text="x", solutions=(Solution(ast=ast, kind="sample"),))
        save_corpus(Corpus((item,)), tmp_path / "out")
        sol_dir = tmp_path / "out" / "solutions" / "a"
        assert [p.name for p in sol_dir.iterdir()] == ["sample.ast.json"]
        assert load_corpus(tmp_path / "out").get("a").solutions[0].ast == ast

    def test_corpus_files_are_what_save_corpus_writes(self, tmp_path):
        corpus = make_tiny_corpus()
        save_corpus(corpus, tmp_path)
        written = {p.relative_to(tmp_path).as_posix(): p.read_bytes()
                   for p in tmp_path.rglob("*") if p.is_file()}
        files = corpus_files(corpus)
        assert written == {name: text.encode("utf-8") for name, text in files.items()}
        assert "solutions/alpha/weights.json" in files

    def test_save_is_byte_deterministic(self, tmp_path):
        corpus = make_tiny_corpus()
        save_corpus(corpus, tmp_path / "one")
        save_corpus(corpus, tmp_path / "two")
        one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*")
                     if p.is_file())
        two = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*")
                     if p.is_file())
        assert one == two
        for rel in one:
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()

    def test_index_serialization_is_stable(self):
        corpus = make_tiny_corpus()
        assert items_index_json(corpus) == items_index_json(corpus)


def _without_solutions(corpus):
    return Corpus(tuple(replace(it, solutions=()) for it in corpus.items))


def _refuse_to_parse(monkeypatch):
    def refuse(source):
        raise AssertionError("a solution file was parsed")

    monkeypatch.setattr(corpus_module, "parse_robot_program", refuse)
    monkeypatch.setattr(corpus_module, "ast_from_document", refuse)


def _load_error(path, solutions):
    with pytest.raises(ItemsimError) as excinfo:
        load_corpus(path, solutions=solutions)
    return str(excinfo.value)


class TestLoadWithoutSolutions:
    def test_equals_the_full_load_with_the_solutions_removed(self, tmp_path):
        (tmp_path / "layout").mkdir()
        _write_layout(tmp_path / "layout")
        save_corpus(make_tiny_corpus(), tmp_path / "tiny")
        for root in (tmp_path / "layout", tmp_path / "tiny"):
            full = load_corpus(root)
            assert any(it.solutions for it in full.items)
            assert load_corpus(root, solutions=False) == _without_solutions(full)

    def test_parses_no_solution_file(self, tmp_path, monkeypatch):
        _write_layout(tmp_path)
        expected = _without_solutions(load_corpus(tmp_path))
        (tmp_path / "solutions" / "p1" / "broken.robot").write_text("fly {", encoding="utf-8")
        _refuse_to_parse(monkeypatch)
        assert load_corpus(tmp_path, solutions=False) == expected
        with pytest.raises(AssertionError, match="parsed"):
            load_corpus(tmp_path)

    def test_an_item_with_only_solutions_keeps_them(self, tmp_path):
        # an Item needs a statement, a world or a solution
        _write_layout(tmp_path)
        entries = json.loads((tmp_path / "items.json").read_text(encoding="utf-8"))
        entries.append({"id": "p3"})
        (tmp_path / "items.json").write_text(json.dumps(entries), encoding="utf-8")
        (tmp_path / "solutions" / "p3").mkdir()
        (tmp_path / "solutions" / "p3" / "sample.robot").write_text("left", encoding="utf-8")
        full = load_corpus(tmp_path)
        bare = load_corpus(tmp_path, solutions=False)
        assert bare.item_ids == ("p1", "p2", "p3")
        assert bare.get("p1").solutions == ()
        assert bare.get("p3") == full.get("p3")

    @pytest.mark.parametrize("index", [
        None, "{oops", '{"id": "a"}', '[{"statement_text": "x"}]',
        '[{"id": "a", "statement_text": "x"}, {"id": "a", "statement_text": "y"}]',
        '[{"id": "bad id", "statement_text": "x"}]', '[{"id": "a"}]',
        '[{"id": "a", "statement_text": "x", "world": {"grid": ["M"]}}]',
        '[{"id": "a", "statement_text": "x", "level": 1.5}]',
    ], ids=["missing", "malformed", "not_a_list", "no_id", "duplicate", "bad_id", "empty",
            "world", "level"])
    def test_index_errors_keep_their_text(self, tmp_path, index):
        if index is not None:
            (tmp_path / "items.json").write_text(index, encoding="utf-8")
        assert _load_error(tmp_path, False) == _load_error(tmp_path, True)

    def test_orphan_solutions_directory_keeps_its_text(self, tmp_path, monkeypatch):
        _write_layout(tmp_path)
        (tmp_path / "solutions" / "zz").mkdir()
        expected = _load_error(tmp_path, True)
        assert "solutions directory 'zz' has no matching item" in expected
        _refuse_to_parse(monkeypatch)
        assert _load_error(tmp_path, False) == expected


class TestLoadWork:
    """On the tiny corpus, counted through wrappers around the module's
    directory listing and file open: one listing of solutions/ and one of
    each item's directory, and one open of each file the corpus holds."""

    @pytest.fixture
    def calls(self, tmp_path, monkeypatch):
        save_corpus(make_tiny_corpus(), tmp_path / "tiny")
        listed, opened = [], []
        listing = corpus_module._listing

        def counting_listing(directory, keep):
            listed.append(str(directory))
            return listing(directory, keep)

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(corpus_module, "_listing", counting_listing)
        monkeypatch.setattr(corpus_module, "open", counting_open, raising=False)
        return tmp_path / "tiny", listed, opened

    def test_each_directory_listed_and_each_file_opened_once(self, calls):
        root, listed, opened = calls
        load_corpus(root)
        solutions = root / "solutions"
        assert sorted(listed) == [str(solutions), *(str(solutions / i) for i in
                                                     ("alpha", "beta", "gamma"))]
        files = sorted(str(p) for p in root.rglob("*") if p.is_file())
        assert any(p.endswith("weights.json") for p in files)
        assert sorted(opened) == files

    def test_without_solutions_no_solution_file_is_opened(self, calls):
        # every tiny item has a statement
        root, listed, opened = calls
        load_corpus(root, solutions=False)
        assert listed == [str(root / "solutions")]
        assert opened == [str(root / "items.json")]


class TestReadText:
    def test_line_endings_read_as_in_text_mode(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("\ufeffa\r\nb\rc\n\r\r\nd".encode("utf-8"))
        assert corpus_module.read_text(path) == path.read_text(encoding="utf-8")
        assert corpus_module.read_text(str(path)) == "\ufeffa\nb\nc\n\n\nd"

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"ok\r\n\xc3")
        with pytest.raises(ItemsimError) as excinfo:
            corpus_module.read_text(path)
        assert str(excinfo.value) == f"{path}: not valid UTF-8 (unexpected end of data)"


PERF_TEXT = """learner_id,item_id,time_seconds,success
l1,alpha,12.5,1
l1,beta,3,0
l2,alpha,7.25,1
"""


class TestPerformance:
    def test_table_keeps_what_the_log_says(self):
        table = PerformanceTable.from_records([
            ("l1", "a", 12.5, True), ("l2", "b", 0.1, False), ("l1", "b", 3.0, True)])
        assert [f.name for f in fields(PerformanceTable)] == [
            "learner_ids", "item_ids", "time_seconds", "success"]
        assert table.log_time.tobytes() == np.log(table.time_seconds).tobytes()
        assert np.isnan(table.log_time[1, 0]) and np.isnan(table.time_seconds[1, 0])

    def test_reads_rows_in_order(self, tmp_path):
        path = tmp_path / "performance.csv"
        path.write_text(PERF_TEXT, encoding="utf-8")
        table = load_performance(path)
        assert len(table) == 3
        assert table.learner_ids == ("l1", "l2")
        assert table.item_ids == ("alpha", "beta")
        assert table.time_seconds[0, 0] == 12.5 and table.success[0, 0] == 1.0
        assert table.success[0, 1] == 0.0
        assert np.isnan(table.time_seconds[1, 1]) and np.isnan(table.success[1, 1])

    def test_header_must_match_exactly(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("learner,item,time,success\nl,i,1,1\n", encoding="utf-8")
        with pytest.raises(ItemsimError, match="header"):
            load_performance(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ItemsimError, match="empty"):
            load_performance(path)

    def test_nonpositive_time_rejected(self, tmp_path):
        for bad in ("-1", "0", "nan", "inf"):
            path = tmp_path / "p.csv"
            path.write_text(
                f"learner_id,item_id,time_seconds,success\nl,i,{bad},1\n",
                encoding="utf-8")
            with pytest.raises(ItemsimError, match="time"):
                load_performance(path)

    def test_non_numeric_time_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("learner_id,item_id,time_seconds,success\nl,i,soon,1\n",
                        encoding="utf-8")
        with pytest.raises(ItemsimError, match="non-numeric"):
            load_performance(path)

    def test_success_must_be_binary(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("learner_id,item_id,time_seconds,success\nl,i,1,2\n",
                        encoding="utf-8")
        with pytest.raises(ItemsimError, match="success"):
            load_performance(path)

    def test_empty_ids_name_the_line(self, tmp_path):
        for row, name in ((",i,1,1", "learner_id"), ("l,,1,1", "item_id")):
            path = tmp_path / "p.csv"
            path.write_text(f"learner_id,item_id,time_seconds,success\nl,i,1,1\n{row}\n",
                            encoding="utf-8")
            with pytest.raises(ItemsimError, match=f"p.csv:3: empty {name}$"):
                load_performance(path)

    def test_byte_order_mark_in_ids_names_the_line(self, tmp_path):
        # a BOM inside the file, say from concatenated exports, is no part of an id
        for row, name in (("\ufeffL1,i,1,1", "learner_id"), ("l,\ufeffi,1,1", "item_id")):
            path = tmp_path / "p.csv"
            path.write_text(f"learner_id,item_id,time_seconds,success\nL1,i,1,1\n{row}\n",
                            encoding="utf-8")
            with pytest.raises(ItemsimError, match=f"p.csv:3: byte-order mark in {name}$"):
                load_performance(path)

    def test_malformed_csv_names_the_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text('learner_id,item_id,time_seconds,success\nl,i,1,1\n"l' + "x" * 200_000
                        + '",i,1,1\n', encoding="utf-8")
        with pytest.raises(ItemsimError, match=r"p.csv:3: malformed CSV \(field larger"):
            load_performance(path)

    def test_duplicates_keep_first_and_are_counted(self, caplog):
        import io
        text = ("learner_id,item_id,time_seconds,success\n"
                "l,i,1,1\nl,i,99,0\nl,j,2,1\n")
        with caplog.at_level(logging.WARNING, logger="itemsim.corpus"):
            table = read_performance(io.StringIO(text))
        assert len(table) == 2
        assert table.time_seconds[0, 0] == 1.0
        assert "1 duplicate" in caplog.text

    @staticmethod
    def _dense_load(tmp_path, learners: int, items: int):
        # the table of a log with every cell attempted, rows shuffled so that
        # first-seen order is not id order, and the load's tracemalloc peak
        rng = np.random.default_rng(3)
        rows = [f"L{l},I{i},{t:.3f},{l % 2}\n" for l in range(learners) for i in range(items)
                for t in [float(rng.random()) * 100 + 1]]
        path = tmp_path / "performance.csv"
        path.write_text(HEADER + "".join(rows[k] for k in rng.permutation(len(rows))),
                        encoding="utf-8")
        tracemalloc.start()
        try:
            table = load_performance(path)
            return table, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dense_load_memory_per_cell(self, tmp_path):
        # 200 learners x 300 items. The table keeps 16 bytes a cell (time,
        # success); copying the tables from first-seen into id order, and
        # holding every log time as a Python float, made a load peak at
        # about 170
        table, peak = self._dense_load(tmp_path, 200, 300)
        assert table.time_seconds.shape == (200, 300) and len(table) == 200 * 300
        assert table.learner_ids[:3] == ("L0", "L1", "L10")
        assert table.success[2, 5] == 0.0  # L10
        assert peak < 100 * 200 * 300

    def test_dense_load_frees_the_read_blocks_first(self, tmp_path):
        # 400 learners x 300 items: keeping the reader's lists of blocks of
        # cells, times and successes alive while the tables were built made
        # a load peak at about 72 bytes a cell; about 63 without them
        table, peak = self._dense_load(tmp_path, 400, 300)
        assert len(table) == 400 * 300
        assert peak < 68 * 400 * 300

    def test_corpus_cross_check(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("learner_id,item_id,time_seconds,success\nl,zz,1,1\n",
                        encoding="utf-8")
        with pytest.raises(ItemsimError, match="unknown item id"):
            load_performance(path, corpus=make_tiny_corpus())

    def test_csv_round_trip(self, tmp_path):
        table = PerformanceTable.from_records([
            ("l1", "alpha", 12.5, True),
            ("l2", "beta", 0.125, False),
        ])
        path = tmp_path / "performance.csv"
        save_performance(table, path)
        loaded = load_performance(path)
        assert (loaded.learner_ids, loaded.item_ids) == (table.learner_ids, table.item_ids)
        for name in ("time_seconds", "success", "log_time"):
            assert np.array_equal(getattr(loaded, name), getattr(table, name), equal_nan=True)
        assert performance_csv(table).endswith("l2,beta,0.125,0\n")

    def test_edge_times_write_as_nine_digits_and_read_by_column(self, monkeypatch):
        # the lines an f"{t:.9g}" loop gives: a third, the smallest subnormal,
        # the largest float and a value past 9 digits
        table = PerformanceTable.from_records([
            ("l1", "a", 1 / 3, True), ("l1", "b", 5e-324, False),
            ("l2", "a", 1.7976931348623157e308, True), ("l2", "b", 123456789012.0, False),
        ])
        data = performance_csv(table)
        assert data == ("learner_id,item_id,time_seconds,success\n"
                        "l1,a,0.333333333,1\n"
                        "l1,b,4.94065646e-324,0\n"
                        "l2,a,1.79769313e+308,1\n"
                        "l2,b,1.23456789e+11,0\n")
        calls = []
        monkeypatch.setattr(corpus_module, "csv_rows",
                            lambda *args: calls.append(args) or iter(()))
        loaded = read_performance(io.StringIO(data))
        assert calls == []
        assert (loaded.learner_ids, loaded.item_ids) == (table.learner_ids, table.item_ids)
        assert loaded.time_seconds.tolist() == [[0.333333333, 4.94065646e-324],
                                                [1.79769313e+308, 1.23456789e+11]]
        assert loaded.success.tobytes() == table.success.tobytes()

    def test_ids_needing_quotes_round_trip(self, tmp_path):
        # read -> write -> read: ids holding a comma, a quote and line breaks
        text = ('learner_id,item_id,time_seconds,success\n'
                '"a,b","i""1",2.5,1\n'
                '"two\nlines",plain,3,0\n'
                '"cr\rid","i""1",4,1\n')
        path = tmp_path / "performance.csv"
        path.write_bytes(text.encode("utf-8"))
        table = load_performance(path)
        assert table.learner_ids == ("a,b", "cr\rid", "two\nlines")
        assert table.item_ids == ('i"1', "plain")
        save_performance(table, path)
        again = load_performance(path)
        assert (again.learner_ids, again.item_ids) == (table.learner_ids, table.item_ids)
        for name in ("time_seconds", "success"):
            assert np.array_equal(getattr(again, name), getattr(table, name), equal_nan=True)
        assert performance_csv(again).encode("utf-8") == path.read_bytes()


HEADER = "learner_id,item_id,time_seconds,success\n"
SWEEP_CORPUS = Corpus(tuple(Item(id=f"i{k:02d}", statement_text="x") for k in range(30)))


def _plain_rows(rng, n_rows):
    """n_rows shuffled LF data lines over SWEEP_CORPUS's items, about a
    tenth of them repeating an earlier (learner, item) pair."""
    lines = []
    for _ in range(n_rows):
        if lines and rng.random() < 0.1:
            learner, item, _, _ = lines[int(rng.integers(len(lines)))].split(",")
        else:
            learner, item = f"L{int(rng.integers(n_rows // 8 + 1))}", f"i{int(rng.integers(30)):02d}"
        time_seconds = float(np.exp(rng.normal(3, 1)))
        lines.append(f"{learner},{item},{time_seconds:.9g},{int(rng.integers(2))}\n")
    return lines


def _outcome(read):
    """(ids, matrix bytes, warnings) of read() or the text of its error."""
    records = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append(record.getMessage())
    logger = logging.getLogger("itemsim.corpus")
    logger.addHandler(handler)
    try:
        got = read()
    except ItemsimError as e:
        return str(e)
    finally:
        logger.removeHandler(handler)
    table, warnings = got if isinstance(got, tuple) else (got, records)  # the reference's pair
    return (table.learner_ids, table.item_ids, table.time_seconds.shape,
            table.time_seconds.tobytes(), table.success.tobytes(), table.log_time.tobytes(),
            warnings)


def assert_reads_as_reference(path, data: bytes):
    """load_performance, and read_performance over a StringIO, give the
    reference's table and warning or raise its error text. Returns the
    outcome for the file."""
    path.write_bytes(data)

    def reference():
        with open(path, encoding="utf-8", newline="") as fh:
            try:
                return reference_read_performance(fh, SWEEP_CORPUS, str(path))
            except UnicodeDecodeError as e:
                raise _not_utf8(path, e) from None

    expected = _outcome(reference)
    assert _outcome(lambda: load_performance(path, SWEEP_CORPUS)) == expected
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return expected
    assert (_outcome(lambda: read_performance(io.StringIO(text), SWEEP_CORPUS))
            == _outcome(lambda: reference_read_performance(io.StringIO(text), SWEEP_CORPUS)))
    return expected


class TestReadPerformanceMatchesReference:
    """read_performance reads plain files by column in blocks of
    _BLOCK_CHARS characters and everything else by line; either way it
    must equal tests/oracles.reference_read_performance."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_files_straddling_the_block_boundary(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        row_chars = len("".join(_plain_rows(rng, 400))) / 400
        boundary_rows = int(_BLOCK_CHARS / row_chars)
        for n_rows in (0, 1, boundary_rows - 3, boundary_rows, boundary_rows + 3,
                       2 * boundary_rows + 7, 5 * boundary_rows):
            rows = _plain_rows(rng, n_rows)
            text = HEADER + "".join(rows)
            variants = {
                "lf": text,
                "no final newline": text.rstrip("\n"),
                "crlf": text.replace("\n", "\r\n"),
                "quoted ids": text.replace("L1,", '"L,1",').replace("L2,", '"L""2",'),
            }
            if rows:
                middle = 1 + len(rows) // 2
                lines = text.splitlines(keepends=True)
                variants["mid-file bom"] = "".join(lines[:middle] + ["\ufeff" + lines[middle]]
                                                   + lines[middle + 1:])
            for name, variant in variants.items():
                outcome = assert_reads_as_reference(tmp_path / "p.csv", variant.encode("utf-8"))
                assert isinstance(outcome, str) == (name == "mid-file bom"), (name, outcome)
                if name == "lf" and len(rows) > len(set(r.rsplit(",", 2)[0] for r in rows)):
                    assert outcome[-1] and "duplicate" in outcome[-1][0]

    @pytest.mark.parametrize("bad", [
        "L1,i01,soon,1\n", "L1,i01,-1,1\n", "L1,i01,inf,0\n", "L1,i01,nan,0\n",
        "L1,i01,2,2\n", "L1,i01,2, 1\n", ",i01,2,1\n", "L1,,2,1\n", "L1,zz,2,1\n",
        "L1,i01,2\n", "L1,i01,2,1,1\n", "\n", "L1,\ufeffi01,2,1\n",
        "L" * 200_000 + ",i01,2,1\n", "L\r1,i01,2,1\n",
    ], ids=["non_numeric_time", "negative_time", "infinite_time", "nan_time",
            "success_2", "success_space", "empty_learner", "empty_item", "unknown_item",
            "three_fields", "five_fields", "blank_line", "bom_in_item", "field_over_limit",
            "carriage_return_in_id"])
    def test_each_row_error_where_blocks_begin_and_end(self, tmp_path, bad):
        rows = _plain_rows(np.random.default_rng(3), 4000)
        text = HEADER + "".join(rows)
        second_block = len(io.StringIO(text).readlines(_BLOCK_CHARS))
        assert 2 < second_block < len(rows)
        for index in (1, second_block, len(rows)):  # line 2, a block's first line, the last
            lines = text.splitlines(keepends=True)
            lines[index] = bad
            outcome = assert_reads_as_reference(tmp_path / "p.csv", "".join(lines).encode())
            assert outcome.startswith(f"{tmp_path / 'p.csv'}:{index + 1}: "), outcome

    def test_three_fields_then_five_where_blocks_begin_and_end(self, tmp_path):
        # split at every comma and newline alike, the pair shifts into four
        # plain columns, so each line's own field count must be checked
        pair = ["L1,i01,2.5\n", "1,L2,i02,3.0,1\n"]
        lines = [HEADER, *_plain_rows(np.random.default_rng(6), 4000)]

        def first_block(lines):
            return len(io.StringIO("".join(lines)).readlines(_BLOCK_CHARS))

        def placed(index):
            return lines[:index] + pair + lines[index + 2:]

        second_block = first_block(lines)
        # the pair's first line ends the first block: its end moves with the pair
        across = [i for i in range(second_block - 3, second_block + 2)
                  if first_block(placed(i)) == i + 1]
        assert across
        for index in (1, second_block, across[0]):  # line 2, a block's first line, across
            outcome = assert_reads_as_reference(tmp_path / "p.csv", "".join(placed(index)).encode())
            assert outcome == f"{tmp_path / 'p.csv'}:{index + 1}: expected 4 columns, got 3"

    @pytest.mark.parametrize("after, gap, error", [
        ('"' + "x" * 200_000 + '",i01,1,1\n', 1, ":{line}: non-positive time"),
        ("L1,i01,1,1\xff\n", 1, "not valid UTF-8"),
        ("L1,i01,1,1\xff\n", 600, ":{line}: non-positive time"),
    ], ids=["malformed_csv", "non_utf8_in_the_decoded_chunk", "non_utf8_later"])
    def test_bad_row_then_worse_input_in_the_same_block(self, tmp_path, after, gap, error):
        # the first error the line loop meets wins, as it did before the column path
        rows = [line.encode() for line in _plain_rows(np.random.default_rng(4), 3000)]
        rows[100] = b"L1,i01,0,1\n"
        rows[100 + gap] = after.encode("latin-1")
        outcome = assert_reads_as_reference(tmp_path / "p.csv", HEADER.encode() + b"".join(rows))
        assert error.format(line=102) in outcome

    def test_character_mutants(self, tmp_path):
        rng = np.random.default_rng(5)
        text = HEADER + "".join(_plain_rows(rng, 2400))
        pieces = [",", '"', "\r", "\n", "\r\n", "\0", "\ufeff", "x", "", "0", "1", "-",
                  "e9", "é", "nan", "zz"]
        for _ in range(60):
            mutant = char_mutant(text, pieces, rng)
            assert_reads_as_reference(tmp_path / "p.csv", mutant.encode("utf-8"))

    def test_written_files_take_the_column_path(self, tmp_path, monkeypatch):
        # every file performance_csv writes for synth ids must be read without csv_rows
        from itemsim.synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance
        corpus = generate_corpus(CorpusSpec(n_items=40, n_levels=4, seed=1))
        table = generate_performance(corpus, PerfSpec(n_learners=200, solve_prob=0.7, seed=2))
        data = performance_csv(table)
        assert len(data) > 2 * _BLOCK_CHARS
        calls = []
        monkeypatch.setattr(corpus_module, "csv_rows",
                            lambda *args: calls.append(args) or iter(()))
        loaded = read_performance(io.StringIO(data), corpus)
        assert calls == []
        expected, _ = reference_read_performance(io.StringIO(data), corpus)
        assert (loaded.learner_ids, loaded.item_ids) == (table.learner_ids, table.item_ids)
        for name in ("time_seconds", "success", "log_time"):
            assert getattr(loaded, name).tobytes() == getattr(expected, name).tobytes()
        with pytest.raises(ItemsimError, match="empty file"):  # CRLF takes the line loop
            read_performance(io.StringIO(data.replace("\n", "\r\n")), corpus)
        assert len(calls) == 1


@pytest.mark.parametrize("text", [
    "", "a\n", "a\n\nb\n", "a,b\n\n1,2\n", "a,b\n1,2", "a,b,\n1,2,3\n", '"a",b\n1,2\n',
    "a,b\r\n1,2\r\n", "a,b\n" + "1,2\n" * 20_000 + "\n3,4\n" + "5,6\n" * 20_000,
    "a\rb\n", "a\x0cb\n", "a\x1c,b\n", "a\x85b\n", "a\u2028b\n", '"a\nb",c\n', "\n\n\nx", "\n",
], ids=["empty", "one field", "one field and a blank line", "blank line", "no final newline",
        "ragged", "quoted", "crlf", "blank line in the second block", "cr", "form feed",
        "file separator", "next line", "line separator", "quoted newline", "blank lines then x",
        "newline"])
def test_text_rows_are_the_csv_modules_rows(text):
    reader = csv.reader(io.StringIO(text))
    try:
        expected = list(reader)
    except csv.Error as e:  # a CR inside an unquoted field
        expected = f"t.csv:{reader.line_num}: malformed CSV ({e})"
    try:
        assert list(text_rows(text, "t.csv")) == expected
    except ItemsimError as e:
        assert str(e) == expected


class TestWriteFiles:
    def test_lf_only_bytes(self, tmp_path):
        write_files(tmp_path, {"out.csv": "a,b\n1,2\n", "cr.txt": "a\r\nb\r"})
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\n1,2\n"
        assert (tmp_path / "cr.txt").read_bytes() == b"a\r\nb\r"

    def test_makes_root_and_parent_directories(self, tmp_path):
        root = tmp_path / "new" / "out"
        write_files(root, {"top.txt": "é\n", "a/b/deep.txt": "x"})
        assert (root / "top.txt").read_bytes() == "é\n".encode("utf-8")
        assert (root / "a" / "b" / "deep.txt").read_text(encoding="utf-8") == "x"
        write_files(root, {"top.txt": "again\n"})  # into an existing -o, overwriting
        assert (root / "top.txt").read_text(encoding="utf-8") == "again\n"


class TestReadJson:
    """One decoder for every JSON document: each refusal is an ItemsimError
    naming the file once."""

    def _read(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        return path, lambda: read_json(path)

    @pytest.mark.parametrize("text, message", [
        ("{oops", "malformed JSON: Expecting property name"),
        ('{"n": ' + "7" * 5000 + "}", "malformed JSON: Exceeds the limit (4300 digits)"),
        ("[" * 200_000 + "]" * 200_000, "nesting too deep"),
        ('{"a": "\\ud800"}', "malformed JSON: lone surrogate \\ud800"),
        ('{"\\udc80": 1}', "malformed JSON: lone surrogate \\udc80"),
        ('["ok", ["\\ude00\\ud83d"]]', "malformed JSON: lone surrogate \\ude00"),
    ], ids=["syntax", "huge_int", "deep", "high_value", "low_key", "reversed_pair"])
    def test_refused(self, tmp_path, text, message):
        path, read = self._read(tmp_path, text)
        with pytest.raises(ItemsimError) as excinfo:
            read()
        assert str(excinfo.value).startswith(f"{path}: {message}")
        assert str(excinfo.value).count(str(path)) == 1

    @pytest.mark.parametrize("text, value", [
        ('["\\ud83d\\ude00"]', ["\U0001f600"]),
        ('["\\\\ud800"]', ["\\ud800"]),  # an escaped backslash, then text
        ('{"k": [1, 2.5, null, true, "\\u00e9"]}', {"k": [1, 2.5, None, True, "\u00e9"]}),
    ], ids=["pair", "escaped_backslash", "plain_values"])
    def test_accepted(self, tmp_path, text, value):
        _, read = self._read(tmp_path, text)
        assert read() == value
