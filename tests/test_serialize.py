"""Deterministic CSV and text serialization."""

import csv
import json

import numpy as np
import pytest

from conftest import char_mutant
from oracles import reference_read_square_csv

from itemsim import (
    AgreementMatrix,
    Embedding,
    FeatureMatrix,
    ItemsimError,
    Partition,
    SimilarityMatrix,
    build_features,
    load_corpus,
)
from itemsim import serialize
from itemsim.cli import main
from itemsim.corpus import _BLOCK_CHARS, csv_field
from itemsim.serialize import (
    agreement_csv,
    embedding_csv,
    feature_csv,
    format_value,
    partition_csv,
    read_square_csv,
    scalar_text,
    similarity_csv,
)


class TestFormatValue:
    def test_nine_significant_digits(self):
        assert format_value(1 / 3) == "0.333333333"
        assert format_value(123456789012.0) == "1.23456789e+11"

    def test_integers_stay_short(self):
        assert format_value(2.0) == "2"
        assert format_value(-5.0) == "-5"

    def test_nan_is_empty(self):
        assert format_value(float("nan")) == ""

    def test_negative_zero_normalizes(self):
        assert format_value(-0.0) == "0"
        assert format_value(-1e-8) == "-1e-08"


class TestCsvField:
    @pytest.mark.parametrize("text, field", [
        ("plain id", "plain id"),
        ("a,b", '"a,b"'),
        ('say "hi"', '"say ""hi"""'),
        ("cr\rid", '"cr\rid"'),
        ("two\nlines", '"two\nlines"'),
        ("crlf\r\nid", '"crlf\r\nid"'),
        ("", '""'),
    ], ids=["plain", "comma", "quote", "cr", "lf", "crlf", "empty"])
    def test_quoted_exactly_when_needed(self, text, field):
        assert csv_field(text) == field
        assert next(csv.reader([field + "\n"])) == [text]

    def test_feature_names_read_back(self, tmp_path, capsys):
        # a world concept holding a CR and an .ast.json label holding a
        # comma, quotes and a CR name feature columns of features.csv
        concept, label = "gem\rstone", 'x,"y"\rz'
        root = tmp_path / "corpus"
        items = [{"id": i, "world": {"grid": [grid], "legend": {"G": concept}}}
                 for i, grid in (("a", "G."), ("b", "GG"))]
        (root / "solutions" / "a").mkdir(parents=True)
        (root / "solutions" / "b").mkdir()
        (root / "items.json").write_text(json.dumps(items), encoding="utf-8")
        (root / "solutions" / "a" / "sample.ast.json").write_text(
            json.dumps({"label": label, "children": [{"label": "move"}]}), encoding="utf-8")
        (root / "solutions" / "b" / "sample.ast.json").write_text(
            json.dumps({"label": "move"}), encoding="utf-8")
        for source, name in (("world", "world:" + concept), ("solution", "solution:" + label)):
            cfg = tmp_path / f"{source}.json"
            cfg.write_text(json.dumps({"schema": 1, "corpus": str(root), "source": source}),
                           encoding="utf-8")
            assert main(["features", "-c", str(cfg), "-o", str(tmp_path / source)]) == 0
            with open(tmp_path / source / "features.csv", encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["item_id", *build_features(load_corpus(root), source).full_names]
            assert name in header
            assert [row[0] for row in rows] == ["a", "b"]
            assert {len(row) for row in rows} == {len(header)}
        assert capsys.readouterr().err == ""


class TestMatrixCsv:
    def test_similarity_csv(self):
        v = np.array([[1.0, 0.5, np.nan], [0.5, 1.0, -0.25], [np.nan, -0.25, 1.0]])
        s = SimilarityMatrix(("a", "b", "c"), v, "m")
        text = similarity_csv(s)
        lines = text.split("\n")
        assert lines[0] == "item_id,a,b,c"
        assert lines[1] == "a,1,0.5,"
        assert lines[2] == "b,0.5,1,-0.25"
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_each_cell_as_format_value_gives_it(self):
        # values repeat across and within rows, 0.0 and -0.0 each come
        # first in some row, and NaN, the infinities and float32 appear
        def per_cell(ids, columns, values):
            return "".join([",".join(["item_id", *columns]) + "\n",
                            *(",".join([i, *map(format_value, row)]) + "\n"
                              for i, row in zip(ids, values))])

        rng = np.random.default_rng(6)
        pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1e-8, 1 / 3, 2.5e30])
        v = np.triu(rng.choice(pool, size=(14, 14)), 1)
        v = v + v.T + np.eye(14)
        v[0, 1], v[1, 0] = -0.0, 0.0
        assert np.isnan(v).any() and np.isinf(v).any()
        ids = tuple(f"i{k}" for k in range(14))
        assert similarity_csv(SimilarityMatrix(ids, v)) == per_cell(ids, ids, v)
        finite = rng.choice(pool[np.isfinite(pool)], size=(14, 9))
        finite[2, :2], finite[3, :2] = [-0.0, 0.0], [0.0, -0.0]
        columns = tuple(f"f{k}" for k in range(9))
        for values in (finite, finite.astype(np.float32), rng.random((14, 9))):
            m = FeatureMatrix(ids, ("solution",) * 9, columns, values)
            want = per_cell(ids, [f"solution:{c}" for c in columns], values)
            assert feature_csv(m) == want

    def test_feature_csv_uses_group_prefixes(self):
        m = FeatureMatrix(("a",), ("statement", "solution"), ("move", "move"),
                          np.array([[1.5, 0.0]]))
        assert feature_csv(m) == "item_id,statement:move,solution:move\na,1.5,0\n"

    def test_agreement_csv(self):
        a = AgreementMatrix(("x", "y"), np.array([[1.0, 0.5], [0.5, 1.0]]),
                            "correlation")
        assert agreement_csv(a) == "measure,x,y\nx,1,0.5\ny,0.5,1\n"

    @pytest.mark.parametrize("item_ids, text", [
        (("a", "b"), "item_id,label\na,1\nb,0\n"),
        (('a,"1"', "b\rc"), 'item_id,label\n"a,""1""",1\n"b\rc",0\n'),
    ], ids=["plain", "quoted"])
    def test_partition_csv(self, item_ids, text):
        assert partition_csv(Partition(item_ids, (1, 0))) == text

    def test_embedding_csv_with_variance_header(self):
        e = Embedding(("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]]),
                      explained_variance=(0.75, 0.25))
        text = embedding_csv(e)
        assert text == ("# explained_variance: 0.75,0.25\n"
                        "item_id,x1,x2\na,1,2\nb,3,4\n")

    def test_embedding_csv_without_variance(self):
        e = Embedding(("a",), np.array([[1.0]]))
        assert embedding_csv(e) == "item_id,x1\na,1\n"

    def test_scalar_text(self):
        assert scalar_text(0.5) == "0.5\n"


class TestReadSquareCsv:
    @pytest.mark.parametrize("item_ids", [("a", "b"), ('a,"1"', "b\rc")],
                             ids=["plain", "quoted"])
    def test_round_trip_with_missing(self, item_ids):
        v = np.array([[1.0, np.nan], [np.nan, 1.0]])
        s = SimilarityMatrix(item_ids, v, "m")
        ids, values = read_square_csv(similarity_csv(s))
        assert ids == item_ids
        assert values[0, 0] == 1.0
        assert np.isnan(values[0, 1])

    def test_round_trip_precision(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(4, 4))
        v = (raw + raw.T) / 2
        s = SimilarityMatrix(tuple("abcd"), v, "m")
        ids, values = read_square_csv(similarity_csv(s))
        assert np.abs(values - v).max() < 1e-8

    def test_empty_file(self):
        with pytest.raises(ItemsimError, match="empty file"):
            read_square_csv("")

    def test_id_mismatch(self):
        with pytest.raises(ItemsimError, match="row ids must match"):
            read_square_csv("item_id,a,b\nb,1,0\na,0,1\n")

    def test_non_numeric_cell(self):
        with pytest.raises(ItemsimError, match="non-numeric cell"):
            read_square_csv("item_id,a\na,soon\n")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_cell(self, cell):
        with pytest.raises(ItemsimError, match=f"m.csv: non-finite cell '{cell}'"):
            read_square_csv(f"item_id,a,b\na,1,{cell}\nb,{cell},1\n", source="m.csv")

    def test_too_many_rows(self):
        with pytest.raises(ItemsimError, match="more rows than columns"):
            read_square_csv("item_id,a\na,1\nb,2\n")

    def test_ragged_row(self):
        with pytest.raises(ItemsimError, match="has 1 values, expected 2"):
            read_square_csv("item_id,a,b\na,1\n")


def _read_outcome(read, text):
    """(ids, the matrix's bytes) of read(text), or the text of its error."""
    try:
        ids, values = read(text, "m.csv")
    except ItemsimError as e:
        return str(e)
    return ids, values.tobytes()


class TestReadSquareCsvMatchesReference:
    """read_square_csv reads plain text by block and everything else by
    line; either way it must equal tests/oracles.reference_read_square_csv."""

    @staticmethod
    def written(rng, n):
        """similarity_csv of a random n x n matrix with missing cells and
        signed zeros, tiny and huge values among its entries."""
        v = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-5, 6, size=(n, n))
        special = rng.choice(np.array([np.nan, -0.0, 0.0, 1e-300, 1e308, -1e308]), size=(n, n))
        v = np.where(rng.random((n, n)) < 0.2, special, v)
        v = np.triu(v) + np.triu(v, 1).T
        np.fill_diagonal(v, 1.0)
        return similarity_csv(SimilarityMatrix(tuple(f"i{k:03d}" for k in range(n)), v, "m"))

    def test_written_matrices_and_their_character_mutants(self):
        rng = np.random.default_rng(17)
        pieces = ['"', "\r", "\0", "\ufeff", ",", "", "nan", "inf", "1e999", "\n", "-0", "x"]
        read = 0
        for n in (1, 2, 5, 40, 90):
            text = self.written(rng, n)
            assert (n < 90) == (len(text) < _BLOCK_CHARS)  # 90 items make two blocks
            assert serialize._read_blocks(text) is not None  # written text takes the blocks
            for variant in [text, text.rstrip("\n"), *(char_mutant(text, pieces, rng)
                                                        for _ in range(40))]:
                outcome = _read_outcome(read_square_csv, variant)
                assert outcome == _read_outcome(reference_read_square_csv, variant), variant[:80]
                read += isinstance(outcome, tuple)
        assert read > 40

    @pytest.mark.parametrize("where", ["header", "first row", "last row"])
    def test_blank_lines_and_a_field_over_the_csv_limit(self, where):
        lines = self.written(np.random.default_rng(18), 6).splitlines(keepends=True)
        at = {"header": 0, "first row": 1, "last row": 6}[where]
        variants = [lines[:at] + ["\n"] + lines[at:], lines[:at + 1] + ["\n"] + lines[at + 1:]]
        long_field = lines.copy()
        long_field[at] = long_field[at].replace(",", "," + "7" * (csv.field_size_limit() + 1), 1)
        for variant in (*variants, long_field):
            text = "".join(variant)
            assert (_read_outcome(read_square_csv, text)
                    == _read_outcome(reference_read_square_csv, text))

