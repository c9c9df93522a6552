"""Deterministic CSV serialization for all matrix and vector artifacts.

All files are UTF-8 with LF line endings and no trailing whitespace. Values
follow corpus.csv_numbers (9 significant digits, NaN empty, -0 as 0), names
and ids corpus.csv_field (quoted, quotes doubled, when holding , " CR or LF or
empty): the one number rule and the one field rule of every file itemsim writes.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import AgreementMatrix, Partition
from .corpus import csv_field, csv_numbers, text_rows
from .errors import ItemsimError
from .features import FeatureMatrix
from .projection import Embedding
from .similarity import SimilarityMatrix


def _matrix_csv(corner: str, columns, rows, values) -> str:
    """The header, then one line per row: its name and its values by
    corpus.csv_numbers."""
    lines = [",".join(map(csv_field, [corner, *columns]))]
    lines += [csv_field(name) + csv_numbers(row) for name, row in zip(rows, values)]
    return "\n".join(lines) + "\n"


def feature_csv(m: FeatureMatrix) -> str:
    return _matrix_csv("item_id", m.full_names, m.item_ids, m.values)


def similarity_csv(s: SimilarityMatrix) -> str:
    return _matrix_csv("item_id", s.item_ids, s.item_ids, s.values)


def agreement_csv(a: AgreementMatrix) -> str:
    return _matrix_csv("measure", a.measure_names, a.measure_names, a.values)


def partition_csv(p: Partition) -> str:
    return "item_id,label\n" + "".join(
        f"{csv_field(i)},{label}\n" for i, label in zip(p.item_ids, p.labels))


def embedding_csv(e: Embedding) -> str:
    head = ""
    if e.explained_variance is not None:
        head = "# explained_variance: " + csv_numbers(e.explained_variance)[1:] + "\n"
    columns = [f"x{d + 1}" for d in range(e.dims)]
    return head + _matrix_csv("item_id", columns, e.item_ids, e.coordinates)


def scalar_text(v: float) -> str:
    return csv_numbers([v])[1:] + "\n"


def read_square_csv(text: str, source: str = "matrix") -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a square matrix CSV (similarity or agreement shaped): header
    holds the ids, each row starts with its id, empty fields are missing
    and all others must be finite numbers. The csv module reads the text a
    line at a time (corpus.text_rows). Each row is checked in turn and the
    first error raised; a row whose cells do not all convert goes cell by
    cell, to name its first bad cell. The matrix is built once its rows are
    read, so its memory follows the file, not a copy of the text."""
    reader = text_rows(text, source)
    header = next(reader, None)
    if header is None:
        raise ItemsimError(f"{source}: empty file")
    if len(header) < 2:
        raise ItemsimError(f"{source}: expected an id column plus one column per entry")
    ids = tuple(header[1:])
    seen = set()
    for i in ids:
        if i in seen:
            raise ItemsimError(f"{source}: duplicate id {i!r}")
        seen.add(i)
    n = len(ids)
    row_ids, rows = [], []
    for row in reader:
        if not row:
            continue
        if len(row) != n + 1:
            raise ItemsimError(f"{source}: row {row[0]!r} has {len(row) - 1} values, expected {n}")
        row_ids.append(row[0])
        if len(row_ids) > n:
            raise ItemsimError(f"{source}: more rows than columns; matrix must be square")
        cells = row[1:]
        try:
            found = np.fromiter(map(float, filter(None, cells)), np.float64)
        except ValueError:
            found = None
        if found is None or not np.isfinite(found).all():
            for cell in filter(None, cells):
                try:
                    if not math.isfinite(float(cell)):
                        raise ItemsimError(f"{source}: non-finite cell {cell!r}")
                except ValueError:
                    raise ItemsimError(f"{source}: non-numeric cell {cell!r}") from None
        if len(found) < n:  # the empty cells are NaN
            found = np.array([float(cell) if cell else np.nan for cell in cells])
        rows.append(found)
    if tuple(row_ids) != ids:
        raise ItemsimError(f"{source}: row ids must match column ids in order")
    return ids, np.array(rows)
