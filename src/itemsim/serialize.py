"""Deterministic CSV serialization for all matrix and vector artifacts.

All files are UTF-8 with LF line endings and no trailing whitespace. Values
use 9 significant digits; missing entries serialize as empty fields. Names
and ids are quoted by corpus.csv_field, the one field rule of every CSV file
itemsim writes: in quotes, quotes doubled, when it holds , " CR or LF or is empty.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .analysis import AgreementMatrix, Partition
from .corpus import block_fields, csv_field, csv_rows, text_blocks
from .errors import ItemsimError
from .features import FeatureMatrix
from .projection import Embedding
from .similarity import SimilarityMatrix


def format_value(v: float) -> str:
    """9-significant-digit decimal; NaN becomes the empty field; negative
    zero normalizes to 0."""
    if math.isnan(v):
        return ""
    text = f"{v:.9g}"
    return text[1:] if text.startswith("-0") and float(text) == 0 else text


def _matrix_csv(corner: str, columns, rows, values) -> str:
    """The header, then one line per row: its name and format_value of each
    value, which runs once per distinct value. Equal floats format alike
    (0.0 and -0.0 both give 0), and a NaN, unequal to any key, is its own.
    Each line is joined as its row is reached, so one row's fields are
    alive at a time."""
    text: dict = {}  # value -> format_value(value)

    def lines():
        yield ",".join(map(csv_field, [corner, *columns]))
        for name, row in zip(rows, values):
            cells = row.tolist()
            text.update((v, format_value(v)) for v in cells if v not in text)
            yield ",".join([csv_field(name), *map(text.__getitem__, cells)])

    return "\n".join(lines()) + "\n"


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
        head = "# explained_variance: " + ",".join(
            map(format_value, e.explained_variance)
        ) + "\n"
    columns = [f"x{d + 1}" for d in range(e.dims)]
    return head + _matrix_csv("item_id", columns, e.item_ids, e.coordinates)


def scalar_text(v: float) -> str:
    return format_value(v) + "\n"


def read_square_csv(text: str, source: str = "matrix") -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a square matrix CSV (similarity or agreement shaped): header
    holds the ids, each row starts with its id, empty fields are missing
    and all others must be finite numbers. Plain text is read by block; any
    other text goes through the line loop, which raises the first error."""
    read = _read_blocks(text)
    return read if read is not None else _read_lines(text, source)


def _read_blocks(text: str) -> tuple[tuple[str, ...], np.ndarray] | None:
    """The ids and values of a matrix whose every line splits into the
    header's number of fields as the csv module would split it, and whose
    rows pass the checks; None as soon as a block is not such."""
    head = text.find("\n") + 1
    header = block_fields(text[:head], text.count(",", 0, head) + 1)
    if header is None or len(header) < 4:  # the id column, one id, "\n" and ""
        return None
    ids = tuple(header[1:-2])
    n = len(ids)
    values = np.full((n, n), np.nan)
    rows = 0
    for block in text_blocks(text, head):
        fields = block_fields(block, n + 1)
        if fields is None:
            return None
        for start in range(0, len(fields) - 1, n + 2):
            cells = fields[start + 1:start + n + 1]
            try:
                row = np.fromiter(map(float, filter(None, cells)), np.float64)
            except ValueError:
                return None
            if rows == n or fields[start] != ids[rows] or not np.isfinite(row).all():
                return None
            values[rows, np.fromiter(map(bool, cells), bool, n)] = row
            rows += 1
    return (ids, values) if rows == n else None


def _read_lines(text: str, source: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids and values of any matrix text, read line by line."""
    reader = csv_rows(io.StringIO(text), source)
    header = next(reader, None)
    if header is None:
        raise ItemsimError(f"{source}: empty file")
    if len(header) < 2:
        raise ItemsimError(f"{source}: expected an id column plus one column per entry")
    ids = tuple(header[1:])
    n = len(ids)
    values = np.full((n, n), np.nan)
    row_ids = []
    for row in reader:
        if not row:
            continue
        if len(row) != n + 1:
            raise ItemsimError(f"{source}: row {row[0]!r} has {len(row) - 1} values, expected {n}")
        row_ids.append(row[0])
        if len(row_ids) > n:
            raise ItemsimError(f"{source}: more rows than columns; matrix must be square")
        for j, cell in enumerate(row[1:]):
            if cell != "":
                try:
                    value = float(cell)
                except ValueError:
                    raise ItemsimError(f"{source}: non-numeric cell {cell!r}") from None
                if not math.isfinite(value):
                    raise ItemsimError(f"{source}: non-finite cell {cell!r}")
                values[len(row_ids) - 1, j] = value
    if tuple(row_ids) != ids:
        raise ItemsimError(f"{source}: row ids must match column ids in order")
    return ids, values
