"""Item corpus: data model, directory layout ingestion, performance logs.

Corpus directory layout:

    items.json                      array of {id, statement_text?, world?,
                                    command_limit?, level?}
    solutions/<item_id>/<name>.robot     robot DSL source
    solutions/<item_id>/<name>.ast.json  canonical AST document
    solutions/<item_id>/weights.json     optional {filename: weight}
    performance.csv                 optional log (see load_performance)

Solution files whose basename starts with "sample" carry the author's
sample solution; all other files are learner solutions. Weights default
to 1. Solutions are ordered by filename within an item.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import re
import sys
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .errors import ItemsimError
from .robot import parse_robot_program, pretty_print
from .tree import AstNode, ast_from_document, ast_to_document

log = logging.getLogger("itemsim.corpus")

_ID_RE = re.compile(r"[A-Za-z0-9_-]+$")

BLANK_CELLS = (" ", ".")

PERFORMANCE_HEADER = ("learner_id", "item_id", "time_seconds", "success")


def is_kind(value, kind) -> bool:
    """isinstance, except that a bool (JSON true/false) is never a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class WorldSpec:
    """Grid world: rows of single-character cell codes plus a legend
    mapping each non-blank code to a concept name."""

    grid: tuple[str, ...]
    legend: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not all(isinstance(row, str) for row in self.grid):
            raise ItemsimError("world grid rows must be strings")
        if not all(isinstance(name, str) for name in self.legend.values()):
            raise ItemsimError("world legend values must be concept name strings")
        if self.grid:
            width = len(self.grid[0])
            if any(len(row) != width for row in self.grid):
                raise ItemsimError("world grid rows have unequal lengths")
        for row in self.grid:
            for cell in row:
                if cell not in BLANK_CELLS and cell not in self.legend:
                    raise ItemsimError(f"world cell code {cell!r} missing from legend")

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0]) if self.grid else 0

    def concept_counts(self) -> dict[str, int]:
        """Cell counts per concept name (codes sharing a concept are summed)."""
        counts = {name: 0 for name in self.legend.values()}
        for row in self.grid:
            for cell in row:
                if cell not in BLANK_CELLS:
                    counts[self.legend[cell]] += 1
        return counts


@dataclass(frozen=True)
class Solution:
    ast: AstNode
    weight: float = 1.0
    kind: str = "sample"  # sample | learner

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ItemsimError("solution weight must be finite and positive")
        if self.kind not in ("sample", "learner"):
            raise ItemsimError(f"unknown solution kind {self.kind!r}")


@dataclass(frozen=True)
class Item:
    id: str
    statement_text: str | None = None
    world: WorldSpec | None = None
    command_limit: int | None = None
    solutions: tuple[Solution, ...] = ()
    level: int | None = None

    def __post_init__(self):
        if not _ID_RE.fullmatch(self.id):
            raise ItemsimError(f"invalid item id {self.id!r}")
        if self.statement_text is None and self.world is None and not self.solutions:
            raise ItemsimError(f"item {self.id!r} has no statement, world, or solutions")
        if self.statement_text is not None and not isinstance(self.statement_text, str):
            raise ItemsimError(f"item {self.id!r}: statement_text must be a string")
        for name in ("command_limit", "level"):
            value = getattr(self, name)
            if value is not None and not is_kind(value, int):
                raise ItemsimError(f"item {self.id!r}: {name} must be an integer")
        if self.command_limit is not None and self.command_limit < 1:
            raise ItemsimError(f"item {self.id!r}: command_limit must be positive")
        if self.command_limit is not None and self.command_limit > sys.float_info.max:
            raise ItemsimError(f"item {self.id!r}: command_limit does not fit a float")

    def sample_solution(self) -> Solution | None:
        for s in self.solutions:
            if s.kind == "sample":
                return s
        return None

    def learner_solutions(self) -> tuple[Solution, ...]:
        return tuple(s for s in self.solutions if s.kind == "learner")


def select_solutions(item: Item, selector: str) -> tuple[Solution, ...]:
    """Pick an item's solutions: the sample, the heaviest learner solution
    (first on ties), or all of them."""
    if selector == "sample":
        sol = item.sample_solution()
        return (sol,) if sol is not None else ()
    if selector == "top_learner":
        learners = item.learner_solutions()
        if not learners:
            return ()
        return (max(learners, key=lambda s: s.weight),)
    if selector == "all":
        return item.solutions
    raise ItemsimError(f"unknown solution selector {selector!r}")


@dataclass(frozen=True)
class Corpus:
    """Items sorted by id, ids unique."""

    items: tuple[Item, ...]

    def __post_init__(self):
        ids = [it.id for it in self.items]
        if ids != sorted(ids):
            raise ItemsimError("corpus items must be sorted by id")
        seen = set()
        for i in ids:
            if i in seen:
                raise ItemsimError(f"duplicate item id {i!r}")
            seen.add(i)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(it.id for it in self.items)

    def get(self, item_id: str) -> Item:
        for it in self.items:
            if it.id == item_id:
                return it
        raise KeyError(item_id)


def _first_seen() -> defaultdict[str, int]:
    """A dict that numbers each new key by its first-seen order when it is
    looked up, so map(d.__getitem__, keys) numbers a column of ids in C."""
    numbering = defaultdict()
    numbering.default_factory = numbering.__len__
    return numbering


# a log may name at most this many learners x items cells. A load peaks at
# about 25-31 bytes a cell on logs a fifth to a third attempted (the two
# float tables, 16 bytes a cell, beside each row's cell, time and success),
# and 63-68 on a log with every cell attempted, whose peak comes while the
# file is read, so the budget holds a load to about 0.4-1.1 GiB
_TABLE_CELLS = 1 << 24


def check_table_budget(n_learners: int, n_items: int, error: type[Exception]) -> None:
    """Raise error if a table of n_learners x n_items is over _TABLE_CELLS."""
    if n_learners * n_items > _TABLE_CELLS:
        raise error(f"{n_learners} learners x {n_items} items are over the budget of "
                    f"{_TABLE_CELLS} cells")


@dataclass(frozen=True, eq=False)
class PerformanceTable:
    """Learner x item performance over sorted ids: time_seconds and success
    (0 or 1) are NaN where the learner did not attempt the item."""

    learner_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    time_seconds: np.ndarray
    success: np.ndarray

    @property
    def log_time(self) -> np.ndarray:
        """The natural log of each time, NaN where there was no attempt."""
        return np.log(self.time_seconds)

    @classmethod
    def from_records(cls, rows: Iterable[tuple[str, str, float, bool]]) -> PerformanceTable:
        """The table of (learner_id, item_id, time_seconds, success) rows,
        over the ids they name; a repeated (learner, item) pair keeps its
        first row. Rows are taken as valid: non-empty ids, finite positive
        times (read_performance checks a file's rows before they get here)."""
        learners, items = _first_seen(), _first_seen()
        cells, times, successes = [], [], []
        for learner_id, item_id, time_seconds, success in rows:
            cells.append(learners[learner_id] << 32 | items[item_id])
            times.append(time_seconds)
            successes.append(success)
        return cls._from_cells(learners, items, np.array(cells, dtype=np.int64),
                               np.array(times, dtype=np.float64),
                               np.array(successes, dtype=np.float64))

    @classmethod
    def _from_cells(cls, learners: dict[str, int], items: dict[str, int], cells: np.ndarray,
                    times: np.ndarray, successes: np.ndarray) -> PerformanceTable:
        """The table of rows given as cells, row << 32 | column over the
        first-seen indices in learners and items, with their times and
        successes; a repeated cell keeps its first row. Over _TABLE_CELLS
        learners x items is a MemoryError, raised before any table is
        allocated."""
        check_table_budget(len(learners), len(items), MemoryError)
        # np.unique returns the index of each cell's first row: keep-first
        cells, first = np.unique(cells, return_index=True)
        learner_ids, item_ids = tuple(sorted(learners)), tuple(sorted(items))
        # rows and columns by sorted id: argsort inverts the permutation that
        # takes each id, in sorted order, to its first-seen index
        at = (np.argsort([learners[i] for i in learner_ids])[cells >> 32],
              np.argsort([items[i] for i in item_ids])[cells & 0xFFFFFFFF])
        del cells
        try:
            time_seconds = np.full((len(learners), len(items)), np.nan)
            time_seconds[at] = times[first]
            success = np.full(time_seconds.shape, np.nan)
            success[at] = successes[first]
            return cls(learner_ids, item_ids, time_seconds, success)
        except MemoryError:
            raise MemoryError(
                f"{len(learners)} learners x {len(items)} items do not fit in memory") from None

    def __len__(self) -> int:
        """The number of attempts."""
        return int(np.count_nonzero(~np.isnan(self.time_seconds)))

    def learner_rows(self, mask: np.ndarray) -> PerformanceTable:
        """The learners where mask is true, in table order, over every item."""
        ids = tuple(compress(self.learner_ids, mask))
        return PerformanceTable(ids, self.item_ids, self.time_seconds[mask], self.success[mask])


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _not_utf8(path, error: UnicodeDecodeError) -> ItemsimError:
    """The error for input that is not UTF-8, naming the file it came from."""
    return ItemsimError(f"{path}: not valid UTF-8 ({error.reason})")


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, line endings read as in text mode. Every input
    file is read through here, or, for streamed files, under `_not_utf8`."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as e:
        raise _not_utf8(path, e) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


_SURROGATE = re.compile("[\ud800-\udfff]")


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file; every JSON document itemsim reads,
    the config included, is decoded here. Anything the decoder refuses, an
    integer over 4300 digits included, is `<path>: malformed JSON: ...`, and
    so is a \\u escape of a lone surrogate, which no UTF-8 file can hold.
    Nesting past the decoder's recursion limit is `<path>: nesting too deep`."""
    text = read_text(path)
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise ItemsimError(f"{path}: malformed JSON: {e}") from None
    except RecursionError:
        raise ItemsimError(f"{path}: nesting too deep") from None
    # a surrogate can only come from an escape; the walk keeps its own stack
    stack = [doc] if "\\u" in text else []
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack += [*value, *value.values()]
        elif isinstance(value, list):
            stack += value
        elif isinstance(value, str) and (lone := _SURROGATE.search(value)):
            raise ItemsimError(f"{path}: malformed JSON: lone surrogate \\u{ord(lone[0]):04x}")
    return doc


def _world_from_obj(obj, item_id: str) -> WorldSpec:
    if not isinstance(obj, dict) or not isinstance(obj.get("grid"), list):
        raise ItemsimError(f"item {item_id!r}: world must be an object with a grid list")
    legend = obj.get("legend", {})
    if not isinstance(legend, dict):
        raise ItemsimError(f"item {item_id!r}: world legend must be an object")
    try:
        return WorldSpec(grid=tuple(obj["grid"]), legend=dict(legend))
    except ItemsimError as e:
        raise ItemsimError(f"item {item_id!r}: {e}") from None


def load_corpus(path: str | Path, solutions: bool = True) -> Corpus:
    """Load a corpus directory. Items come back sorted by id; solution
    files are parsed by extension (.robot source, .ast.json document).

    With `solutions=False`, the solution files of an item with a statement
    or a world are not opened, and the item gets no solutions; an item with
    neither still gets its solutions, because an item needs one of the three.
    Every check of items.json and of the solutions directories still runs."""
    root = Path(path)
    index_path = root / "items.json"
    if not index_path.is_file():
        raise ItemsimError(f"missing items.json in {root}")
    index = read_json(index_path)
    if not isinstance(index, list):
        raise ItemsimError(f"{index_path}: expected a JSON array")

    entries: dict[str, dict] = {}
    for obj in index:
        if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
            raise ItemsimError(f"{index_path}: every entry needs a string 'id' field")
        item_id = obj["id"]
        if item_id in entries:
            raise ItemsimError(f"duplicate item id {item_id!r} in items.json")
        entries[item_id] = obj

    solutions_root = root / "solutions"
    # the ids with a solutions directory: no other item has solutions
    dirs = set(_listing(solutions_root, os.DirEntry.is_dir)) if solutions_root.is_dir() else set()
    orphans = sorted(dirs - entries.keys())
    if orphans:
        raise ItemsimError(f"solutions directory {orphans[0]!r} has no matching item in items.json")

    items = []
    for item_id in sorted(entries):
        obj = entries[item_id]
        world = _world_from_obj(obj["world"], item_id) if obj.get("world") is not None else None
        statement = obj.get("statement_text")
        needed = item_id in dirs and (solutions or (statement is None and world is None))
        items.append(
            Item(
                id=item_id,
                statement_text=statement,
                world=world,
                command_limit=obj.get("command_limit"),
                solutions=_load_solutions(os.path.join(solutions_root, item_id)) if needed else (),
                level=obj.get("level"),
            )
        )
    return Corpus(tuple(items))


def _listing(directory: str | Path, keep) -> list[str]:
    """The names of the entries of a directory that `keep` accepts, sorted;
    one listing, with the file type of each entry taken from the listing."""
    with os.scandir(directory) as it:
        return sorted(e.name for e in it if keep(e))


def _load_solutions(sol_dir: str) -> tuple[Solution, ...]:
    names = _listing(sol_dir, os.DirEntry.is_file)
    weights_path = os.path.join(sol_dir, "weights.json")
    weights = read_json(weights_path) if "weights.json" in names else {}
    if not isinstance(weights, dict):
        raise ItemsimError(f"{weights_path}: expected an object")
    solutions = []
    for name in names:
        if name.endswith(".ast.json"):
            read, parse = read_json, ast_from_document
        elif name.endswith(".robot") and name != ".robot":  # a bare ".robot" has no suffix
            read, parse = read_text, parse_robot_program
        else:
            continue  # weights.json and any other file that is not a solution
        path = os.path.join(sol_dir, name)
        source = read(path)
        try:
            ast = parse(source)
        except ItemsimError as e:
            raise ItemsimError(f"{path}: {e}") from e
        kind = "sample" if name.split(".")[0].startswith("sample") else "learner"
        weight = weights.get(name, 1.0)
        # an int past float range would overflow float()
        if not (is_kind(weight, (int, float)) and 0 < weight <= sys.float_info.max):
            raise ItemsimError(f"{weights_path}: {name!r} needs a finite positive weight")
        solutions.append(Solution(ast=ast, weight=float(weight), kind=kind))
    return tuple(solutions)


def load_performance(path: str | Path, corpus: Corpus | None = None) -> PerformanceTable:
    """Load performance.csv. Duplicate (learner, item) rows keep the first
    occurrence; the dropped count is logged. When a corpus is given, item
    ids are cross-checked against it. Running out of memory is an error."""
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as fh:
        try:
            return read_performance(fh, corpus=corpus, source=str(path))
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from None
        except MemoryError as e:
            raise ItemsimError(f"{path}: {str(e) or 'out of memory'}") from None


def csv_rows(fh, source: str):
    """The rows of a CSV stream. Input the csv module rejects, such as a
    field over its size limit, is an error naming the source and line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as e:
        raise ItemsimError(f"{source}:{reader.line_num}: malformed CSV ({e})") from None


_LINE = re.compile(".*\n|.+")  # a line up to and with its "\n", or the text's last


def text_rows(text: str, source: str):
    """The rows of CSV text, as csv_rows yields them from a text stream that
    ends lines at "\n" only. The csv module reads the text's own lines one at
    a time, so the text is not copied whole and an error names its line in it."""
    return csv_rows(map(re.Match.group, _LINE.finditer(text)), source)


def read_performance(fh, corpus: Corpus | None = None, source: str = "performance.csv"):
    """The PerformanceTable of a seekable performance.csv text stream.

    Plain input is read by column, a block of lines at a time. A stream
    that is quoted, holds a carriage return, fails a check, or is not
    UTF-8 goes back to where it started and through the line loop, which
    raises the first error by line with its number."""
    known = set(corpus.item_ids) if corpus is not None else None
    start = fh.tell()
    try:
        read = _read_columns(fh, known)
    except UnicodeDecodeError:
        read = None
    if read is None:
        fh.seek(start)
        read = _read_lines(fh, known, source)
    table, data_rows = read
    dropped = data_rows - len(table)
    if dropped:
        log.warning("%s: dropped %d duplicate (learner, item) rows, first kept", source, dropped)
    return table


_HEADER_LINE = ",".join(PERFORMANCE_HEADER) + "\n"
_BLOCK_CHARS = 1 << 16

def block_fields(text: str) -> list[str] | None:
    """The fields of a block of performance.csv lines that the csv module
    would split into four fields a line, each line's followed by a "\n"
    field and the last by ""; None for any other block."""
    if not text.endswith("\n"):  # the last line of a file without a final newline
        text += "\n"
    fields = text.replace("\n", ",\n,").split(",")
    lines = text.count("\n")  # each "\n" field must end a line of four fields
    limit = csv.field_size_limit()
    # the csv module parses quotes and CRs its own way and, before Python
    # 3.11, rejects a NUL; a BOM is an error. A line within the field size
    # limit holds no field over it.
    if (any(map(text.__contains__, '"\r\0\ufeff'))
            or len(fields) != 5 * lines + 1
            or fields[4::5].count("\n") != lines
            or len(text) > limit and max(map(len, text.split("\n"))) >= limit):
        return None
    return fields


def _read_columns(fh, known: set[str] | None) -> tuple[PerformanceTable, int] | None:
    """The table and the number of data rows of a stream whose every line
    splits at three commas as the csv module would split it, and whose
    columns pass the row checks; None as soon as a block is not such. Each
    block of lines is split at its commas by block_fields, and checked and
    converted by column."""
    # each block ends with the line that reaches _BLOCK_CHARS characters
    blocks = iter(lambda: fh.read(_BLOCK_CHARS - 1) + fh.readline(), "")
    head = next(blocks, "")
    if not head.startswith(_HEADER_LINE):
        return None
    learners, items = _first_seen(), _first_seen()
    cells, times, successes = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0, bool)]
    for text in filter(None, chain([head[len(_HEADER_LINE):]], blocks)):
        fields = block_fields(text)
        if fields is None:
            return None
        learner_col, item_col, time_col, success_col = (fields[k:-1:5] for k in range(4))
        if not set(success_col) <= {"0", "1"}:
            return None
        try:
            block_times = np.fromiter(map(float, time_col), np.float64, len(time_col))
        except ValueError:
            return None
        if not (np.isfinite(block_times).all() and (block_times > 0).all()):
            return None
        rows = np.fromiter(map(learners.__getitem__, learner_col), np.int64, len(learner_col))
        cols = np.fromiter(map(items.__getitem__, item_col), np.int64, len(item_col))
        cells.append(rows << 32 | cols)
        times.append(block_times)
        # one character a row, "0" or "1"
        successes.append(np.frombuffer("".join(success_col).encode(), np.uint8) == ord("1"))
    if "" in learners or "" in items or (known is not None and not items.keys() <= known):
        return None
    # into the same names, so that the block lists are freed before the
    # tables are built
    cells, times, successes = map(np.concatenate, (cells, times, successes))
    return PerformanceTable._from_cells(learners, items, cells, times, successes), len(cells)


def _read_lines(fh, known: set[str] | None, source: str) -> tuple[PerformanceTable, int]:
    """The table and the number of data rows of any performance.csv
    stream, read and checked one line at a time: the first bad line is
    an error naming it."""
    rows = csv_rows(fh, source)
    header = next(rows, None)
    if header is None:
        raise ItemsimError(f"{source}: empty file")
    if tuple(header) != PERFORMANCE_HEADER:
        raise ItemsimError(
            f"{source}: expected header {','.join(PERFORMANCE_HEADER)!r}, got {','.join(header)!r}"
        )
    data_rows = 0

    def parsed():
        nonlocal data_rows
        for lineno, row in enumerate(rows, start=2):
            if len(row) != 4:
                raise ItemsimError(f"{source}:{lineno}: expected 4 columns, got {len(row)}")
            learner_id, item_id, time_text, success_text = row
            for name, value in (("learner_id", learner_id), ("item_id", item_id)):
                if not value:
                    raise ItemsimError(f"{source}:{lineno}: empty {name}")
                if "\ufeff" in value:
                    raise ItemsimError(f"{source}:{lineno}: byte-order mark in {name}")
            try:
                time_seconds = float(time_text)
            except ValueError:
                raise ItemsimError(f"{source}:{lineno}: non-numeric time {time_text!r}") from None
            if not (math.isfinite(time_seconds) and time_seconds > 0):
                raise ItemsimError(f"{source}:{lineno}: non-positive time {time_text!r}")
            if success_text not in ("0", "1"):
                raise ItemsimError(f"{source}:{lineno}: success must be 0 or 1, got {success_text!r}")
            if known is not None and item_id not in known:
                raise ItemsimError(f"{source}:{lineno}: unknown item id {item_id!r}")
            data_rows += 1
            yield learner_id, item_id, time_seconds, success_text == "1"

    table = PerformanceTable.from_records(parsed())
    return table, data_rows


# ---------------------------------------------------------------------------
# Saving (canonical, byte-deterministic)
# ---------------------------------------------------------------------------


def items_index_json(corpus: Corpus) -> str:
    out = []
    for it in corpus.items:
        obj: dict = {"id": it.id}
        if it.statement_text is not None:
            obj["statement_text"] = it.statement_text
        if it.world is not None:
            obj["world"] = {"grid": list(it.world.grid), "legend": dict(sorted(it.world.legend.items()))}
        if it.command_limit is not None:
            obj["command_limit"] = it.command_limit
        if it.level is not None:
            obj["level"] = it.level
        out.append(obj)
    return json.dumps(out, ensure_ascii=False, indent=2) + "\n"


def corpus_files(corpus: Corpus) -> dict[str, str]:
    """The standard directory layout, as {relative path: text}. Robot-fragment
    solutions are emitted as .robot source, everything else as .ast.json
    documents."""
    files = {"items.json": items_index_json(corpus)}
    for it in corpus.items:
        weights = {}
        counters = {"sample": 0, "learner": 0}
        for sol in it.solutions:
            counters[sol.kind] += 1
            stem = sol.kind if counters[sol.kind] == 1 else f"{sol.kind}_{counters[sol.kind]}"
            try:
                text = pretty_print(sol.ast)
                name = stem + ".robot"
            except ItemsimError:
                text = ast_to_document(sol.ast)
                name = stem + ".ast.json"
            files[f"solutions/{it.id}/{name}"] = text
            if sol.weight != 1.0:
                weights[name] = sol.weight
        if weights:
            files[f"solutions/{it.id}/weights.json"] = (
                json.dumps(weights, ensure_ascii=False, indent=2, sort_keys=True) + "\n")
    return files


def write_files(root: str | Path, files: dict[str, str]) -> None:
    """Write each text to its path under root, as UTF-8 with line endings
    as given, making root and parent directories as needed. Every file
    itemsim writes is written here."""
    for name, text in files.items():
        path = Path(root) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the standard directory layout of corpus under path."""
    write_files(path, corpus_files(corpus))


def csv_field(text: str) -> str:
    """text as one field of any CSV file itemsim writes: quoted, quotes doubled, when
    it holds , " CR or LF (RFC 4180) or is empty (a lone one is not a blank line)."""
    if not text or any(map(text.__contains__, ',"\r\n')):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_numbers(values) -> str:
    """Each value as one more field of a CSV line, comma first, by the one
    number rule of every file itemsim writes: 9 significant digits, NaN as
    the empty field and -0 as 0."""
    values = np.asarray(values, dtype=np.float64) + 0.0  # -0.0 + 0.0 is +0.0
    return ((",%.9g" * len(values)) % tuple(values.tolist())).replace(",nan", ",")


def performance_csv(table: PerformanceTable) -> str:
    """One row per attempt, learner-major in sorted id order. Each learner's
    times are formatted by one csv_numbers call."""
    learners, items = map(csv_field, table.learner_ids), list(map(csv_field, table.item_ids))
    lines = [",".join(PERFORMANCE_HEADER)]
    for learner, times, successes in zip(learners, table.time_seconds, table.success):
        cols = np.flatnonzero(~np.isnan(times))
        texts = csv_numbers(times[cols])[1:].split(",")
        for j, t, success in zip(cols.tolist(), texts, successes[cols].tolist()):
            lines.append(f"{learner},{items[j]},{t},{int(success)}")
    return "\n".join(lines) + "\n"


def save_performance(table: PerformanceTable, path: str | Path) -> None:
    path = Path(path)
    write_files(path.parent, {path.name: performance_csv(table)})
