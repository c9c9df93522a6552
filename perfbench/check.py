"""Correctness of the workloads' CLI outputs, in plain Python.

Every seed gets the invariant checks. A pinned seed (one with a manifest in
references/) is also compared with outputs recorded from the seed commit:
partition.csv and heatmap.svg (cell order and colours) byte for byte, every
other output number by number within TOLERANCE.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references"

# relative and absolute tolerance for values derived from floating-point
# correlation, transforms and projections
TOLERANCE = 1e-9

OUTPUTS = {
    "features": ("features.csv",),
    "sim": ("sim.csv",),
    "meta-agree": ("meta_agree.txt",),
    "stability": ("stability.txt",),
    "cluster": ("partition.csv", "rand_index.txt"),
    "project": ("embedding.csv",),
    "heatmap": ("heatmap.svg",),
}

EXACT = ("partition.csv", "heatmap.svg")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCES / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def reference_text(ref: dict, name: str) -> str:
    entry = ref["outputs"][name]
    if "text" in entry:
        return entry["text"]
    return gzip.decompress((REFERENCES / entry["file"]).read_bytes()).decode("utf-8")


def _rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _scalar(text: str, lo: float, hi: float) -> list[str]:
    v = _number(text.strip())
    if v is None or not math.isfinite(v) or not lo <= v <= hi or text != text.strip() + "\n":
        return [f"expected one number in [{lo}, {hi}], got {text[:40]!r}"]
    return []


def _square(text: str, n: int) -> list[str]:
    rows = _rows(text)
    ids = rows[0][1:] if rows else []
    if len(ids) != n or [r[0] for r in rows[1:]] != ids or any(len(r) != n + 1 for r in rows):
        return [f"not a {n}x{n} matrix with matching row and column ids"]
    cells = [r[1:] for r in rows[1:]]
    problems = []
    for i in range(n):
        if _number(cells[i][i]) != 1.0:
            problems.append(f"diagonal entry {ids[i]} is {cells[i][i]!r}, not 1")
        for j in range(i + 1, n):
            if cells[i][j] != cells[j][i]:
                problems.append(f"entries ({ids[i]}, {ids[j]}) not symmetric")
            v = _number(cells[i][j]) if cells[i][j] else 0.0
            if v is None or not -1.0 <= v <= 1.0:
                problems.append(f"entry ({ids[i]}, {ids[j]}) = {cells[i][j]!r} outside [-1, 1]")
    return problems[:5]


def _table(text: str, n: int, header: list[str] | None = None) -> list[str]:
    rows = _rows(text)
    if not rows or len(rows) != n + 1 or (header is not None and rows[0] != header):
        return [f"expected a header and {n} rows"]
    for r in rows[1:]:
        if len(r) != len(rows[0]) or any(
                _number(c) is None or not math.isfinite(_number(c)) for c in r[1:]):
            return [f"row {r[0]!r} is not all finite numbers"]
    return []


def invariants(name: str, text: str, n_items: int, k: int = 9) -> list[str]:
    """Checks that hold for every seed. n_items is the corpus size."""
    if name == "features.csv":
        return _table(text, n_items)
    if name == "sim.csv":
        return _square(text, n_items)
    if name in ("meta_agree.txt", "stability.txt"):
        return _scalar(text, -1.0, 1.0)
    if name == "rand_index.txt":
        return _scalar(text, 0.0, 1.0)
    if name == "partition.csv":
        rows = _rows(text)
        if rows[:1] != [["item_id", "label"]] or len(rows) != n_items + 1 or any(
                not r[1].isdigit() or int(r[1]) >= k for r in rows[1:]):
            return [f"expected {n_items} labels in [0, {k})"]
        return []
    if name == "embedding.csv":
        return _table(text, n_items, ["item_id", "x1", "x2"])
    if name == "heatmap.svg":
        if not (text.startswith("<svg") and text.endswith("</svg>\n")):
            return ["not an SVG document"]
        if text.count("<rect ") != n_items * n_items:
            return [f"{text.count('<rect ')} cells, expected {n_items * n_items}"]
        return []
    return [f"unexpected output {name}"]


def against_reference(name: str, text: str, ref: dict) -> list[str]:
    entry = ref["outputs"].get(name)
    if entry is None:
        return [f"no reference for {name}"]
    if sha256(text.encode("utf-8")) == entry["sha256"]:
        return []
    if name in EXACT:
        return [f"{name} differs from the reference bytes"]
    want_rows = _rows(reference_text(ref, name))
    got_rows = _rows(text)
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return [f"{name} has another shape than the reference"]
    for got_row, want_row in zip(got_rows, want_rows):
        for got, want in zip(got_row, want_row):
            g, w = _number(got), _number(want)
            if g is None or w is None:
                if got != want:
                    return [f"{name}: {got!r} where the reference has {want!r}"]
            elif not math.isclose(g, w, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
                return [f"{name}: {got} differs from reference {want} by more than {TOLERANCE}"]
    return []
