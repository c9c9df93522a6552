"""Hand-rolled SVG heatmaps for square matrices, byte-deterministic.

One rect per cell, linear color ramp from the matrix minimum to maximum,
grey cells for missing entries, optional hierarchical row/column ordering.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .analysis import hierarchical_order
from .errors import ItemsimError
from .similarity import SimilarityMatrix

CELL = 14
FONT = 10
PAD = 4

_LOW = (247, 251, 255)
_HIGH = (8, 48, 107)
_MISSING = "#bdbdbd"
# the characters outside XML 1.0's Char production; a negated class of the
# allowed ranges takes 12 ms to compile, this one under 1 ms
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def heatmap_svg(ids: tuple[str, ...], values: np.ndarray, ordering: str = "none") -> str:
    """Render a square matrix as SVG. ordering=hierarchical reorders rows and
    columns identically by average-linkage leaf order. Cells spanning beyond
    float64 are an error, and so is an id holding a character XML forbids."""
    values = np.asarray(values, dtype=np.float64)
    n = len(ids)
    if values.shape != (n, n):
        raise ItemsimError(f"heatmap needs a square matrix, got shape {values.shape} for {n} ids")
    for item_id in ids:
        if _NOT_XML.search(item_id):
            raise ItemsimError(f"heatmap id {item_id!r} holds a character XML 1.0 forbids")
    defined = values[~np.isnan(values)]
    lo = float(defined.min()) if defined.size else 0.0
    hi = float(defined.max()) if defined.size else 0.0
    span = hi - lo
    if not math.isfinite(span):
        raise ItemsimError(f"heatmap cells from {lo!r} to {hi!r} span beyond the float64 range")
    if ordering == "hierarchical":
        perm = hierarchical_order(SimilarityMatrix(item_ids=ids, values=_symmetrized(values)))
    elif ordering == "none":
        perm = list(range(n))
    else:
        raise ItemsimError(f"unknown ordering {ordering!r}")
    ids = tuple(ids[i] for i in perm)

    label_w = PAD * 2 + max((len(i) for i in ids), default=0) * (FONT * 3 // 5)
    size = label_w + n * CELL + PAD
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<style>text{{font-family:monospace;font-size:{FONT}px;fill:#000}}</style>',
    ]
    top = label_w - PAD
    for i, item_id in enumerate(ids):
        label, mid = _escape(item_id), label_w + i * CELL + CELL // 2
        out += [f'<text x="{PAD}" y="{mid + FONT // 2}">{label}</text>',
                f'<text x="{mid}" y="{top}" transform="rotate(-90 {mid} {top})">{label}</text>']
    out += _rect_rows(values[np.ix_(perm, perm)], lo, span, label_w)
    out.append("</svg>\n")  # not `join(...) + "\n"`, which copies the whole SVG once more
    return "\n".join(out)


def _rect_rows(values: np.ndarray, lo: float, span: float, label_w: int) -> list[str]:
    """The `<rect>` lines of each row, joined. A channel is rint(low + t * (high - low)),
    t = (v - lo) / span or 0.5 when span is 0: the float operations and half-even
    rounding of `round()`. Row by row, as n x n temporaries raised the peak RSS."""
    xs = [f'<rect x="{label_w + k * CELL}" y="' for k in range(len(values))]
    fills = {-1: _MISSING + '"/>'}
    rows = []
    for k, row in enumerate(values):
        missing = np.isnan(row)
        t = np.where(missing, 0.0, 0.5 if span == 0 else (row - lo) / span)
        code = sum(np.rint(low + t * (high - low)).astype(np.int64) << shift
                   for low, high, shift in zip(_LOW, _HIGH, (16, 8, 0)))
        codes = np.where(missing, -1, code).tolist()
        fills.update((c, f'#{c:06x}"/>') for c in set(codes) - fills.keys())
        y = f'{label_w + k * CELL}" width="{CELL}" height="{CELL}" fill="'
        rows.append("\n".join([x + y + fills[c] for x, c in zip(xs, codes)]))
    return rows


def _symmetrized(values: np.ndarray) -> np.ndarray:
    """Hierarchical ordering needs a full symmetric matrix; average the two
    triangles so mildly asymmetric inputs still order sensibly."""
    if np.isnan(values).any():
        raise ItemsimError("hierarchical ordering needs a fully defined matrix")
    with np.errstate(over="ignore"):
        total = values + values.T
    # halving first could drop a subnormal's last bit, so only sums beyond float64 do it
    return np.where(np.isinf(total), values / 2.0 + values.T / 2.0, total / 2.0)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
