"""Deterministic low-dimensional projections: PCA over feature matrices and
classical (Torgerson) metric MDS over similarity matrices."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ItemsimError
from .features import FeatureMatrix
from .similarity import SimilarityMatrix

log = logging.getLogger("itemsim.projection")


@dataclass(frozen=True)
class Embedding:
    """Coordinates per item; explained_variance holds per-dimension shares
    of total variance (PCA only)."""

    item_ids: tuple[str, ...]
    coordinates: np.ndarray
    explained_variance: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "coordinates", np.asarray(self.coordinates, dtype=np.float64))
        if self.coordinates.ndim != 2 or self.coordinates.shape[0] != len(self.item_ids):
            raise ItemsimError("coordinates must be one row per item")
        if self.coordinates.shape[1] < 1:
            raise ItemsimError("embedding needs at least one dimension")
        if not np.all(np.isfinite(self.coordinates)):
            raise ItemsimError("coordinates must be finite")

    @property
    def dims(self) -> int:
        return self.coordinates.shape[1]


def _pivot_signs(rows: np.ndarray) -> np.ndarray:
    """+1 or -1 per row: the factor that makes positive the row's first
    entry whose magnitude is within a relative 1e-9 of its largest, so that
    rounding does not choose between near-ties (a 2-item MDS axis is +x and
    -x up to rounding)."""
    magnitudes = np.abs(rows)
    tied = magnitudes >= magnitudes.max(axis=1, keepdims=True) * (1 - 1e-9)
    pivots = rows[np.arange(len(rows)), tied.argmax(axis=1)]
    return np.where(pivots < 0, -1.0, 1.0)


def pca_project(m: FeatureMatrix, dims: int) -> Embedding:
    """Project items onto the top principal directions of the column-centered
    feature matrix. Sign convention: each direction's largest-magnitude
    loading (the first within a relative 1e-9 of it) is positive."""
    limit = min(m.n_items, m.n_features)
    if not 1 <= dims <= limit:
        raise ItemsimError(f"dims={dims} out of range 1..{limit}")
    if m.n_items < 2:
        raise ItemsimError("need at least 2 items")
    x = m.values - m.values.mean(axis=0, keepdims=True)
    u, sing, vt = np.linalg.svd(x, full_matrices=False)
    coords = u[:, :dims] * _pivot_signs(vt[:dims]) * sing[:dims]
    total = float((sing ** 2).sum())
    if total > 0:
        shares = tuple(float(s * s / total) for s in sing[:dims])
    else:
        shares = (0.0,) * dims
    return Embedding(item_ids=m.item_ids, coordinates=coords, explained_variance=shares)


def mds_project(s: SimilarityMatrix, dims: int) -> Embedding:
    """Classical metric MDS on the dissimilarity d = max(S) - S: double-center
    -d^2/2, eigendecompose, embed with the top non-negative eigenvalues.
    Negative eigenvalues are clamped to zero and reported."""
    d2 = np.square(s.dissimilarity())
    n = s.n_items
    if not 1 <= dims <= n - 1:
        raise ItemsimError(f"dims={dims} out of range 1..{n - 1}")
    # double centring by the column means m of the symmetric d2: the sum
    # m_i + m_j is the same float both ways round, so b is exactly symmetric
    m = d2.mean(axis=0)
    b = -0.5 * (d2 - (m[:, None] + m) + m.mean())
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1][:dims]
    top = eigvals[order]
    clamped = int((top < 0).sum())
    if clamped:
        log.warning("MDS clamped %d negative eigenvalues (most negative %.3g)",
                    clamped, float(top.min()))
    coords = eigvecs[:, order] * np.sqrt(np.maximum(top, 0.0))
    coords *= _pivot_signs(coords.T)
    return Embedding(item_ids=s.item_ids, coordinates=coords)
