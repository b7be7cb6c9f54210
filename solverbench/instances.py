"""Seeded instance families for the solver benchmark.

Each instance is made from the workload seed alone, and the solvers see
only the resulting :class:`FeatureMatrix`. Two families:

* ``clustered``: a mixture of Gaussian blobs around unit centres that form
  a regular simplex (pairwise inner product ``-1/(k-1)``), rows normalised
  to unit length. Greedy contraction recovers roughly one cluster per
  centre, so merged nodes become hubs with many in-neighbours.
* ``diffuse``: i.i.d. Gaussian rows normalised to unit length, with no
  cluster structure. Contraction stops early at many small clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from densemulticut import FeatureMatrix

FAMILIES = ("clustered", "diffuse")


def simplex_centres(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` unit vectors in ``R^d`` with pairwise inner product
    ``-1/(k-1)``, placed in a random orthonormal frame."""
    if not 2 <= k <= d:
        raise ValueError(f"need 2 <= k <= d, got k={k}, d={d}")
    frame = np.linalg.qr(rng.standard_normal((d, k)))[0].T
    centred = np.eye(k) - 1.0 / k
    centred /= np.linalg.norm(centred, axis=1, keepdims=True)
    return centred @ frame


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def clustered_rows(
    n: int, d: int, k: int, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Balanced mixture of ``k`` blobs of spread ``sigma`` around simplex
    centres, rows unit-normalised."""
    centres = simplex_centres(k, d, rng)
    labels = rng.permutation(np.arange(n) % k)
    return _unit_rows(centres[labels] + sigma * rng.standard_normal((n, d)))


def diffuse_rows(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Gaussian rows, unit-normalised."""
    return _unit_rows(rng.standard_normal((n, d)))


@dataclass(frozen=True)
class Regime:
    """One instance family at a fixed size."""

    family: str
    n: int
    d: int
    clusters: int = 0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    def rows(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        if self.family == "clustered":
            return clustered_rows(self.n, self.d, self.clusters, self.sigma, rng)
        return diffuse_rows(self.n, self.d, rng)

    def instance(self, seed: int) -> FeatureMatrix:
        return FeatureMatrix(self.rows(seed))

    def resized(self, n: int) -> "Regime":
        return replace(self, n=n)
