import numpy as np
import pytest

from densemulticut.core import AlphaSign, FeatureMatrix


def make_instance(n, d, seed, alpha=None, sign=AlphaSign.OFF, scale=1.0):
    """Random continuous feature instance; ties have probability zero."""
    rng = np.random.default_rng(seed)
    data = rng.normal(scale=scale, size=(n, d)).astype(np.float32)
    fm = FeatureMatrix(data)
    if alpha is not None:
        fm = fm.with_affinity(alpha, sign)
    return fm


def set_arcs(graph, u, arcs, *, from_full):
    """Replace u's arcs in ``graph`` wholesale. A row ``from_full`` an
    exhaustive search keeps its finite floor, or else lists every candidate
    (floor ``-inf``); any other row takes the floor ``+inf``."""
    floor = graph.floor[u]
    graph._clear_row(u)
    graph.fill_row(u, arcs)
    graph.floor[u] = (floor if np.isfinite(floor) else -np.inf) if from_full else np.inf


def simplex_centers(k, d, rng):
    """k unit vectors with pairwise inner product -1/(k-1), random frame."""
    assert k <= d + 1
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    pre = np.eye(k) - np.full((k, k), 1.0 / k)
    ev, evec = np.linalg.eigh(pre)
    pts = evec[:, 1:] * np.sqrt(np.maximum(ev[1:], 0))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return pts @ basis[:, : k - 1].T


def clustered_instance(idx, n_range=(5, 201), d_range=(2, 17)):
    """One instance of the shared 100-instance solver suite.

    Well-separated mixture: simplex-arranged unit centers plus small noise,
    L2-normalized. Continuous, so exact similarity ties have probability
    zero. Alternates affinity off / 0.4-minus.
    """
    rng = np.random.default_rng(5000 + idx)
    n = int(rng.integers(*n_range))
    d = int(rng.integers(*d_range))
    k = int(rng.integers(2, min(6, d + 1) + 1))
    sigma = float(rng.uniform(0.02, 0.07))
    centers = simplex_centers(k, d, rng)
    labels = rng.permutation(np.arange(n) % k)
    pts = centers[labels] + rng.normal(scale=sigma, size=(n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    sign = AlphaSign.MINUS if idx % 2 == 0 else AlphaSign.OFF
    return FeatureMatrix(pts.astype(np.float32)), sign


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
