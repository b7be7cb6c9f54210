"""Output checks for every solve the benchmark makes.

Each check returns a list of problems; an empty list means the solve
passed. The objective check recomputes the dense objective from the merge
trace in O(n*d), independently of the solver's own ``objective()`` path:
the sum over all pairs is ``((sum qr) . (sum db) - sum_i qr_i . db_i) / 2``,
and every merge removes exactly the similarity it contracted from the cut.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from densemulticut import AlphaSign, FeatureMatrix

#: Relative tolerance between ``partition.objective`` and the trace check.
OBJECTIVE_RTOL = 1e-9
#: Largest relative objective gap allowed for an approximate solver; the
#: same envelope the solver tests use.
ENVELOPE = 0.02


def all_pairs_total(fm: FeatureMatrix, alpha: float, sign: AlphaSign) -> float:
    """Sum of similarities over all unordered node pairs, in O(n*d)."""
    db = fm.data.astype(np.float64)
    qr = db
    if sign is not AlphaSign.OFF:
        # the solver stores the affinity in 32-bit, like the features
        a = np.full((fm.n, 1), np.float32(alpha), dtype=np.float64)
        db = np.hstack([db, a])
        qr = np.hstack([qr, sign.factor * a])
    cross = float(qr.sum(axis=0) @ db.sum(axis=0))
    return (cross - float(np.einsum("ij,ij->", qr, db))) / 2.0


def check_solve(result, n: int, total: float) -> list[str]:
    """Problems with one solve's output on an ``n``-node instance whose
    all-pairs similarity sum is ``total``."""
    problems = []
    sims = np.array([step.similarity for step in result.trace], dtype=np.float64)
    if (sims < 0).any():
        problems.append(f"{int((sims < 0).sum())} merges with negative similarity")
    part = result.partition
    if part.n_clusters != n - len(result.trace):
        problems.append(
            f"n_clusters {part.n_clusters} != n - merges {n - len(result.trace)}"
        )
    expected = total - float(sims.sum())
    if abs(part.objective - expected) > OBJECTIVE_RTOL * max(1.0, abs(expected)):
        problems.append(
            f"objective {part.objective!r} != trace check {expected!r}"
        )
    return problems


def merge_pairs(result) -> list[tuple[int, int, int]]:
    return [(step.i, step.j, step.m) for step in result.trace]


def check_same_trace(ref, alt) -> list[str]:
    """Problems when ``alt`` does not reproduce ``ref`` merge for merge."""
    if merge_pairs(ref) != merge_pairs(alt):
        return ["merge trace differs from the reference solver"]
    a = np.array([s.similarity for s in ref.trace])
    b = np.array([s.similarity for s in alt.trace])
    if not np.allclose(a, b, rtol=OBJECTIVE_RTOL, atol=0.0):
        return ["merge similarities differ from the reference solver"]
    return []


def check_envelope(ref_objective: float, alt_objective: float) -> list[str]:
    """Problems when the approximate objective is more than ``ENVELOPE``
    away from the reference objective."""
    gap = abs(alt_objective - ref_objective) / max(1e-12, abs(ref_objective))
    if gap > ENVELOPE:
        return [f"objective gap {gap:.4f} exceeds the {ENVELOPE} envelope"]
    return []


def check_repeat(objectives: Sequence[float]) -> list[str]:
    """Problems when repeated solves of one instance disagree."""
    if len(set(objectives)) > 1:
        return [f"repeated solves gave objectives {sorted(set(objectives))}"]
    return []
