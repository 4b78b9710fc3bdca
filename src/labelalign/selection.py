"""k-medoids (PAM) over a precomputed geodesic distance matrix.

Used to pick which target trials to ask labels for: medoids are actual
trials, so each selected index can be handed to the label oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, KTooLargeError, NonFiniteError
from .spd import Array, as_stack, chunks, distance_from_whitened, spd_inv_sqrt


def pairwise_distances(covs) -> Array:
    """Symmetric matrix of geodesic distances over a stack (n, C, C).

    The inverse square roots of the whole stack come from one batched
    eigendecomposition. The upper-triangle pairs (i, j), i < j, in row-major
    order, are worked through in :func:`labelalign.spd.chunks` of
    ``CHUNK_WORDS`` words, as every stack kernel is: each chunk whitens its
    pairs as ``isq[i] covs[j] isq[i]`` and takes their distances from one
    eigvalsh (:func:`labelalign.spd.distance_from_whitened`). Each pair goes
    through the operations of :func:`labelalign.spd.riemannian_distance` on
    that pair alone, so the distances are its own, bit for bit.
    """
    covs = as_stack(covs, "pairwise_distances")
    n, c = covs.shape[:2]
    isq = spd_inv_sqrt(covs)
    rows, cols = np.triu_indices(n, 1)
    d = np.zeros((n, n))
    for pairs in chunks(len(rows), c * c):
        i, j = rows[pairs], cols[pairs]
        d[i, j] = distance_from_whitened(isq[i] @ covs[j] @ isq[i])
    return d + d.T


def _validate_distance_matrix(d: Array) -> Array:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimMismatchError(f"distance matrix must be square, got {d.shape}")
    if not np.isfinite(d).all():
        raise NonFiniteError("distance matrix contains NaN or Inf")
    return d


def k_medoids(d: Array, k: int) -> list[int]:
    """PAM: greedy BUILD then best-improvement SWAP until a local optimum.

    Fully deterministic: ties are broken by the smallest index, and the
    swap scan considers medoids and candidates in ascending index order.
    Returns sorted indices.
    """
    d = _validate_distance_matrix(d)
    n = d.shape[0]
    if not 1 <= k <= n:
        raise KTooLargeError(f"k must satisfy 1 <= k <= {n}, got {k}")

    # BUILD: start from the 1-medoid, then add the point with the largest
    # cost reduction. argmin/argmax return the first (smallest) index on ties.
    medoids = [int(np.argmin(d.sum(axis=1)))]
    nearest = d[medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(nearest[None, :] - d, 0.0).sum(axis=1)
        gains[medoids] = -np.inf
        best = int(np.argmax(gains))
        medoids.append(best)
        nearest = np.minimum(nearest, d[best])

    # SWAP: repeatedly apply the single best strictly improving swap.
    medoids = sorted(medoids)
    while True:
        med = np.asarray(medoids)
        dist_to_med = d[med]
        order = np.argsort(dist_to_med, axis=0, kind="stable")
        d1 = dist_to_med[order[0], np.arange(n)]
        owner = order[0]
        d2 = (
            dist_to_med[order[1], np.arange(n)]
            if k > 1
            else np.full(n, np.inf)
        )
        non_medoids = [h for h in range(n) if h not in set(medoids)]
        if not non_medoids:
            break
        hs = np.asarray(non_medoids)
        best_delta = 0.0
        best_swap = None
        for mi, m in enumerate(medoids):
            owned = owner == mi
            # Points losing medoid m move to min(d(., h), second nearest);
            # the rest can only improve by moving to h.
            delta_owned = (
                np.minimum(d[np.ix_(owned.nonzero()[0], hs)], d2[owned, None])
                - d1[owned, None]
            ).sum(axis=0)
            others = ~owned
            delta_others = np.minimum(
                d[np.ix_(others.nonzero()[0], hs)] - d1[others, None], 0.0
            ).sum(axis=0)
            deltas = delta_owned + delta_others
            hi = int(np.argmin(deltas))
            if deltas[hi] < best_delta - 1e-15:
                best_delta = float(deltas[hi])
                best_swap = (mi, int(hs[hi]))
        if best_swap is None:
            break
        mi, h = best_swap
        medoids[mi] = h
        medoids = sorted(medoids)
    return medoids
