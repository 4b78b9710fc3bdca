"""Which target trials to label: the k-medoids of the target pool.

:func:`pairwise_distances` gives the geodesic distances between the pool's
covariances, and :func:`k_medoids` picks k of its trials by PAM over them.
Medoids are actual trials, so each index can be handed to the label oracle.
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


def k_medoids(d: Array, k: int) -> list[int]:
    """The sorted indices of ``k`` medoids of the square, finite distance
    matrix ``d``, by PAM: a greedy BUILD, then the single best strictly
    improving swap, repeated until none lowers the cost by more than 1e-15.

    Ties go to the smallest index, and the swaps are scanned by medoid and
    candidate in ascending order, so the result is deterministic. Each SWAP
    pass takes the distances of every point to every candidate h once. A
    point whose own medoid leaves moves to h or to its second-nearest medoid,
    ``min(d(., h), d2) - d1``; any other point moves to h only if h is nearer,
    ``min(d(., h) - d1, 0)``. A swap's cost change sums the first over the
    leaving medoid's points and the second over the rest.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimMismatchError(f"distance matrix must be square, got {d.shape}")
    if not np.isfinite(d).all():
        raise NonFiniteError("distance matrix contains NaN or Inf")
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
    points = np.arange(n)
    while (hs := np.setdiff1d(points, medoids)).size:
        to_medoids = d[medoids]
        owner = np.argmin(to_medoids, axis=0)
        # the nearest and second-nearest medoid distances; a lone medoid has no second
        d1, d2 = np.sort(np.vstack((to_medoids, np.full(n, np.inf))), axis=0)[:2, :, None]
        dh = d[:, hs]
        lose, gain = np.minimum(dh, d2) - d1, np.minimum(dh - d1, 0.0)
        best_delta, best_swap = 0.0, None
        for mi in range(k):
            owned = owner == mi
            deltas = lose[owned].sum(axis=0) + gain[~owned].sum(axis=0)
            hi = int(np.argmin(deltas))
            if deltas[hi] < best_delta - 1e-15:
                best_delta, best_swap = float(deltas[hi]), (mi, int(hs[hi]))
        if best_swap is None:
            break
        mi, h = best_swap
        medoids[mi] = h
        medoids = sorted(medoids)
    return medoids
