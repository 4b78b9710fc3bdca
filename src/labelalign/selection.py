"""k-medoids (PAM) over a precomputed geodesic distance matrix.

Used to pick which target trials to ask labels for: medoids are actual
trials, so each selected index can be handed to the label oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, KTooLargeError, NonFiniteError
from .spd import CHUNK_WORDS, Array, as_stack, distance_from_whitened, spd_inv_sqrt


def pairwise_distances(covs) -> Array:
    """Symmetric matrix of geodesic distances over a stack (n, C, C).

    The inverse square roots of the whole stack come from one batched
    eigendecomposition. Row i of the upper triangle whitens every later
    matrix by matrix i, ``isq[i] covs[j] isq[i]`` for j > i. Consecutive rows
    are grouped while their whitened matrices fit in ``CHUNK_WORDS`` words,
    one row at least, and each group's distances come from one eigvalsh
    (:func:`labelalign.spd.distance_from_whitened`), which decomposes each
    matrix as a call per row would, bit for bit.
    """
    covs = as_stack(covs, "pairwise_distances")
    n, c = covs.shape[:2]
    isq = spd_inv_sqrt(covs)
    first = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))  # row i's first pair
    fits = max(1, CHUNK_WORDS // (c * c))
    upper = np.empty(first[-1])
    a = 0
    while a < n - 1:
        b = max(a + 1, int(np.searchsorted(first, first[a] + fits, "right")) - 1)
        whitened = np.empty((first[b] - first[a], c, c))
        for i in range(a, b):
            rows = slice(first[i] - first[a], first[i + 1] - first[a])
            np.matmul(isq[i] @ covs[i + 1 :], isq[i], out=whitened[rows])
        upper[first[a] : first[b]] = distance_from_whitened(whitened)
        a = b
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
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
