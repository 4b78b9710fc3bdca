"""Geometry of symmetric positive definite matrices, one at a time or stacked.

The matrix functions (roots, log, exp, the geodesic distance) take a ``(C, C)``
matrix or a stack ``(n, C, C)`` and work on the last two axes, after pyRiemann
(Barachant et al., IEEE TBME 2012). SPD matrices are plain float64 ndarrays,
validated by :func:`spd_from_matrix`. Every matrix function goes through one
symmetric eigendecomposition, :func:`_spectral`, so its results are exactly
symmetric (``TestMatrixFunctions.test_outputs_exactly_symmetric``) and a
stack's are a loop's, bit for bit (``TestSpdStacks.test_stack_matches_per_matrix_calls``).

Chunks are the package's one memory policy. A kernel over a stack as long as
a subject or a training set works through it in :func:`chunks`, of at most
``CHUNK_WORDS`` float64 words of input and one item at least, and writes each
chunk's result into a preallocated output. Its scratch is then a chunk, not a
stack (``TestSpdFromMatrix.test_a_stack_is_checked_a_chunk_at_a_time``), and
its results are the whole stack's, bit for bit
(``TestSpdStacks.test_tangent_chunks_give_the_whole_stack_bit_for_bit``). Its
users are covariance estimation, the blocks of a trial file, the generator's
batches, the pairwise distances and LA's products; each module says what it
holds beside its chunks, and names the test that bounds it.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from .errors import (
    DimMismatchError,
    EigFailureError,
    EmptyInputError,
    NonFiniteError,
    NotPositiveDefiniteError,
)

SPD_TOL = 1e-10
CHUNK_WORDS = 1 << 14  # the input words of one chunk of a stack kernel

Array = np.ndarray


def symmetrize(a: Array) -> Array:
    s = a + a.swapaxes(-1, -2)
    s *= 0.5  # in place: one temporary of the input's size, not two
    return s


def congruence(a: Array, s: Array) -> Array:
    """``A S Aᵀ`` for each matrix of ``s``; ``a`` is one matrix or one per matrix."""
    return symmetrize(a @ s @ a.swapaxes(-1, -2))


def _eigh(a: Array) -> tuple[Array, Array]:
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(f"symmetric eigendecomposition failed: {exc}") from exc


def chunks(n: int, item_words: int) -> Iterator[slice]:
    """Consecutive slices of ``range(n)``, each of as many items of
    ``item_words`` words as ``CHUNK_WORDS`` holds, and one item at least."""
    step = max(1, CHUNK_WORDS // item_words)
    return (slice(i, i + step) for i in range(0, n, step))


def _check_square(a: Array, name: str = "matrix") -> Array:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimMismatchError(f"{name} must be square and nonempty, got shape {a.shape}")
    return a


def as_stack(ps, op: str) -> Array:
    """A nonempty ``(n, C, C)`` float64 stack from an array or a sequence of matrices."""
    try:
        a = np.asarray(ps, dtype=np.float64)
    except ValueError as exc:
        raise DimMismatchError(f"{op}: mixed shapes") from exc
    if a.shape[:1] == (0,):
        raise EmptyInputError(f"{op}: empty input")
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimMismatchError(f"{op}: expected a stack of square matrices, got {a.shape}")
    return a


def spd_from_matrix(raw, name: str = "matrix") -> Array:
    """Symmetrize ``raw`` and check that the smallest eigenvalue of each
    matrix exceeds ``t = SPD_TOL * trace / dim``, by Cholesky factorizations of
    ``S - t I`` a chunk at a time
    (``TestSpdFromMatrix.test_decides_as_the_eigenvalue_rule``). The error names
    the first failing matrix of a stack as ``name i``, with its eigenvalue."""
    a = _check_square(raw, name)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    s = symmetrize(a)
    dim = s.shape[-1]
    threshold = SPD_TOL * np.trace(s, axis1=-2, axis2=-1) / dim
    stack, limits, eye = s.reshape(-1, dim, dim), threshold.reshape(-1), np.eye(dim)
    try:
        for rows in chunks(len(stack), dim * dim):
            np.linalg.cholesky(stack[rows] - limits[rows, None, None] * eye)
        return s
    except np.linalg.LinAlgError:
        pass
    w = np.linalg.eigvalsh(s)
    bad = np.flatnonzero(w[..., 0] <= threshold)
    if bad.size:
        i = bad[0]
        where = name if s.ndim == 2 else f"{name} {i}"
        raise NotPositiveDefiniteError(
            f"{where}: smallest eigenvalue {w[..., 0].flat[i]:.6g} "
            f"<= threshold {threshold.flat[i]:.6g}"
        )
    return s


def _require_positive_spectrum(w: Array, op: str) -> None:
    if w[..., 0].min() <= 0.0:
        raise NotPositiveDefiniteError(
            f"{op}: spectrum not positive (min {w[..., 0].min():.6g})"
        )


def _inv_sqrt(w: Array) -> Array:
    return 1.0 / np.sqrt(w)


def _spectral(p: Array, fn, op: str | None = None) -> Array:
    """Apply ``fn`` to the spectrum of every matrix in ``p``; with ``op``
    given, a non-positive spectrum raises."""
    w, u = _eigh(symmetrize(np.asarray(p, dtype=np.float64)))
    if op is not None:
        _require_positive_spectrum(w, op)
    return symmetrize((u * fn(w)[..., None, :]) @ u.swapaxes(-1, -2))


def spd_sqrt(p: Array) -> Array:
    """Principal matrix square root of an SPD matrix."""
    return _spectral(p, np.sqrt, op="spd_sqrt")


def spd_inv_sqrt(p: Array) -> Array:
    """Inverse principal square root of an SPD matrix."""
    return _spectral(p, _inv_sqrt, op="spd_inv_sqrt")


def spd_log(p: Array) -> Array:
    """Matrix logarithm of an SPD matrix (a symmetric matrix)."""
    return _spectral(p, np.log, op="spd_log")


def spd_exp(s: Array) -> Array:
    """Matrix exponential of a symmetric matrix (an SPD matrix)."""
    return _spectral(s, np.exp)


def riemannian_distance(p1: Array, p2: Array):
    """Geodesic distance sqrt(sum log^2 eigenvalues of p1^-1 p2), from the
    stable eigenproblem of p1^{-1/2} p2 p1^{-1/2}. The leading axes of ``p1``
    and ``p2`` broadcast: two matrices give a float, stacks an array. Only
    ``p1`` is factored, so callers put the side with fewer matrices first
    (``TestMdm.test_prediction_factors_only_the_class_means``)."""
    p1 = _check_square(p1, "p1")
    p2 = _check_square(p2, "p2")
    if p1.shape[-1] != p2.shape[-1]:
        raise DimMismatchError(f"dimension mismatch: {p1.shape} vs {p2.shape}")
    isq = spd_inv_sqrt(p1)
    d = distance_from_whitened(isq @ p2 @ isq)
    return float(d) if d.ndim == 0 else d


def distance_from_whitened(whitened: Array) -> Array:
    """The geodesic distance that each whitened matrix ``p1^{-1/2} p2
    p1^{-1/2}`` of ``whitened`` stands for."""
    w = np.linalg.eigvalsh(symmetrize(whitened))
    _require_positive_spectrum(w, "riemannian_distance")
    return np.sqrt(np.sum(np.log(w) ** 2, axis=-1))


@functools.cache
def _triangle(c: int) -> tuple[tuple[Array, Array], Array]:
    """The upper-triangle indices of a ``(c, c)`` matrix and their weights, as
    read-only arrays."""
    iu = np.triu_indices(c)
    weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    for a in (*iu, weights):
        a.flags.writeable = False
    return iu, weights


def flatten_sym(s: Array) -> Array:
    """The row-major upper triangle (d11, sqrt(2)*d12, ..., sqrt(2)*d1C, d22,
    ..., dCC) of a symmetric matrix, of length C(C+1)/2; the weights make the
    Euclidean inner product of flats the Frobenius one of the matrices."""
    s = _check_square(s, "symmetric matrix")
    iu, weights = _triangle(s.shape[-1])
    return weights * s[..., iu[0], iu[1]]


def tangent_map(isq: Array, p: Array) -> Array:
    """Normalised tangent vectors (n, C(C+1)/2) of the stack ``p`` (n, C, C)
    at the reference whose inverse square root is ``isq`` (C, C):
    ``flatten_sym(log(ref^{-1/2} p ref^{-1/2}))`` (Barachant et al., IEEE TBME
    59(4), 2012, eq. 10), which scaling ``p`` and the reference by one factor
    leaves as they are."""
    isq = _check_square(isq, "isq")
    p = as_stack(p, "tangent_map")
    if isq.ndim != 2 or p.shape[-1] != isq.shape[-1]:
        raise DimMismatchError(f"dimension mismatch: isq {isq.shape} vs {p.shape}")
    n, c = p.shape[:2]
    out = np.empty((n, c * (c + 1) // 2))
    for rows in chunks(n, c * c):
        out[rows] = flatten_sym(spd_log(isq @ p[rows] @ isq))
    return out


def log_euclidean_mean(logs) -> Array:
    """Log-Euclidean mean ``exp(mean(log Pᵢ))`` of the matrices whose matrix
    logs (:func:`spd_log`) are the stack ``logs`` (n, C, C)."""
    return spd_exp(np.mean(as_stack(logs, "log_euclidean_mean"), axis=0))


def arithmetic_mean_cov(ps) -> Array:
    """Entrywise average of the matrices."""
    return symmetrize(np.mean(as_stack(ps, "arithmetic_mean_cov"), axis=0))
