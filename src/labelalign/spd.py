"""Geometry of symmetric positive definite matrices, one at a time or stacked.

Every function takes a single ``(C, C)`` matrix or a stack ``(n, C, C)`` of
them and works on the last two axes, after pyRiemann's stacked-covariance
API (Barachant et al., IEEE TBME 2012). SPD matrices are plain float64
ndarrays validated by :func:`spd_from_matrix`, by a Cholesky factorization
rather than an eigendecomposition. Every matrix function goes
through one symmetric eigendecomposition kernel, :func:`_spectral`, and
symmetrizes its output, so results stay exactly symmetric under rounding.
On a single matrix the kernel performs exactly the operations of a
per-matrix implementation, and on a stack it gives the same bits as a loop.

A whole-stack kernel holds a few temporaries of the stack's size, so a
stack as long as a training set is worked through in :func:`chunks`: at most
``CHUNK_WORDS = 2^14`` float64 words (128 KiB) of input each, one matrix at
least, each chunk's result written into a preallocated output.
:func:`tangent_map` thus holds its ``(n, C(C+1)/2)`` vectors and the scratch
of one chunk (its products, eigenvectors and reconstruction, about four
times the chunk's words). Every matrix goes through the same operations, so
the vectors are the whole-stack ones, bit for bit. Covariance estimation
(:mod:`labelalign.features`), the blocks in which a trial file is read
(:func:`labelalign.dataio.read_trial_blocks`) and LA's products
(:mod:`labelalign.alignment`, ``labelalign align``) use the same chunks. The pairwise distances of
:mod:`labelalign.selection` fill a chunk the other way round, with as many
whole rows of whitened matrices as ``CHUNK_WORDS`` holds (one row at
least), so that one eigensolver call takes many small matrices.

A matrix's inverse root is taken once by whoever whitens by it:
:func:`whitened_distance` and :func:`tangent_map` take it as ``isq``.
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
    """Symmetrize ``raw`` and validate positive definiteness.

    The smallest eigenvalue of each matrix must exceed ``t = SPD_TOL * trace
    / dim`` (a scale-free threshold). One batched Cholesky factorization of
    ``S - t I`` decides that; only when it fails are the eigenvalues taken,
    and the error names the first failing matrix of a stack as ``name i``
    with its smallest eigenvalue. Returns the validated symmetric matrix or
    stack.
    """
    a = _check_square(raw, name)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    s = symmetrize(a)
    threshold = SPD_TOL * np.trace(s, axis1=-2, axis2=-1) / s.shape[-1]
    try:
        np.linalg.cholesky(s - threshold[..., None, None] * np.eye(s.shape[-1]))
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
    """Geodesic distance sqrt(sum log^2 eigenvalues of p1^-1 p2).

    Computed on the symmetric matrix p1^{-1/2} p2 p1^{-1/2}, whose spectrum
    equals that of p1^{-1} p2 but whose eigenproblem is stable. Invariant
    under congruence by any invertible matrix. The leading axes of ``p1``
    and ``p2`` broadcast: two matrices give a float, stacks an array. Only
    ``p1`` is factored, so callers put the side with fewer matrices first.
    """
    p1 = _check_square(p1, "p1")
    p2 = _check_square(p2, "p2")
    if p1.shape[-1] != p2.shape[-1]:
        raise DimMismatchError(f"dimension mismatch: {p1.shape} vs {p2.shape}")
    d = whitened_distance(spd_inv_sqrt(p1), p2)
    return float(d) if d.ndim == 0 else d


def whitened_distance(isq: Array, p2: Array) -> Array:
    """:func:`riemannian_distance` from the matrices whose inverse square
    roots are ``isq`` to ``p2``, from the spectrum of ``isq p2 isq``."""
    return distance_from_whitened(isq @ p2 @ isq)


def distance_from_whitened(whitened: Array) -> Array:
    """The geodesic distance that each whitened matrix ``p1^{-1/2} p2
    p1^{-1/2}`` of ``whitened`` stands for, from one symmetrize and one
    ``eigvalsh`` of the whole stack."""
    w = np.linalg.eigvalsh(symmetrize(whitened))
    _require_positive_spectrum(w, "riemannian_distance")
    return np.sqrt(np.sum(np.log(w) ** 2, axis=-1))


@functools.cache
def _triangle(c: int) -> tuple[tuple[Array, Array], Array]:
    """The upper-triangle indices of a ``(c, c)`` matrix and their weights,
    built once per ``c`` as read-only arrays."""
    iu = np.triu_indices(c)
    weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    for a in (*iu, weights):
        a.flags.writeable = False
    return iu, weights


def flatten_sym(s: Array) -> Array:
    """Upper triangle of a symmetric matrix with sqrt(2)-weighted off-diagonals.

    The flat layout is the row-major upper triangle
    (d11, sqrt(2)*d12, ..., sqrt(2)*d1C, d22, ..., dCC), of length
    C(C+1)/2; the weights make the Euclidean inner product of flats equal
    the Frobenius inner product of the symmetric matrices.
    """
    s = _check_square(s, "symmetric matrix")
    iu, weights = _triangle(s.shape[-1])
    return weights * s[..., iu[0], iu[1]]


def tangent_map(isq: Array, p: Array) -> Array:
    """Normalised tangent vector of ``p`` (one matrix or a stack) at the
    reference whose inverse square root is ``isq`` (:func:`spd_inv_sqrt`).

    s = upper(log(ref^{-1/2} p ref^{-1/2})), flattened by :func:`flatten_sym`
    (Barachant et al., IEEE TBME 59(4), 2012, eq. 10). The log map is taken
    in the coordinates that whiten the reference, so the vectors do not
    depend on the covariances' units: scaling the reference and ``p`` by one
    factor leaves them as they are. The caller takes the root once and maps
    every stack with it, as for :func:`whitened_distance`; the stack is
    mapped in :func:`chunks` of its matrices into the preallocated vectors.
    """
    isq = _check_square(isq, "isq")
    p = _check_square(p, "p")
    if isq.ndim != 2 or p.shape[-1] != isq.shape[-1]:
        raise DimMismatchError(f"dimension mismatch: isq {isq.shape} vs {p.shape}")
    c = isq.shape[-1]
    stack = p.reshape(-1, c, c)
    out = np.empty((len(stack), c * (c + 1) // 2))
    for rows in chunks(len(stack), c * c):
        out[rows] = flatten_sym(spd_log(isq @ stack[rows] @ isq))
    return out.reshape(*p.shape[:-2], out.shape[-1])


def log_euclidean_mean(logs) -> Array:
    """Log-Euclidean mean ``exp(mean(log Pᵢ))`` of the matrices whose matrix
    logs (:func:`spd_log`) are the stack ``logs`` (n, C, C)."""
    return spd_exp(np.mean(as_stack(logs, "log_euclidean_mean"), axis=0))


def arithmetic_mean_cov(ps) -> Array:
    """Entrywise average of the matrices."""
    return symmetrize(np.mean(as_stack(ps, "arithmetic_mean_cov"), axis=0))
