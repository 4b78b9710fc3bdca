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
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimMismatchError,
    EigFailureError,
    EmptyInputError,
    NonFiniteError,
    NotPositiveDefiniteError,
)

SPD_TOL = 1e-10

Array = np.ndarray


def symmetrize(a: Array) -> Array:
    return 0.5 * (a + a.swapaxes(-1, -2))


def congruence(a: Array, s: Array) -> Array:
    """``A S Aᵀ`` for each matrix of ``s``; ``a`` is one matrix or one per matrix."""
    return symmetrize(a @ s @ a.swapaxes(-1, -2))


def _eigh(a: Array) -> tuple[Array, Array]:
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(f"symmetric eigendecomposition failed: {exc}") from exc


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


def spd_from_matrix(raw, tol: float = SPD_TOL, name: str = "matrix") -> Array:
    """Symmetrize ``raw`` and validate positive definiteness.

    The smallest eigenvalue of each matrix must exceed ``t = tol * trace /
    dim`` (a scale-free threshold). One batched Cholesky factorization of
    ``S - t I`` decides that; only when it fails are the eigenvalues taken,
    and the error names the first failing matrix of a stack as ``name i``
    with its smallest eigenvalue. Returns the validated symmetric matrix or
    stack.
    """
    a = _check_square(raw, name)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    s = symmetrize(a)
    threshold = tol * np.trace(s, axis1=-2, axis2=-1) / s.shape[-1]
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


def _spectral(p: Array, *fns, op: str | None = None) -> list[Array]:
    """Apply each of ``fns`` to the spectrum of every matrix in ``p``, sharing
    one eigendecomposition; with ``op`` given, a non-positive spectrum raises."""
    w, u = _eigh(symmetrize(np.asarray(p, dtype=np.float64)))
    if op is not None:
        _require_positive_spectrum(w, op)
    ut = u.swapaxes(-1, -2)
    return [symmetrize((u * fn(w)[..., None, :]) @ ut) for fn in fns]


def spd_sqrt(p: Array) -> Array:
    """Principal matrix square root of an SPD matrix."""
    return _spectral(p, np.sqrt, op="spd_sqrt")[0]


def spd_inv_sqrt(p: Array) -> Array:
    """Inverse principal square root of an SPD matrix."""
    return _spectral(p, _inv_sqrt, op="spd_inv_sqrt")[0]


def spd_log(p: Array) -> Array:
    """Matrix logarithm of an SPD matrix (a symmetric matrix)."""
    return _spectral(p, np.log, op="spd_log")[0]


def spd_exp(s: Array) -> Array:
    """Matrix exponential of a symmetric matrix (an SPD matrix)."""
    return _spectral(s, np.exp)[0]


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
    w = np.linalg.eigvalsh(symmetrize(isq @ p2 @ isq))
    _require_positive_spectrum(w, "riemannian_distance")
    return np.sqrt(np.sum(np.log(w) ** 2, axis=-1))


def _triangle(c: int) -> tuple[tuple[Array, Array], Array]:
    iu = np.triu_indices(c)
    return iu, np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


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


def tangent_map(ref: Array, p: Array) -> Array:
    """Logarithmic map of ``p`` (one matrix or a stack) at ``ref``, flattened.

    S = ref^{1/2} log(ref^{-1/2} p ref^{-1/2}) ref^{1/2}, flattened by
    :func:`flatten_sym`. The reference is factored once for the whole stack.
    """
    ref = _check_square(ref, "ref")
    p = _check_square(p, "p")
    if ref.ndim != 2 or p.shape[-1] != ref.shape[-1]:
        raise DimMismatchError(f"dimension mismatch: ref {ref.shape} vs {p.shape}")
    half, inv_half = _spectral(ref, np.sqrt, _inv_sqrt, op="tangent_map")
    return flatten_sym(symmetrize(half @ spd_log(inv_half @ p @ inv_half) @ half))


def log_euclidean_mean(ps, logs: Array | None = None) -> Array:
    """exp of the mean matrix log of ``ps``, from their ``logs`` when given."""
    if logs is None:
        logs = spd_log(as_stack(ps, "log_euclidean_mean"))
    return spd_exp(np.mean(logs, axis=0))


def class_means(covs: Array, labels, logs: Array | None = None) -> dict:
    """:func:`log_euclidean_mean` of the matrices of each label, keyed by
    label, from their matrix ``logs`` (taken here, in one batch, when not given)."""
    labels = np.asarray(labels)
    if logs is None:
        logs = spd_log(covs)
    masks = {int(l): labels == l for l in np.unique(labels)}
    return {l: log_euclidean_mean(covs[m], logs[m]) for l, m in masks.items()}


def arithmetic_mean_cov(ps) -> Array:
    """Entrywise average of the matrices."""
    return symmetrize(np.mean(as_stack(ps, "arithmetic_mean_cov"), axis=0))
