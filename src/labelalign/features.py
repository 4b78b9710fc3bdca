"""Covariance estimation, CSP spatial filtering, and tangent-space features.

A subject's trials enter the pipelines once: :func:`covariance_stack` turns
its ``(n, C, T)`` trial array and its labels into a :class:`CovStack` of
``(n, C, C)`` covariances, and every later step works on such stacks. The
feature functions return ``(n, d)`` arrays.

Covariance estimation copies no subject. :func:`trial_covariance` and
:func:`centred_scatter` take the trial array as given and work through it in
chunks of at most ``_CHUNK_WORDS = 2^14`` 64-bit words (128 KiB), one trial
at least, each chunk a view of the array, writing each chunk's Gram matrices
into the preallocated ``(n, C, C)`` result. Their temporary arrays then hold
one chunk (the scatter's centred copy of it), however many trials a subject
has. Each matrix is the matmul of its own trial, so the values are those of
a whole-stack product, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from .errors import (
    ConfigError,
    DegenerateCovarianceError,
    DimMismatchError,
    EmptyInputError,
)
from .spd import (
    Array,
    as_stack,
    congruence,
    spd_from_matrix,
    spd_log,
    symmetrize,
    tangent_map,
)

DEFAULT_CSP_PAIRS = 3
_CHUNK_WORDS = 1 << 14


@dataclass(frozen=True, eq=False)
class CovStack:
    """A stack of trials as spatial covariances ``covs`` (n, C, C) with ``labels`` (n,) or None.

    ``scatter`` is the time-centred scatter (n, C, C) that CSP features read,
    or None. Aligning the trials as ``A X`` maps both stacks to ``A S Aᵀ``.
    ``logs`` are the matrix logs of ``covs`` once :meth:`with_logs` took them;
    selection and relabeling keep them, a congruence drops them.
    """

    covs: Array
    labels: Array | None = None
    scatter: Array | None = None
    logs: Array | None = None

    def take(self, idx) -> CovStack:
        return CovStack(*(None if a is None else a[idx] for a in vars(self).values()))

    def transformed(self, a: Array) -> CovStack:
        """Congruence by ``a`` ((C, C) or one matrix per trial)."""
        return CovStack(
            congruence(a, self.covs),
            self.labels,
            None if self.scatter is None else congruence(a, self.scatter),
        )

    def with_logs(self) -> CovStack:
        """This stack carrying the matrix logs of its covariances, taken at most once."""
        return self if self.logs is not None else replace(self, logs=spd_log(self.covs))


@dataclass(frozen=True, eq=False)
class CspModel:
    """Spatial filter bank: ``filters`` rows applied to raw trials.

    Two classes give 2*pairs rows; more classes give 2*pairs rows per
    class (one-vs-rest), concatenated in class order.
    """

    filters: Array
    pairs: int
    classes: tuple


def _as_trials(x) -> tuple[Array, bool]:
    """``x`` as a stack (n, C, T) of trials, and whether it was one trial (C, T);
    ragged input (trials of different shapes) raises :class:`DimMismatchError`."""
    try:
        data = np.asarray(x, dtype=np.float64)
    except ValueError as exc:
        raise DimMismatchError(f"trials must be one (C, T) or (n, C, T) array: {exc}") from exc
    single = data.ndim == 2
    trials = data[None] if single else data
    if trials.ndim != 3:
        raise DimMismatchError(f"trials must be (C, T) or (n, C, T), got {data.shape}")
    if len(trials) == 0:
        raise EmptyInputError("no trials")
    if 0 in trials.shape[1:]:
        raise DimMismatchError(f"trials must have C, T > 0, got {trials.shape[1:]}")
    return trials, single


def _gram_stack(x, centred: bool) -> Array:
    """The Gram matrix ``X Xᵀ`` of each trial of ``x`` (of its time-centred
    rows when ``centred``): (C, C) for one trial, else (n, C, C). Each chunk
    is a view of the trial array."""
    trials, single = _as_trials(x)
    n, c, t = trials.shape
    step = max(1, _CHUNK_WORDS // (c * t))
    out = np.empty((n, c, c))
    for i in range(0, n, step):
        chunk = trials[i:i + step]
        if centred:
            chunk = chunk - chunk.mean(axis=-1, keepdims=True)
        np.matmul(chunk, chunk.swapaxes(-1, -2), out=out[i:i + len(chunk)])
    return out[0] if single else out


def trial_covariance(x, shrinkage: float = 0.0) -> Array:
    """Spatial covariance X X^T of a trial (C, T) or of each trial in (n, C, T).

    ``shrinkage`` in [0, 1) blends in trace(C)/dim * I, which keeps the
    result SPD for rank-deficient trials (T < channels). The default of 0
    is the plain Gram matrix. The trials are worked through in chunks of
    at most ``_CHUNK_WORDS`` values, so no copy of the trials is made
    whole; the covariances are validated once, and a degenerate trial of a
    stack is named by its index in the error.
    """
    if not 0.0 <= shrinkage < 1.0:
        raise ConfigError(f"shrinkage must be in [0, 1), got {shrinkage}")
    c = _gram_stack(x, centred=False)
    if shrinkage > 0.0:
        dim = c.shape[-1]
        trace = np.trace(c, axis1=-2, axis2=-1)[..., None, None]
        c = (1.0 - shrinkage) * c + shrinkage * (trace / dim) * np.eye(dim)
    return spd_from_matrix(c, name="trial")


def centred_scatter(x) -> Array:
    """Time-centred scatter Xc Xc^T of a trial (C, T) or of each trial in (n, C, T).

    Divided by T - 1 it is the ddof=1 sample covariance, whose filtered
    diagonal gives the variances :func:`csp_features` takes. Like
    :func:`trial_covariance` it centres the trials chunk by chunk, so no
    copy of the trials is made whole.
    """
    return _gram_stack(x, centred=True)


def covariance_stack(data, labels, shrinkage: float = 0.0, scatter: bool = False) -> CovStack:
    """Covariances of the trials ``data`` (n, C, T), labeled by ``labels`` (n,)
    or None (and their centred scatter when ``scatter``), estimated from
    ``data`` as given, which is never copied whole."""
    if labels is not None and len(labels) != len(data):
        raise DimMismatchError(f"{len(data)} trials but {len(labels)} labels")
    return CovStack(
        trial_covariance(data, shrinkage),
        None if labels is None else np.asarray(labels),
        centred_scatter(data) if scatter else None,
    )


def _binary_csp(c1: Array, c2: Array, pairs: int) -> Array:
    """Filters for the two-class problem c1 vs c2.

    Solves c1 w = lambda (c1 + c2) w by whitening the composite covariance;
    keeps the rows of the ``pairs`` largest then ``pairs`` smallest
    eigenvalues. Rows satisfy w^T (c1 + c2) w = 1, so a row's eigenvalue
    is w^T c1 w. Each row is flipped so its largest-magnitude entry is
    positive.
    """
    composite = symmetrize(c1 + c2)
    w, u = np.linalg.eigh(composite)
    dim = composite.shape[0]
    if w[0] <= 1e-12 * np.trace(composite) / dim:
        raise DegenerateCovarianceError(
            f"composite covariance not SPD (min eigenvalue {w[0]:.6g})"
        )
    whitener = (u * (1.0 / np.sqrt(w))) @ u.T
    _, vecs = np.linalg.eigh(symmetrize(whitener @ c1 @ whitener))
    order = list(range(dim - 1, dim - 1 - pairs, -1)) + list(range(pairs))
    filters = (whitener @ vecs).T[order]
    for row in filters:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    return filters


def csp_fit(covs: Array, labels, pairs: int) -> CspModel:
    """Fit CSP filters from the trial covariances ``covs`` (n, C, C) and
    their ``labels`` (n,).

    Two classes give the classic binary filters; more classes use
    one-vs-rest (each class against the pooled others), concatenating the
    per-class filter blocks in sorted class order. A class's mean is taken
    over its trials in stack order, and the pool of the other classes
    concatenates their trials in sorted class order. Deterministic: fixed
    eigen-sorting and a positive-largest-entry sign convention.
    """
    labels = np.asarray(labels)
    classes = tuple(int(c) for c in np.unique(labels))
    if len(classes) < 2:
        raise ConfigError(f"CSP needs >= 2 classes, got {len(classes)}")
    if pairs < 1 or 2 * pairs > covs.shape[-1]:
        raise ConfigError(f"pairs must satisfy 1 <= pairs <= channels/2, got {pairs}")

    means = {c: np.mean(covs[labels == c], axis=0) for c in classes}
    if len(classes) == 2:
        return CspModel(_binary_csp(means[classes[0]], means[classes[1]], pairs), pairs, classes)

    blocks = []
    for label in classes:
        rest = np.concatenate([covs[labels == other] for other in classes if other != label])
        blocks.append(_binary_csp(means[label], np.mean(rest, axis=0), pairs))
    return CspModel(np.vstack(blocks), pairs, classes)


def csp_features(model: CspModel, scatter: Array) -> Array:
    """Normalized log-variance of the spatially filtered trials, one row each.

    ``scatter`` is the time-centred scatter (C, C) or (n, C, C) of the
    trials (:func:`centred_scatter`). Filter row w gives the trial variance
    w^T S w / (T - 1); the normalization cancels the T - 1.
    """
    s = np.asarray(scatter, dtype=np.float64)
    if s.shape[-1] != model.filters.shape[1]:
        raise DimMismatchError(
            f"trial has {s.shape[-1]} channels, filters expect "
            f"{model.filters.shape[1]}"
        )
    variances = np.sum((s @ model.filters.T) * model.filters.T, axis=-2)
    return np.log(variances / variances.sum(axis=-1, keepdims=True))


def ts_features(ref: Array, covs) -> Array:
    """Tangent-space vectors (n, C(C+1)/2) of ``covs`` at the shared reference."""
    return tangent_map(ref, as_stack(covs, "ts_features"))
