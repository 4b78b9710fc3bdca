"""Covariance estimation, CSP spatial filtering, and tangent-space features.

Trials enter the pipelines once: :func:`covariance_stack` turns them into a
:class:`CovStack` of ``(n, C, C)`` covariances, and every later step works
on such stacks. The feature functions return ``(n, d)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .dataio import Trial
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


@dataclass(frozen=True, eq=False)
class CovStack:
    """Trials as spatial covariances ``covs`` (n, C, C) with ``labels`` (n,) or None.

    ``scatter`` is the time-centred scatter (n, C, C) that CSP features read,
    or None. Aligning the trials as ``A X`` maps both stacks to ``A S Aᵀ``.
    ``logs`` are the matrix logs of ``covs`` once :meth:`with_logs` took them;
    selection, concatenation and relabeling keep them, a congruence drops them.
    """

    covs: Array
    labels: Array | None = None
    scatter: Array | None = None
    logs: Array | None = None

    def take(self, idx) -> CovStack:
        return CovStack(*(None if a is None else a[idx] for a in vars(self).values()))

    def transformed(self, a: Array, labels: Array | None = None) -> CovStack:
        """Congruence by ``a`` ((C, C) or one matrix per trial), optionally relabeled."""
        return CovStack(
            congruence(a, self.covs),
            self.labels if labels is None else labels,
            None if self.scatter is None else congruence(a, self.scatter),
        )

    def with_logs(self) -> CovStack:
        """This stack carrying the matrix logs of its covariances, taken at most once."""
        return self if self.logs is not None else replace(self, logs=spd_log(self.covs))


def concat_stacks(stacks: Sequence[CovStack]) -> CovStack:
    """The stacks one after another; a field missing from any of them is None."""
    fields = zip(*(vars(s).values() for s in stacks))
    return CovStack(*(
        None if any(a is None for a in f) else np.concatenate(f) for f in fields
    ))


@dataclass(frozen=True, eq=False)
class CspModel:
    """Spatial filter bank: ``filters`` rows applied to raw trials.

    Two classes give 2*pairs rows; more classes give 2*pairs rows per
    class (one-vs-rest), concatenated in class order.
    """

    filters: Array
    pairs: int
    classes: tuple


def trial_covariance(x: Array, shrinkage: float = 0.0) -> Array:
    """Spatial covariance X X^T of a trial (C, T) or of each trial in (n, C, T).

    ``shrinkage`` in [0, 1) blends in trace(C)/dim * I, which keeps the
    result SPD for rank-deficient trials (T < channels). The default of 0
    is the plain Gram matrix. A degenerate trial of a stack is named by
    its index in the error.
    """
    data = np.asarray(x, dtype=np.float64)
    if not 0.0 <= shrinkage < 1.0:
        raise ConfigError(f"shrinkage must be in [0, 1), got {shrinkage}")
    c = data @ np.swapaxes(data, -1, -2)
    if shrinkage > 0.0:
        dim = c.shape[-1]
        trace = np.trace(c, axis1=-2, axis2=-1)[..., None, None]
        c = (1.0 - shrinkage) * c + shrinkage * (trace / dim) * np.eye(dim)
    return spd_from_matrix(c, name="trial")


def centred_scatter(x: Array) -> Array:
    """Time-centred scatter Xc Xc^T of a trial (C, T) or of each trial in (n, C, T).

    Divided by T - 1 it is the ddof=1 sample covariance, whose filtered
    diagonal gives the variances :func:`csp_features` takes.
    """
    centred = x - x.mean(axis=-1, keepdims=True)
    return centred @ np.swapaxes(centred, -1, -2)


def covariance_stack(
    trials: Sequence[Trial], shrinkage: float = 0.0, scatter: bool = False
) -> CovStack:
    """Covariances of ``trials`` (and their centred scatter when ``scatter``)."""
    if not trials:
        raise EmptyInputError("no trials")
    data = np.stack([t.data for t in trials])
    labels = [t.label for t in trials]
    return CovStack(
        trial_covariance(data, shrinkage),
        None if None in labels else np.array(labels),
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


def csp_fit(
    covs_by_class: Mapping[int, Sequence[Array]],
    pairs: int = DEFAULT_CSP_PAIRS,
) -> CspModel:
    """Fit CSP filters from per-class trial covariances.

    Two classes give the classic binary filters; more classes use
    one-vs-rest (each class against the pooled others), concatenating the
    per-class filter blocks in sorted class order. Deterministic: fixed
    eigen-sorting and a positive-largest-entry sign convention.
    """
    classes = tuple(sorted(covs_by_class))
    if len(classes) < 2:
        raise ConfigError(f"CSP needs >= 2 classes, got {len(classes)}")
    for label in classes:
        if len(covs_by_class[label]) == 0:
            raise ConfigError(f"class {label!r} has no covariances")
    dim = np.asarray(covs_by_class[classes[0]][0]).shape[0]
    if pairs < 1 or 2 * pairs > dim:
        raise ConfigError(f"pairs must satisfy 1 <= pairs <= channels/2, got {pairs}")

    means = {
        label: np.mean(np.asarray(covs_by_class[label]), axis=0) for label in classes
    }
    if len(classes) == 2:
        return CspModel(_binary_csp(means[classes[0]], means[classes[1]], pairs), pairs, classes)

    blocks = []
    for label in classes:
        rest = np.concatenate(
            [np.asarray(covs_by_class[other]) for other in classes if other != label]
        )
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
