"""Covariance estimation, CSP spatial filtering, and tangent-space features.

A subject's trials enter the pipelines once: :func:`covariance_stack` turns
its trials and its labels into a :class:`CovStack` of ``(n, C, C)``
covariances, and every later step works on such stacks. The feature
functions return ``(n, d)`` arrays, and a fitted CSP model is its filter
rows, one ``(m, C)`` array.

Covariance estimation copies no subject. :func:`trial_covariance` and
:func:`covariance_stack` take the trials in any form that
:func:`labelalign.dataio.as_blocks` takes, an ``(n, C, T)`` array (in views of
its chunks) or a trial file's :class:`labelalign.dataio.TrialBlocks` (blocks
read into one reused buffer), and both go through one per-block kernel. It
writes each block's Gram matrices into the preallocated ``(n, C, C)`` result,
and :func:`covariance_stack` writes the centred scatter of the same block
beside them, so that a file is read once for both. Their temporary arrays
then hold one block (the scatter's centred copy of it), however many trials
a subject has, and a subject read from a file is never held whole. Each
matrix is the matmul of its own trial, so the values are those of a
whole-stack product, bit for bit, whichever way the trials came.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .dataio import as_blocks
from .errors import (
    ConfigError,
    DegenerateCovarianceError,
    DimMismatchError,
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

    def write(self, start: int, pieces: Iterable[CovStack]) -> int:
        """Write ``pieces`` one after another into this stack's rows from
        ``start``, each logged first when this stack holds logs (a piece that
        carries its logs is copied); returns the row after the last piece.
        ``pieces`` may be an iterator, so that one piece at a time exists."""
        for piece in pieces:
            if self.logs is not None:
                piece = piece.with_logs()
            stop = start + len(piece.covs)
            for out, values in zip(vars(self).values(), vars(piece).values()):
                if out is not None:
                    out[start:stop] = values
            start = stop
        return start


def _gram(block: Array, out: Array, centred: bool) -> None:
    """Write the Gram matrix ``X Xᵀ`` of each trial of ``block`` (m, C, T) (of
    its time-centred rows when ``centred``) into ``out`` (m, C, C): the one
    kernel of every covariance estimate, for trial arrays and files alike."""
    if centred:
        block = block - block.mean(axis=-1, keepdims=True)
    np.matmul(block, block.swapaxes(-1, -2), out=out)


def _with_scatter(blocks: Iterable, scatter: Array) -> Iterator:
    """``blocks`` as they come, each block's centred scatter written into
    ``scatter`` as it passes."""
    for rows, block in blocks:
        _gram(block, scatter[rows], centred=True)
        yield rows, block


def trial_covariance(x, shrinkage: float = 0.0) -> Array:
    """Spatial covariances X X^T (n, C, C) of the trials ``x``, in a form of
    :func:`labelalign.dataio.as_blocks`.

    ``shrinkage`` in [0, 1) blends in trace(C)/dim * I, which keeps the
    result SPD for rank-deficient trials (T < channels). The default of 0
    is the plain Gram matrix. Each block of trials is written into the
    preallocated stack as it comes, so no copy of the trials is made whole;
    the covariances are validated once, and a degenerate trial is named by
    its index in the stack.
    """
    if not 0.0 <= shrinkage < 1.0:
        raise ConfigError(f"shrinkage must be in [0, 1), got {shrinkage}")
    trials = as_blocks(x)
    n, dim, _ = trials.shape
    c = np.empty((n, dim, dim))
    for rows, block in trials.blocks:
        _gram(block, c[rows], centred=False)
    if shrinkage > 0.0:
        trace = np.trace(c, axis1=-2, axis2=-1)[..., None, None]
        c = (1.0 - shrinkage) * c + shrinkage * (trace / dim) * np.eye(dim)
    return spd_from_matrix(c, name="trial")


def covariance_stack(data, labels, shrinkage: float = 0.0, scatter: bool = False) -> CovStack:
    """Covariances of the trials ``data`` (as :func:`trial_covariance` takes
    them), labeled by ``labels`` (n,) or None, and their time-centred scatter
    Xc Xc^T when ``scatter``, which :func:`csp_features` reads. The scatter is
    taken from each block as :func:`trial_covariance` passes it, so the trials
    are gone through once."""
    trials = as_blocks(data)
    if labels is not None and len(labels) != len(trials):
        raise DimMismatchError(f"{len(trials)} trials but {len(labels)} labels")
    centred = None
    if scatter:
        n, c, _ = trials.shape
        centred = np.empty((n, c, c))
        trials = replace(trials, blocks=_with_scatter(trials.blocks, centred))
    return CovStack(
        trial_covariance(trials, shrinkage),
        None if labels is None else np.asarray(labels),
        centred,
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


def csp_fit(covs: Array, labels, pairs: int) -> Array:
    """The CSP filter rows (m, C) of the trial covariances ``covs`` (n, C, C)
    and their ``labels`` (n,).

    Two classes give the classic binary filters, 2 * pairs rows; more classes
    use one-vs-rest (each class against the pooled others), concatenating
    each class's 2 * pairs rows in sorted class order. A class's mean is taken
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
        return _binary_csp(means[classes[0]], means[classes[1]], pairs)

    blocks = []
    for label in classes:
        rest = np.concatenate([covs[labels == other] for other in classes if other != label])
        blocks.append(_binary_csp(means[label], np.mean(rest, axis=0), pairs))
    return np.vstack(blocks)


def csp_features(filters: Array, scatter: Array) -> Array:
    """Normalized log-variances (n, m) of the trials filtered by the rows of
    ``filters`` (m, C) (:func:`csp_fit`).

    ``scatter`` is the trials' time-centred scatter (n, C, C), the
    ``scatter`` of their :func:`covariance_stack`. Divided by T - 1 it is the
    ddof=1 sample covariance, so a filter row w gives the trial variance
    w^T S w / (T - 1); the normalization cancels the T - 1.
    """
    s = as_stack(scatter, "csp_features")
    if s.shape[-1] != filters.shape[1]:
        raise DimMismatchError(
            f"trial has {s.shape[-1]} channels, filters expect {filters.shape[1]}"
        )
    variances = np.sum((s @ filters.T) * filters.T, axis=-2)
    return np.log(variances / variances.sum(axis=-1, keepdims=True))


def ts_features(isq: Array, covs) -> Array:
    """Tangent-space vectors (n, C(C+1)/2) of ``covs`` at the shared reference,
    whose inverse square root is ``isq``: the normalised
    ``upper(log(ref^{-1/2} C ref^{-1/2}))`` of Barachant et al.
    (:func:`labelalign.spd.tangent_map`), which carry no units of the data."""
    return tangent_map(isq, covs)
