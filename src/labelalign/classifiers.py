"""Classifiers for the pipelines: LDA, linear SVM, and minimum distance to mean.

The one-vs-one linear SVM trains each pair by primal Newton, taking the full
step when it lowers the objective and an exact line search otherwise, so it
uses no random numbers and does not depend on row order; it predicts by one
matrix product and a majority vote. MDM's class means are one (m, C, C) stack."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimMismatchError, NotConvergedError, SingularCovarianceError
from .spd import Array, as_stack, riemannian_distance, spd_exp

LDA_GAMMA = 1e-3
SVM_LAMBDA = 1e-3
SVM_GRAD_TOL = 1e-12  # relative to the gradient norm at the zero model
SVM_MAX_ITER = 500


def _as_matrix(features) -> Array:
    """Feature rows (n, d); a single feature vector becomes one row."""
    return np.atleast_2d(np.asarray(features, dtype=np.float64))


def _classes(x: Array, labels) -> tuple[Array, tuple]:
    """The labels of the training items of ``x`` (feature rows or
    covariances) as an array, and their sorted classes."""
    labels = np.asarray(labels)
    if labels.shape[0] != x.shape[0]:
        raise DimMismatchError(f"{x.shape[0]} training items but {labels.shape[0]} labels")
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise ConfigError(f"need >= 2 classes, got {classes}")
    return labels, classes


@dataclass(frozen=True, eq=False)
class LdaModel:
    classes: tuple
    means: Array  # (n_classes, d)
    coef: Array  # (d, n_classes): the pooled covariance solved against means.T
    priors: Array


def lda_fit(features, labels) -> LdaModel:
    """Gaussian LDA with a pooled within-class covariance.

    The pooled covariance is regularized by LDA_GAMMA * trace/d * I so the
    high-dimensional tangent-space features stay invertible (a zero trace
    raises); the projections solve it against the means, with no inverse.
    """
    x = _as_matrix(features)
    labels, classes = _classes(x, labels)
    n, d = x.shape
    means = np.empty((len(classes), d))
    counts = np.empty(len(classes))
    pooled = np.zeros((d, d))
    for i, c in enumerate(classes):
        centered = x[labels == c]  # one class's rows at a time, centred in place
        means[i] = centered.mean(axis=0)
        centered -= means[i]
        pooled += centered.T @ centered
        counts[i] = len(centered)
    pooled /= max(n - len(classes), 1)
    scale = np.trace(pooled) / d
    if not scale > 0.0:
        raise SingularCovarianceError(
            "pooled covariance singular after regularization (constant features)"
        )
    pooled[np.diag_indices(d)] += LDA_GAMMA * scale
    coef = np.linalg.solve(pooled, means.T)
    return LdaModel(classes, means, coef, counts / n)


def _lda_scores(model: LdaModel, x: Array) -> Array:
    return (
        x @ model.coef
        - 0.5 * np.sum(model.means.T * model.coef, axis=0)
        + np.log(model.priors)
    )


def lda_predict_many(model: LdaModel, features) -> list:
    x = _as_matrix(features)
    return [model.classes[int(i)] for i in np.argmax(_lda_scores(model, x), axis=1)]


@dataclass(frozen=True, eq=False)
class LinearSvmModel:
    classes: tuple
    pairs: Array  # (p, 2) class indices (a, b) with a < b; a positive score votes b
    coef: Array  # (d, p)
    intercept: Array  # (p,)


def _line_search(slack: Array, delta: Array, w: Array, step_w: Array) -> float:
    """Exact minimiser t > 0 along ``step``, given slack = 1 - y (x . z) and
    delta = y (x . step). The derivative a + b t is linear between the
    breakpoints slack / delta, where a sample leaves (delta > 0) or joins
    (delta < 0) the support set, and the root is in the first interval whose
    derivative turns >= 0. Each interval's (a, b) sums the terms of the samples
    active in it: those that never cross, the leavers not yet gone (a suffix
    sum over the sorted breakpoints) and the joiners already in (a prefix
    sum). So no sum takes back what it added, and none cancels under rounding."""
    scale = 2.0 / slack.shape[0]
    active = (slack > 0.0) | ((slack == 0.0) & (delta < 0.0))
    crosses = slack * delta > 0.0
    stays = active & ~crosses
    idx = np.flatnonzero(crosses)
    idx = idx[np.argsort(slack[idx] / delta[idx], kind="stable")]
    t, d, s = slack[idx] / delta[idx], delta[idx], slack[idx]
    leaves = d > 0.0

    def in_interval(v: Array) -> Array:
        """Per interval, the sum of ``v`` over the crossing samples active in it."""
        gone = np.cumsum(np.where(leaves, v, 0.0)[::-1])[::-1]
        joined = np.cumsum(np.where(leaves, 0.0, v))
        return np.concatenate((gone, [0.0])) + np.concatenate(([0.0], joined))

    a = SVM_LAMBDA * (w @ step_w) - scale * (delta[stays] @ slack[stays] + in_interval(d * s))
    b = SVM_LAMBDA * (step_w @ step_w) + scale * (delta[stays] @ delta[stays] + in_interval(d * d))
    hits = np.flatnonzero(a[:-1] + b[:-1] * t >= 0.0)
    j = hits[0] if hits.size else t.size
    return -a[j] / b[j]


def _train_pair(x: Array, neg: Array, pos: Array) -> Array:
    """[w, bias] minimising SVM_LAMBDA/2 ||w||^2 + mean(max(0, 1 - y (w . x + bias))^2)
    over the rows of ``x`` in the masks ``neg`` (y = -1) and ``pos`` (y = +1);
    the bias is unregularized.

    Finite Newton (Mangasarian, Optim. Methods Softw. 2002) on the generalized
    Hessian of the current support set (Chapelle, Neural Computation 2007):
    the full step is taken when the objective there is strictly lower, and
    otherwise the exact line search (Keerthi & DeCoste, JMLR 2005) sets its
    length. Iteration stops once the gradient norm falls to ``SVM_GRAD_TOL``
    times its value at the zero model. A line-searched step whose length is
    not finite raises :class:`NotConvergedError` at once. The pair's rows are
    copied once, beside a column of ones for the bias, with the y = -1 rows
    negated, so ``yx @ z`` is y (x . z) and every slack 1 - yx @ z is
    computed from its own iterate.
    """
    na, nb = np.count_nonzero(neg), np.count_nonzero(pos)
    n, d = na + nb, x.shape[1]
    yx = np.ones((n, d + 1))
    yx[:na, :d] = x[neg]
    yx[na:, :d] = x[pos]
    if (yx[:, :d] == yx[0, :d]).all():
        return np.zeros(d + 1)  # no signal: the zero model votes for the first class
    yx[:na] *= -1.0
    reg = np.append(np.full(d, SVM_LAMBDA), 0.0)
    diagonal = np.diag_indices(d + 1)
    scale = 2.0 / n

    def objective(z: Array, slack: Array) -> float:
        hinge = np.maximum(slack, 0.0)
        return SVM_LAMBDA / 2.0 * (z[:-1] @ z[:-1]) + (hinge @ hinge) / n

    tol = SVM_GRAD_TOL * np.linalg.norm(scale * (np.ones(n) @ yx))  # the gradient at z = 0
    z = np.zeros(d + 1)
    slack = 1.0 - yx @ z
    loss = objective(z, slack)
    for it in range(SVM_MAX_ITER + 1):
        active = slack > 0.0
        xs = yx[active]
        grad = reg * z - scale * (slack[active] @ xs)
        norm = np.linalg.norm(grad)
        if norm <= tol:
            return z
        if it == SVM_MAX_ITER:
            raise NotConvergedError(f"linear SVM: gradient norm {norm:.3g} after {it} "
                                    f"Newton steps (tolerance {tol:.3g})")
        hess = scale * (xs.T @ xs)
        hess[diagonal] += reg
        if not active.any():
            hess[-1, -1] = 1.0  # the bias gradient is 0 here, so is its step
        step = -np.linalg.solve(hess, grad)
        full = z + step
        full_slack = 1.0 - yx @ full
        full_loss = objective(full, full_slack)
        if full_loss < loss:  # a NaN objective falls through to the line search
            z, slack, loss = full, full_slack, full_loss
            continue
        length = _line_search(slack, yx @ step, z[:-1], step[:-1])
        if not np.isfinite(length):  # a NaN iterate never converges: stop here
            raise NotConvergedError(f"linear SVM: Newton step {it} has a non-finite "
                                    f"length ({length}); the features are too badly scaled")
        z = z + length * step
        slack = 1.0 - yx @ z
        loss = objective(z, slack)


def svm_fit(features, labels) -> LinearSvmModel:
    """One-vs-one linear SVMs on the L2-regularized squared hinge."""
    x = _as_matrix(features)
    labels, classes = _classes(x, labels)
    pairs = np.array(list(itertools.combinations(range(len(classes)), 2)))
    fits = [_train_pair(x, labels == classes[a], labels == classes[b]) for a, b in pairs]
    z = np.column_stack(fits)
    return LinearSvmModel(classes, pairs, z[:-1], z[-1])


def svm_predict_many(model: LinearSvmModel, features) -> list:
    """Majority vote of the pairwise SVMs; ties go to the earliest class."""
    scores = _as_matrix(features) @ model.coef + model.intercept  # (n, p)
    winners = np.where(scores > 0.0, model.pairs[:, 1], model.pairs[:, 0])
    votes = (winners[:, :, None] == np.arange(len(model.classes))).sum(axis=1)
    return [model.classes[int(i)] for i in np.argmax(votes, axis=1)]


@dataclass(frozen=True, eq=False)
class MdmModel:
    classes: tuple
    means: Array  # (n_classes, C, C): the SPD class means, in class order


def mdm_fit(logs, labels) -> MdmModel:
    """Per-class Log-Euclidean means ``exp(mean(log Cᵢ))`` of the training
    covariances, from their matrix ``logs`` (n, C, C): one exp of the stacked
    class means of the logs, and no eigendecomposition of the covariances."""
    logs = as_stack(logs, "mdm_fit")
    labels, classes = _classes(logs, labels)
    mean_logs = np.stack([np.mean(logs[labels == l], axis=0) for l in classes])
    return MdmModel(classes, spd_exp(mean_logs))


def mdm_predict(model: MdmModel, covs: Array):
    """Nearest class mean under the geodesic distance; ties by class order.

    The distances whiten by the class means, so only they are factored.
    One covariance (C, C) gives one label, a stack (n, C, C) a list of them.
    """
    covs = np.asarray(covs, dtype=np.float64)
    nearest = np.argmin(riemannian_distance(model.means, covs[..., None, :, :]), axis=-1)
    if nearest.ndim == 0:
        return model.classes[int(nearest)]
    return [model.classes[int(i)] for i in nearest]
