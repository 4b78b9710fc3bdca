"""Classifiers for the pipelines: LDA, linear SVM, and minimum distance to mean.

LDA and the SVM take feature rows (n, d); MDM takes covariance stacks
(n, C, C), as logs to fit and as covariances to predict. The one-vs-one linear
SVM uses no random numbers, and its weights do not depend on row order
(``TestLinearSvm.test_row_order_does_not_change_weights``)."""

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
SVM_ARMIJO = 1e-4  # the share of the predicted decrease that a step must achieve


def _as_matrix(features) -> Array:
    """Feature rows (n, d) as float64; any other shape is refused."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimMismatchError(f"expected feature rows (n, d), got shape {x.shape}")
    return x


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
    """Gaussian LDA with a pooled within-class covariance, regularized by
    LDA_GAMMA * trace/d * I so that high-dimensional tangent-space features
    stay invertible; a zero trace raises."""
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


def _train_pair(x: Array, neg: Array, pos: Array) -> Array:
    """[w, bias] minimising SVM_LAMBDA/2 ||w||^2 + mean(max(0, 1 - y (w . x + bias))^2)
    over the rows of ``x`` in the masks ``neg`` (y = -1) and ``pos`` (y = +1);
    the bias is unregularized.

    Finite Newton (Mangasarian, Optim. Methods Softw. 2002) on the generalized
    Hessian of the current support set (Chapelle, Neural Computation 2007):
    the full Newton step, halved until the objective falls by at least
    ``SVM_ARMIJO`` times the decrease that the gradient predicts for it, until
    the gradient norm falls to ``SVM_GRAD_TOL`` times its value at the zero
    model. The pair's rows are copied into ``yx``, beside a column of ones for
    the bias and with the y = -1 rows negated, and each step gathers the
    support rows ``yx[active]`` again, up to a second copy of ``yx``.
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
        if not np.isfinite(step).all():  # a NaN iterate never converges: stop here
            raise NotConvergedError(f"linear SVM: Newton step {it} is not finite; "
                                    f"the features are too badly scaled")
        decrease, length = SVM_ARMIJO * (grad @ step), 1.0
        while True:
            trial = z + length * step
            trial_slack = 1.0 - yx @ trial
            trial_loss = objective(trial, trial_slack)
            if trial_loss <= loss + length * decrease:
                break
            length *= 0.5
        z, slack, loss = trial, trial_slack, trial_loss


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
    covariances, from their matrix ``logs`` (n, C, C), one class at a time
    (``TestTrainBuffer.test_a_two_class_fit_copies_one_class_at_a_time``)."""
    logs = as_stack(logs, "mdm_fit")
    labels, classes = _classes(logs, labels)
    mean_logs = np.stack([np.mean(logs[labels == l], axis=0) for l in classes])
    return MdmModel(classes, spd_exp(mean_logs))


def mdm_predict(model: MdmModel, covs: Array) -> list:
    """The label of each covariance of the stack ``covs`` (n, C, C): its
    nearest class mean under the geodesic distance, ties by class order. Only
    the class means are factored (``TestMdm.test_prediction_factors_only_the_class_means``)."""
    covs = as_stack(covs, "mdm_predict")
    nearest = np.argmin(riemannian_distance(model.means, covs[:, None]), axis=-1)
    return [model.classes[int(i)] for i in nearest]
