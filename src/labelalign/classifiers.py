"""Classifiers for the pipelines: LDA, linear SVM, and minimum distance to mean."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimMismatchError, SingularCovarianceError
from .rng import CounterRng, derive_key
from .spd import Array, as_stack, log_euclidean_mean, riemannian_distance

LDA_GAMMA = 1e-3
SVM_LAMBDA = 1e-3
SVM_EPOCHS = 200


def _as_matrix(features) -> Array:
    """Feature rows (n, d); a single feature vector becomes one row."""
    return np.atleast_2d(np.asarray(features, dtype=np.float64))


def _split_by_class(x: Array, labels) -> tuple[tuple, dict]:
    labels = np.asarray(labels)
    if labels.shape[0] != x.shape[0]:
        raise DimMismatchError(
            f"{x.shape[0]} feature rows but {labels.shape[0]} labels"
        )
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise ConfigError(f"need >= 2 classes, got {classes}")
    return classes, {c: x[labels == c] for c in classes}


@dataclass(frozen=True, eq=False)
class LdaModel:
    classes: tuple
    means: Array  # (n_classes, d)
    shared_cov_inv: Array
    priors: Array


def lda_fit(features, labels, gamma: float = LDA_GAMMA) -> LdaModel:
    """Gaussian LDA with a pooled within-class covariance.

    The pooled covariance is regularized by gamma * trace/d * I so the
    high-dimensional tangent-space features stay invertible.
    """
    x = _as_matrix(features)
    classes, by_class = _split_by_class(x, labels)
    n, d = x.shape
    means = np.vstack([by_class[c].mean(axis=0) for c in classes])
    scatter = np.zeros((d, d))
    for i, c in enumerate(classes):
        centered = by_class[c] - means[i]
        scatter += centered.T @ centered
    pooled = scatter / max(n - len(classes), 1)
    pooled += gamma * (np.trace(pooled) / d) * np.eye(d)
    w, u = np.linalg.eigh(0.5 * (pooled + pooled.T))
    if w[0] <= 0.0:
        raise SingularCovarianceError(
            "pooled covariance singular after regularization (constant features)"
        )
    cov_inv = (u * (1.0 / w)) @ u.T
    priors = np.array([by_class[c].shape[0] / n for c in classes])
    return LdaModel(classes, means, cov_inv, priors)


def _lda_scores(model: LdaModel, x: Array) -> Array:
    proj = model.shared_cov_inv @ model.means.T  # (d, n_classes)
    return (
        x @ proj
        - 0.5 * np.sum(model.means.T * proj, axis=0)
        + np.log(model.priors)
    )


def lda_predict(model: LdaModel, feature) -> int:
    return model.classes[int(np.argmax(_lda_scores(model, _as_matrix(feature))[0]))]


def lda_predict_many(model: LdaModel, features) -> list:
    x = _as_matrix(features)
    return [model.classes[int(i)] for i in np.argmax(_lda_scores(model, x), axis=1)]


@dataclass(frozen=True, eq=False)
class LinearSvmModel:
    classes: tuple
    weights: dict  # (label_a, label_b) -> (w, bias), labels in class order
    lam: float
    epochs: int
    seed: int


def _train_pair(x: Array, y: Array, lam: float, epochs: int, key: int) -> tuple[Array, float]:
    """Pegasos-style subgradient descent on lambda/2 ||w||^2 + mean hinge.

    Step size 1/(lam * t); the bias is unregularized. The sample order per
    epoch is a seeded permutation, so training is bitwise reproducible.
    """
    n, d = x.shape
    if np.allclose(x, x[0], rtol=0.0, atol=0.0):
        # Degenerate: identical feature rows carry no signal; keep the zero
        # model so prediction falls back to the first class in order.
        return np.zeros(d), 0.0
    w = np.zeros(d)
    bias = 0.0
    t = 0
    for e in range(epochs):
        order = CounterRng(derive_key(key, "epoch", e)).permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            w *= 1.0 - eta * lam
            if y[i] * (w @ x[i] + bias) < 1.0:
                w += eta * y[i] * x[i]
                bias += eta * y[i]
    return w, bias


def svm_fit(
    features,
    labels,
    lam: float = SVM_LAMBDA,
    epochs: int = SVM_EPOCHS,
    seed: int = 0,
) -> LinearSvmModel:
    """One-vs-one linear SVMs trained by seeded stochastic subgradient descent."""
    x = _as_matrix(features)
    classes, by_class = _split_by_class(x, labels)
    weights = {}
    for ai in range(len(classes)):
        for bi in range(ai + 1, len(classes)):
            a, b = classes[ai], classes[bi]
            xa, xb = by_class[a], by_class[b]
            data = np.vstack([xa, xb])
            y = np.concatenate([-np.ones(len(xa)), np.ones(len(xb))])
            key = derive_key(seed, "pair", ai, bi)
            weights[(a, b)] = _train_pair(data, y, lam, epochs, key)
    return LinearSvmModel(classes, weights, lam, epochs, seed)


def svm_predict(model: LinearSvmModel, feature) -> int:
    x = _as_matrix(feature)[0]
    votes = {c: 0 for c in model.classes}
    for (a, b), (w, bias) in model.weights.items():
        votes[b if w @ x + bias > 0.0 else a] += 1
    # Majority vote; ties go to the earliest class in sorted order.
    return max(model.classes, key=lambda c: (votes[c], -model.classes.index(c)))


def svm_predict_many(model: LinearSvmModel, features) -> list:
    return [svm_predict(model, row) for row in _as_matrix(features)]


@dataclass(frozen=True, eq=False)
class MdmModel:
    classes: tuple
    means: dict  # label -> SPD mean


def mdm_fit(covs, labels) -> MdmModel:
    """Per-class Log-Euclidean means of the training covariances (n, C, C)."""
    covs = as_stack(covs, "mdm_fit")
    labels = np.asarray(labels)
    if labels.shape != (len(covs),):
        raise DimMismatchError(f"{len(covs)} covariances but {labels.shape[0]} labels")
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise ConfigError(f"need >= 2 classes, got {classes}")
    means = {c: log_euclidean_mean(covs[labels == c]) for c in classes}
    return MdmModel(classes, means)


def mdm_predict(model: MdmModel, covs: Array):
    """Nearest class mean under the geodesic distance; ties by class order.

    One covariance (C, C) gives one label, a stack (n, C, C) a list of them.
    """
    covs = np.asarray(covs, dtype=np.float64)
    means = np.stack([model.means[c] for c in model.classes])
    nearest = np.argmin(riemannian_distance(covs[..., None, :, :], means), axis=-1)
    if nearest.ndim == 0:
        return model.classes[int(nearest)]
    return [model.classes[int(i)] for i in nearest]
