import numpy as np

from labelalign.errors import DimMismatchError
from labelalign.rng import CounterRng, derive_key
from labelalign.spd import spd_exp, spd_inv_sqrt, spd_sqrt, symmetrize
from labelalign.synth import synthetic_parameters, synthetic_subjects


def random_spd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Well-conditioned random SPD matrix via exp of a scaled symmetric matrix."""
    s = symmetrize(rng.standard_normal((dim, dim))) / np.sqrt(dim)
    return spd_exp(scale * s)


def random_invertible(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random square matrix, almost surely invertible."""
    while True:
        w = rng.standard_normal((dim, dim))
        if np.linalg.cond(w) < 1e4:
            return w


# Per-matrix reference formulas: one eigendecomposition per matrix, the way
# the batched kernels in labelalign.spd were first written. Tests hold the
# batched kernels to these.


def loop_matrix_function(p, fn):
    w, u = np.linalg.eigh(symmetrize(p))
    return symmetrize((u * fn(w)) @ u.T)


def loop_tangent_vector(ref, p):
    half = loop_matrix_function(ref, np.sqrt)
    inv_half = loop_matrix_function(ref, lambda w: 1.0 / np.sqrt(w))
    s = symmetrize(half @ loop_matrix_function(inv_half @ p @ inv_half, np.log) @ half)
    iu = np.triu_indices(p.shape[0])
    return np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0)) * s[iu]


def loop_log_euclidean_mean(ps):
    logs = np.mean([loop_matrix_function(p, np.log) for p in ps], axis=0)
    return loop_matrix_function(logs, np.exp)


def loop_distance(p1, p2):
    isq = loop_matrix_function(p1, lambda w: 1.0 / np.sqrt(w))
    w = np.linalg.eigvalsh(symmetrize(isq @ p2 @ isq))
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def loop_lda_scores(x, labels, x_test, gamma):
    """LDA decision scores from the eigendecomposed inverse of the regularized
    pooled within-class covariance."""
    labels = np.asarray(labels)
    classes = sorted(set(labels.tolist()))
    means = np.vstack([x[labels == c].mean(axis=0) for c in classes])
    centered = x - means[np.searchsorted(classes, labels)]
    d = x.shape[1]
    pooled = centered.T @ centered / max(len(x) - len(classes), 1)
    pooled += gamma * (np.trace(pooled) / d) * np.eye(d)
    w, u = np.linalg.eigh(symmetrize(pooled))
    proj = (u * (1.0 / w)) @ u.T @ means.T
    priors = np.array([np.mean(labels == c) for c in classes])
    return x_test @ proj - 0.5 * np.sum(means.T * proj, axis=0) + np.log(priors)


def loop_synthetic_subjects(cfg):
    """The generator one trial at a time: one key, one stream and one noise
    root per trial, the way :func:`labelalign.synth.synthetic_subjects` was
    first written. The batched generator is held to it bit for bit."""
    c = cfg.channels
    prototypes, shifts = synthetic_parameters(cfg)
    proto_sqrts = [spd_sqrt(p) for p in prototypes]
    for s, shift in enumerate(shifts):
        trials, labels = [], []
        for m in range(cfg.classes):
            mix = shift.T @ proto_sqrts[m]
            for i in range(cfg.trials_per_class):
                rng = CounterRng(derive_key(cfg.seed, "noise", s, m, i))
                factor = mix
                if cfg.noise_df is not None:
                    g = rng.normal_matrix(c, cfg.noise_df)
                    factor = mix @ spd_sqrt(g @ g.T / cfg.noise_df)
                z = rng.normal_matrix(c, cfg.samples)
                trials.append(factor @ z)
                labels.append(m)
        yield np.stack(trials), np.array(labels)


def first_subject(cfg):
    """Subject 0 of the generator of ``cfg``, as ``(data, labels)``."""
    return next(synthetic_subjects(cfg, *synthetic_parameters(cfg)))


# Inverses and costs that only tests need: the harness never leaves the
# tangent space and reads no clustering cost.


def unflatten_sym(flat):
    """Inverse of :func:`labelalign.spd.flatten_sym`."""
    flat = np.asarray(flat, dtype=np.float64)
    d = flat.shape[-1]
    c = int((np.sqrt(1 + 8 * d) - 1) / 2)
    if c * (c + 1) // 2 != d:
        raise DimMismatchError(f"length {d} is not a triangle number")
    iu = np.triu_indices(c)
    s = np.zeros(flat.shape[:-1] + (c, c))
    s[..., iu[0], iu[1]] = flat / np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    s[..., iu[1], iu[0]] = s[..., iu[0], iu[1]]
    return s


def tangent_unmap(ref, flat):
    """Exponential map inverting :func:`labelalign.spd.tangent_map`."""
    s = unflatten_sym(flat)
    if s.shape[-1] != np.shape(ref)[-1]:
        raise DimMismatchError(f"flat of dim {s.shape[-1]} does not match ref {np.shape(ref)}")
    half, inv_half = spd_sqrt(ref), spd_inv_sqrt(ref)
    return symmetrize(half @ spd_exp(inv_half @ s @ inv_half) @ half)


def total_cost(d, medoids):
    """Sum over points of the distance to the nearest medoid."""
    return float(d[np.asarray(medoids)].min(axis=0).sum())


def relative_error(got, expected):
    return float(np.max(np.abs(np.asarray(got) - expected)) / np.max(np.abs(expected)))
