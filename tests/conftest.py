import os
import tracemalloc
from pathlib import Path

import numpy as np

from labelalign import classifiers, experiment
from labelalign.alignment import align
from labelalign.dataio import read_trials
from labelalign.errors import DimMismatchError, NotConvergedError, located
from labelalign.rng import CounterRng, derive_key
from labelalign.spd import spd_exp, spd_sqrt, symmetrize
from labelalign.stats import _FPMIN, _MAX_ITER, BETA_TOL
from labelalign.synth import synthetic_parameters, synthetic_subjects


def random_spd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Well-conditioned random SPD matrix via exp of a scaled symmetric matrix."""
    s = symmetrize(rng.standard_normal((dim, dim))) / np.sqrt(dim)
    return spd_exp(scale * s)


def traced_peak(fn) -> int:
    """The tracemalloc peak of ``fn()``, run once untraced first so that the
    modules it imports lazily are not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_env(**extra) -> dict:
    """This process's environment with ``extra``, and ``src/`` first on the
    ``PYTHONPATH``, for a child Python process that imports ``labelalign``."""
    src = str(Path(experiment.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def random_invertible(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random square matrix, almost surely invertible."""
    while True:
        w = rng.standard_normal((dim, dim))
        if np.linalg.cond(w) < 1e4:
            return w


def align_sources(strategy, sources, target, means=None, logs=False):
    """:func:`align` into a harness training buffer of the sources' rows (with
    their logs when ``logs``): each source's rows of the buffer, and the
    aligned target stack."""
    buffer = experiment._train_buffer(sources, 0, logs)
    aligned_target = align(strategy, sources, target, means, buffer)
    stops = np.cumsum([len(source.stack.covs) for source in sources])
    return [buffer.take(slice(a, b)) for a, b in zip([0, *stops], stops)], aligned_target


def read_subject(manifest, entry):
    """The trials ``(n, C, T)`` and labels ``(n,)`` of the manifest subject
    ``entry``, its trial file read whole (``read_trials``) and its labels checked
    as ``iter_subject_blocks`` checks them; a ``DataError`` of its files is
    prefixed ``subject {name}:``, as there."""
    with located(f"subject {entry.name}"):
        data = read_trials(entry.trials_path)
        return data, manifest._labels(entry, len(data))


# Per-matrix reference formulas: one eigendecomposition per matrix, the way
# the batched kernels in labelalign.spd were first written. Tests hold the
# batched kernels to these.


def loop_matrix_function(p, fn):
    w, u = np.linalg.eigh(symmetrize(p))
    return symmetrize((u * fn(w)) @ u.T)


def loop_tangent_vector(ref, p):
    """upper(log(ref^{-1/2} p ref^{-1/2})) with sqrt(2)-weighted off-diagonals."""
    inv_half = loop_matrix_function(ref, lambda w: 1.0 / np.sqrt(w))
    s = loop_matrix_function(inv_half @ p @ inv_half, np.log)
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


def exact_line_search(slack, delta, w, step_w) -> float:
    """The step length of :func:`exact_newton_pair`: the exact minimiser t > 0
    along ``step``, given slack = 1 - y (x . z) and delta = y (x . step), of
    the piecewise quadratic objective. Its derivative a + b t is linear between the
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

    def in_interval(v):
        """Per interval, the sum of ``v`` over the crossing samples active in it."""
        gone = np.cumsum(np.where(leaves, v, 0.0)[::-1])[::-1]
        joined = np.cumsum(np.where(leaves, 0.0, v))
        return np.concatenate((gone, [0.0])) + np.concatenate(([0.0], joined))

    lam = classifiers.SVM_LAMBDA
    a = lam * (w @ step_w) - scale * (delta[stays] @ slack[stays] + in_interval(d * s))
    b = lam * (step_w @ step_w) + scale * (delta[stays] @ delta[stays] + in_interval(d * d))
    hits = np.flatnonzero(a[:-1] + b[:-1] * t >= 0.0)
    j = hits[0] if hits.size else t.size
    return -a[j] / b[j]


def exact_newton_pair(x, neg, pos):
    """[w, bias] of one SVM pair by primal Newton with an exact line search at
    every step (:func:`exact_line_search`), the way
    :func:`labelalign.classifiers._train_pair` was first written: labels ``y``
    and the design ``[x, 1]`` kept apart, and the slack recomputed from each
    iterate. The fit's own step rule halves the full step instead; both reach
    the one minimiser of the strictly convex objective."""
    na, nb = np.count_nonzero(neg), np.count_nonzero(pos)
    n, d = na + nb, x.shape[1]
    x1 = np.ones((n, d + 1))
    x1[:na, :d] = x[neg]
    x1[na:, :d] = x[pos]
    y = np.concatenate([-np.ones(na), np.ones(nb)])
    if (x1[:, :d] == x1[0, :d]).all():
        return np.zeros(d + 1)
    reg = np.append(np.full(d, classifiers.SVM_LAMBDA), 0.0)
    scale = 2.0 / n
    tol = classifiers.SVM_GRAD_TOL * np.linalg.norm(scale * (y @ x1))
    z = np.zeros(d + 1)
    for _ in range(classifiers.SVM_MAX_ITER + 1):
        slack = 1.0 - y * (x1 @ z)
        active = slack > 0.0
        xs = x1[active]
        grad = reg * z - scale * ((y * slack)[active] @ xs)
        if np.linalg.norm(grad) <= tol:
            return z
        hess = scale * (xs.T @ xs)
        hess[np.diag_indices(d + 1)] += reg
        if not active.any():
            hess[-1, -1] = 1.0
        step = -np.linalg.solve(hess, grad)
        z = z + exact_line_search(slack, y * (x1 @ step), z[:-1], step[:-1]) * step
    raise NotConvergedError("exact_newton_pair: no convergence")


def reference_pam(d, k):
    """PAM as :func:`labelalign.selection.k_medoids` was first written, on a
    valid ``d`` and ``k``: the same BUILD, and a SWAP that gathers each
    medoid's own points and the other points from ``d`` apart, for every
    medoid of every pass. The kernel is held to its medoids."""
    n = d.shape[0]
    medoids = [int(np.argmin(d.sum(axis=1)))]
    nearest = d[medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(nearest[None, :] - d, 0.0).sum(axis=1)
        gains[medoids] = -np.inf
        best = int(np.argmax(gains))
        medoids.append(best)
        nearest = np.minimum(nearest, d[best])
    medoids = sorted(medoids)
    while True:
        med = np.asarray(medoids)
        dist_to_med = d[med]
        order = np.argsort(dist_to_med, axis=0, kind="stable")
        d1 = dist_to_med[order[0], np.arange(n)]
        owner = order[0]
        d2 = (
            dist_to_med[order[1], np.arange(n)]
            if k > 1
            else np.full(n, np.inf)
        )
        non_medoids = [h for h in range(n) if h not in set(medoids)]
        if not non_medoids:
            break
        hs = np.asarray(non_medoids)
        best_delta = 0.0
        best_swap = None
        for mi, m in enumerate(medoids):
            owned = owner == mi
            delta_owned = (
                np.minimum(d[np.ix_(owned.nonzero()[0], hs)], d2[owned, None])
                - d1[owned, None]
            ).sum(axis=0)
            others = ~owned
            delta_others = np.minimum(
                d[np.ix_(others.nonzero()[0], hs)] - d1[others, None], 0.0
            ).sum(axis=0)
            deltas = delta_owned + delta_others
            hi = int(np.argmin(deltas))
            if deltas[hi] < best_delta - 1e-15:
                best_delta = float(deltas[hi])
                best_swap = (mi, int(hs[hi]))
        if best_swap is None:
            break
        mi, h = best_swap
        medoids[mi] = h
        medoids = sorted(medoids)
    return medoids


def reference_beta_cf(a, b, x):
    """The incomplete beta's continued fraction as
    :func:`labelalign.stats._beta_cf` was first written: the even and the odd
    Lentz step of each term spelled out, each with its own clamps. The kernel
    is held to it bit for bit."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < BETA_TOL:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


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
    """Exponential map inverting :func:`labelalign.spd.tangent_map`:
    ref^{1/2} exp(unflatten(flat)) ref^{1/2}."""
    s = unflatten_sym(flat)
    if s.shape[-1] != np.shape(ref)[-1]:
        raise DimMismatchError(f"flat of dim {s.shape[-1]} does not match ref {np.shape(ref)}")
    half = spd_sqrt(ref)
    return symmetrize(half @ spd_exp(s) @ half)


def total_cost(d, medoids):
    """Sum over points of the distance to the nearest medoid."""
    return float(d[np.asarray(medoids)].min(axis=0).sum())


def relative_error(got, expected):
    return float(np.max(np.abs(np.asarray(got) - expected)) / np.max(np.abs(expected)))
