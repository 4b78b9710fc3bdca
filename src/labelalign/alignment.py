"""Whole-domain and per-class alignment of trial covariance stacks.

Both transforms are congruences ``C -> A C Aᵀ`` on a
:class:`~labelalign.features.CovStack` (n, C, C), which is what aligning
the raw trials as ``A X`` does to their covariances, so they preserve
within-subject (and within-class) geodesic distances. Domain whitening
(``ea``) uses the inverse square root of the subject's mean trial
covariance, after which that mean is exactly the identity.

Label alignment first maps the source label space onto the target label
space (:func:`match_labels`); each entry point applies that mapping once,
with :func:`relabel`, where it builds a source view. From then on there is
one label space: a source domain's class means are keyed by target label,
and per-class re-centering (``la``) gives the trials of each source class
``A = Ct^{1/2} Cs^{-1/2}`` for the Log-Euclidean class means ``Cs``
(source) and ``Ct`` (target) of the same label. ``A Cs Aᵀ = Ct`` holds
exactly, but the Log-Euclidean mean of the aligned trials ``A Cᵢ Aᵀ`` is in
general not ``Ct``: that mean commutes only with orthogonal congruences.
:func:`la_per_trial` turns the class matrices into each source trial's
matrix; the harness applies them to covariance stacks (:func:`la_align`)
and ``labelalign align`` to the raw trials, streamed one subject at a time.
What does not depend on the label budget (the whitened stack, the inverse
roots of the source class means) is computed once per :class:`Domain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CardinalityMismatchError,
    ConfigError,
    MissingClassError,
    UnknownLabelError,
)
from .features import CovStack
from .rng import CounterRng, derive_key
from .spd import Array, arithmetic_mean_cov, class_means, spd_inv_sqrt, spd_sqrt


@dataclass(frozen=True)
class LabelMapping:
    """Bijection from source labels to target labels."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        sources = [s for s, _ in self.pairs]
        targets = [t for _, t in self.pairs]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise CardinalityMismatchError(f"mapping is not a bijection: {self.pairs}")

    def as_dict(self) -> dict:
        return dict(self.pairs)

    @property
    def source_labels(self) -> tuple:
        return tuple(s for s, _ in self.pairs)


def match_labels(source_labels, target_labels, seed: int = 0) -> LabelMapping:
    """Match common labels identically, the rest by a seeded permutation.

    Deterministic given the label sets and the seed. A label listed twice,
    or sets of unequal size, raise :class:`ConfigError`.
    """
    for role, labels in (("source", source_labels), ("target", target_labels)):
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate {role} labels: {tuple(labels)}")
    source = set(source_labels)
    target = set(target_labels)
    if len(source) != len(target):
        raise CardinalityMismatchError(
            f"source has {len(source)} labels, target has {len(target)}"
        )
    common = sorted(source & target)
    rest_source = sorted(source - target)
    rest_target = sorted(target - source)
    perm = CounterRng(derive_key(seed, "label-match")).permutation(len(rest_target))
    pairs = [(l, l) for l in common] + [
        (s, rest_target[perm[i]]) for i, s in enumerate(rest_source)
    ]
    pairs.sort()
    return LabelMapping(tuple(pairs))


def _lookup(table: dict, labels, what: str) -> list:
    labels = np.asarray(labels).tolist()
    unknown = sorted(set(labels) - set(table))
    if unknown:
        raise UnknownLabelError(f"trial labels {unknown} have no {what}")
    return [table[l] for l in labels]


def ea_reference(covs: Array) -> Array:
    """Whitening matrix: inverse square root of the mean trial covariance."""
    return spd_inv_sqrt(arithmetic_mean_cov(covs))


def target_means(labeled: CovStack, labels, n_classes: int) -> dict | None:
    """The Log-Euclidean mean per label of the labeled target trials (from
    their logs if they carry them), or None when the labels cover fewer than
    ``n_classes`` classes (the caller then falls back to domain whitening)."""
    if len(set(labels)) < n_classes:
        return None
    return class_means(labeled.covs, labels, labeled.logs)


def la_fit(source_inv_roots: dict, target_means: dict) -> dict:
    """``{label: Ct^{1/2} Cs^{-1/2}}`` from a source's :func:`class_inv_roots`
    (``Cs^{-1/2}`` per label, the source relabeled to target labels) and the
    target class means ``Ct``, paired by label."""
    for label in sorted(source_inv_roots.keys() ^ target_means.keys()):
        what = "no target mean" if label in source_inv_roots else "no source trials"
        raise MissingClassError(f"{what} for label {label!r}", label)
    labels = sorted(target_means)
    halves = spd_sqrt(np.stack([target_means[l] for l in labels]))
    inv_halves = np.stack([source_inv_roots[l] for l in labels])
    return dict(zip(labels, halves @ inv_halves))


def relabel(labels, mapping: LabelMapping) -> Array:
    """Source labels replaced by their matched target labels."""
    return np.array(_lookup(mapping.as_dict(), labels, "mapped label"), dtype=np.int64)


def la_per_trial(matrices: dict, labels) -> Array:
    """Each trial's :func:`la_fit` class matrix (n, C, C), looked up by its label."""
    return np.stack(_lookup(matrices, labels, "transform"))


def la_align(matrices: dict, stack: CovStack) -> CovStack:
    """Transform each source trial covariance by its class matrix."""
    return stack.transformed(la_per_trial(matrices, stack.labels))


@dataclass(frozen=True, eq=False)
class Domain:
    """One subject's covariance ``stack`` and its EA-whitened ``ea_stack``; on a
    source also ``inv_roots``, the inverse square roots of the class means
    that LA moves (None on a target pool)."""

    stack: CovStack
    ea_stack: CovStack
    inv_roots: dict | None = None


def class_inv_roots(stack: CovStack) -> dict:
    """``{label: Cs^{-1/2}}`` for the class means ``Cs`` of a labeled stack
    (from its logs if it has them): what :func:`la_fit` needs of a source."""
    means = class_means(stack.covs, stack.labels, stack.logs)
    return dict(zip(means, spd_inv_sqrt(np.stack(list(means.values())))))


def domain(stack: CovStack, source: bool = False, logs: bool = False) -> Domain:
    """Build a domain; ``source`` also computes its class means' inverse roots,
    and ``logs`` makes the raw and whitened stacks carry their matrix logs.
    The harness asks for logs only on source views: of a target pool it
    logs only the trials that get labeled, once they are picked."""
    ea_stack = stack.transformed(ea_reference(stack.covs))
    if logs:
        stack, ea_stack = stack.with_logs(), ea_stack.with_logs()
    return Domain(stack, ea_stack, class_inv_roots(stack) if source else None)


def align(
    strategy: str,
    sources: Sequence[Domain],
    target: Domain,
    target_means: dict | None = None,
) -> tuple[list[CovStack], CovStack]:
    """Dispatch one alignment strategy over all source subjects.

    Returns the aligned source stacks and the aligned target stack. The
    source domains already carry target labels, so no strategy relabels.

    * ``raw``: covariances pass through unchanged.
    * ``ea``: every subject, including the target, is whitened with its own
      reference; these are the domains' whitened stacks, logs included.
    * ``la``: each source subject (a domain built with ``source=True``) gets
      its own per-class transforms toward the shared ``target_means``; the
      target is untouched. The new source stacks carry no logs.
    """
    if strategy == "la":
        if target_means is None:
            raise ConfigError("la alignment needs target means")
        stacks = [la_align(la_fit(d.inv_roots, target_means), d.stack) for d in sources]
        return stacks, target.stack
    if strategy == "ea":
        return [d.ea_stack for d in sources], target.ea_stack
    if strategy == "raw":
        return [d.stack for d in sources], target.stack
    raise ConfigError(f"unknown alignment strategy {strategy!r}")
