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
``A = Ct^{1/2} Cs^{-1/2}`` for the arithmetic class means ``Cs`` (source)
and ``Ct`` (target) of the same label, the mean that EA whitens with. The
arithmetic mean commutes with every congruence, so the mean of the aligned
trials ``A Cᵢ Aᵀ`` of each source class is ``A Cs Aᵀ = Ct``, exactly up to
rounding, and the LA fit takes no matrix logs. Each root is taken once: a
source's ``Cs^{-1/2}`` (:func:`class_inv_roots`) once per :class:`Domain`,
with its whitened stack, and the ``Ct^{1/2}`` of a labeled target set
(:func:`target_roots`) once, for every source; :func:`la_fit` only multiplies.
:func:`la_per_trial` turns the class matrices into each source trial's
matrix; :func:`align` applies them to covariance stacks, writing the aligned
rows a chunk at a time into a training buffer, and ``labelalign align`` to
the raw trials, streamed one subject at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    CardinalityMismatchError,
    ConfigError,
    MissingClassError,
    UnknownLabelError,
)
from .features import CovStack
from .rng import CounterRng, derive_key
from .spd import Array, arithmetic_mean_cov, chunks, spd_inv_sqrt, spd_sqrt


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


def _class_roots(stack: CovStack, root) -> dict:
    """``root`` of each label's arithmetic mean, in one batched call, keyed by label."""
    labels = np.unique(stack.labels)
    means = [arithmetic_mean_cov(stack.covs[stack.labels == l]) for l in labels]
    return dict(zip(labels.tolist(), root(np.stack(means))))


def target_roots(labeled: CovStack, n_classes: int) -> dict | None:
    """``{label: Ct^{1/2}}`` for the arithmetic class means ``Ct`` of the
    labeled target trials, or None when their labels cover fewer than
    ``n_classes`` classes (the caller then falls back to domain whitening)."""
    return None if len(set(labeled.labels)) < n_classes else _class_roots(labeled, spd_sqrt)


def la_fit(source_inv_roots: dict, target_roots: dict) -> dict:
    """``{label: Ct^{1/2} Cs^{-1/2}}`` from a source's :func:`class_inv_roots`
    (``Cs^{-1/2}`` per label, the source relabeled to target labels) and the
    target's :func:`target_roots` (``Ct^{1/2}`` per label), paired by label.
    Both roots are taken beforehand, so the fit only multiplies."""
    for label in sorted(source_inv_roots.keys() ^ target_roots.keys()):
        what = "no target mean" if label in source_inv_roots else "no source trials"
        raise MissingClassError(f"{what} for label {label!r}", label)
    return {l: target_roots[l] @ source_inv_roots[l] for l in sorted(target_roots)}


def relabel(labels, mapping: LabelMapping) -> Array:
    """Source labels replaced by their matched target labels."""
    return np.array(_lookup(mapping.as_dict(), labels, "mapped label"), dtype=np.int64)


def la_per_trial(matrices: dict, labels) -> Array:
    """Each trial's :func:`la_fit` class matrix (n, C, C), looked up by its label."""
    return np.stack(_lookup(matrices, labels, "transform"))


@dataclass(frozen=True, eq=False)
class Domain:
    """One subject's covariance ``stack`` and its EA-whitened ``ea_stack``; on a
    source also ``inv_roots``, the inverse square roots of the class means
    that LA moves (None on a target pool)."""

    stack: CovStack
    ea_stack: CovStack
    inv_roots: dict | None = None


def class_inv_roots(stack: CovStack) -> dict:
    """``{label: Cs^{-1/2}}`` for the arithmetic class means ``Cs`` of a
    labeled stack: what :func:`la_fit` needs of a source."""
    return _class_roots(stack, spd_inv_sqrt)


def domain(stack: CovStack, source: bool = False) -> Domain:
    """Build a domain; ``source`` also computes its class means' inverse roots.
    Neither stack carries matrix logs: the harness logs a source view's stacks
    with :meth:`CovStack.with_logs` when some strategy trains on them, and of
    a target pool only the trials that get labeled, once they are picked."""
    ea_stack = stack.transformed(ea_reference(stack.covs))
    return Domain(stack, ea_stack, class_inv_roots(stack) if source else None)


def _la_rows(sources: Sequence[Domain], target_roots: dict) -> Iterator[CovStack]:
    """The LA-aligned rows of each source in turn, a chunk of its rows at a
    time (:func:`labelalign.spd.chunks`); :func:`la_fit` is called once per
    source."""
    for d in sources:
        a = la_fit(d.inv_roots, target_roots)
        for rows in chunks(len(d.stack.covs), d.stack.covs.shape[-1] ** 2):
            part = d.stack.take(rows)
            yield part.transformed(la_per_trial(a, part.labels))


def align(
    strategy: str,
    sources: Sequence[Domain],
    target: Domain,
    target_roots: dict | None,
    out: CovStack,
) -> CovStack:
    """Dispatch one alignment strategy over all source subjects.

    Writes the aligned source stacks one after another into the first rows
    of ``out``, a training buffer (:meth:`CovStack.write`, which logs them
    when ``out`` holds logs), and returns the aligned target stack. The
    source domains already carry target labels, so no strategy relabels.

    * ``raw``: covariances pass through unchanged.
    * ``ea``: every subject, including the target, is whitened with its own
      reference; these are the domains' whitened stacks, with any logs
      they carry.
    * ``la``: each source subject (a domain built with ``source=True``) gets
      its own per-class transforms toward the shared ``target_roots``; the
      target is untouched. The source rows are aligned and written one
      chunk at a time, so only one chunk of them exists beside ``out``.
    """
    if strategy == "la":
        if target_roots is None:
            raise ConfigError("la alignment needs target roots")
        pieces, aligned_target = _la_rows(sources, target_roots), target.stack
    elif strategy == "ea":
        pieces, aligned_target = [d.ea_stack for d in sources], target.ea_stack
    elif strategy == "raw":
        pieces, aligned_target = [d.stack for d in sources], target.stack
    else:
        raise ConfigError(f"unknown alignment strategy {strategy!r}")
    out.write(0, pieces)
    return aligned_target
