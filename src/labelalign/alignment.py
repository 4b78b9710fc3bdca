"""Whole-domain and per-class alignment of trial covariance stacks.

Both transforms are congruences ``C -> A C Aᵀ`` of a
:class:`~labelalign.features.CovStack`, which is what aligning the raw trials
as ``A X`` does to their covariances
(``TestLabelAlignment.test_aligned_covariances_match_aligned_trials``), so they
keep within-subject geodesic distances. Domain whitening (``ea``) uses the
inverse square root of the subject's mean covariance. Label alignment maps the
source label space onto the target's (:func:`match_labels`), once per source
view (``TestSharedWork.test_each_source_view_is_relabeled_once``). Per-class
re-centering (``la``) then moves each source class by ``A = Ct^{1/2}
Cs^{-1/2}``, for the arithmetic class means ``Cs`` and ``Ct`` of one label;
the arithmetic mean commutes with every congruence, so the aligned class mean
is ``Ct`` up to rounding
(``TestLabelAlignment.test_recenters_class_mean_exactly``) and no matrix log
is taken. A source's ``Cs^{-1/2}`` is taken once per :class:`Domain`, a
labeled target's ``Ct^{1/2}`` once for every source
(``TestSharedWork.test_target_roots_are_taken_once_per_target_and_k``), and
:func:`la_fit` only multiplies.
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
    """Match common labels identically, the rest by a seeded permutation; a
    label listed twice, or sets of unequal size, raise :class:`ConfigError`."""
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
    target's :func:`target_roots` (``Ct^{1/2}`` per label), paired by label."""
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
    """One subject's covariance ``stack``, its EA-whitened ``ea_stack`` and, on a
    source, the ``inv_roots`` of its class means that LA moves."""

    stack: CovStack
    ea_stack: CovStack
    inv_roots: dict | None = None


def class_inv_roots(stack: CovStack) -> dict:
    """``{label: Cs^{-1/2}}`` for the arithmetic class means ``Cs`` of a
    labeled stack: what :func:`la_fit` needs of a source."""
    return _class_roots(stack, spd_inv_sqrt)


def domain(stack: CovStack, source: bool = False) -> Domain:
    """Build a domain, whose stacks carry no logs; ``source`` also computes its
    class means' inverse roots."""
    ea_stack = stack.transformed(ea_reference(stack.covs))
    return Domain(stack, ea_stack, class_inv_roots(stack) if source else None)


def _la_rows(sources: Sequence[Domain], target_roots: dict) -> Iterator[CovStack]:
    """The LA-aligned rows of each source in turn, in :func:`labelalign.spd.chunks`
    of its rows, with the bits of the whole source
    (``TestAlignDispatch.test_la_rows_in_chunks_are_the_whole_source_bit_for_bit``)."""
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
    """Write the source stacks aligned by ``strategy`` one after another into
    the first rows of the training buffer ``out`` (:meth:`CovStack.write`), and
    return the aligned target stack. ``raw`` passes the covariances through;
    ``ea`` takes every domain's whitened stack; ``la`` moves each source (a
    domain built with ``source=True``) toward the shared ``target_roots``, a
    chunk of its rows at a time, and leaves the target as it is."""
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
