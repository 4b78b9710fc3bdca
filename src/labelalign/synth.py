"""Deterministic synthetic cross-subject trial generator.

Every class gets an SPD prototype ``exp(class_separation * D_m)`` for a
random unit-Frobenius symmetric direction ``D_m``. Every subject gets an
SPD congruence shift ``W_s = exp(subject_shift * S_s)`` (so
``||log(W_s^T W_s)||_F = 2 * subject_shift``), and each trial is

    X = W_s^T @ P_m^{1/2} @ Z,    Z ~ standard normal, channels x samples,

which makes the expected per-sample trial covariance ``W_s^T P_m W_s``.

``noise_df`` optionally scatters the per-trial covariance around the class
prototype: each trial draws a normalized Wishart factor
``Q = G G^T / noise_df`` (``G`` channels x noise_df standard normal,
full rank because noise_df > channels) and uses ``P_m^{1/2} Q^{1/2}`` in
place of ``P_m^{1/2}``. ``E[Q] = I`` keeps the expected trial covariance
unchanged while making single trials genuinely dispersed, the way trials
from a live recording are. ``noise_df = None`` disables the dispersion.

A config is refused with :class:`ConfigError` before any draw when the words
that a run on it would hold exceed ``MAX_WORDS``. Per trial that is the
larger of the words drawn, ``channels x max(samples, noise_df)``, and the
``KEPT_ARRAYS`` ``(C, C)`` arrays that a run keeps of it; per subject it adds
``SUBJECT_WORDS``.

All randomness flows through the counter-based generator in
:mod:`labelalign.rng`, keyed per (class/subject/trial), so the output is a
pure function of the config.

A subject is yielded as ``(data, labels)``, after its own shift is drawn
and before the next subject's: its trials in one preallocated
``(n, C, T)`` array, class by class, and their labels ``(n,)``. The trials
of one (subject, class) take one key pass and are generated in batches, with
one stream pass per draw, one stacked ``Q^{1/2}`` and one stacked product
per batch, written straight into the subject's array. The batches are
:func:`labelalign.spd.chunks` of the class's trials, each item one draw of
``channels x max(samples, noise_df)`` normals: as many trials as fit
``CHUNK_WORDS = 2^14`` 64-bit words (128 KiB), and one trial at least.
Box-Muller peaks at about four arrays of a draw's size, so the bound caps
the generator's scratch near half a MiB however many trials a class has: a
process that generates a dataset (the benchmark's set-up among them) peaks
within a fraction of a MiB of the trial-at-a-time loop, while the per-trial
cost of the keys, the streams and the eigensolves is paid once per batch.
The values are those of the trial-at-a-time loop, bit for bit.

:func:`generate_synthetic` holds the whole dataset and wraps each trial in a
:class:`labelalign.dataio.Trial`, only for the benchmark's set-up, which
writes and labels those lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from .dataio import Trial
from .errors import ConfigError, require_fields
from .rng import CounterRng, derive_key, derive_keys
from .spd import Array, chunks, spd_exp, spd_sqrt, symmetrize

_COUNTS = ("channels", "samples", "classes", "trials_per_class", "subjects")
MAX_WORDS = 1 << 32  # about 100 times the paper-scale dataset's 4.3e7 words
KEPT_ARRAYS = 6  # a trial's (C, C) covariance, scatter and log, in the raw and whitened views
SUBJECT_WORDS = 1 << 10  # a run's fixed cost per subject: its name, domain and class means


@dataclass(frozen=True)
class SynthConfig:
    channels: int
    samples: int
    classes: int
    trials_per_class: int
    subjects: int
    class_separation: float
    subject_shift: float
    seed: int
    noise_df: int | None = None  # per-trial covariance dispersion; must exceed channels

    def __post_init__(self):
        require_fields(self)
        for name in _COUNTS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.class_separation < 0 or self.subject_shift < 0:
            raise ConfigError("class_separation and subject_shift must be >= 0")
        if self.noise_df is not None and self.noise_df <= self.channels:
            raise ConfigError(
                f"noise_df must exceed channels ({self.channels}), got {self.noise_df}"
            )
        c = self.channels
        trial = max(c * max(self.samples, self.noise_df or 0), KEPT_ARRAYS * c * c)
        words = self.subjects * (self.classes * self.trials_per_class * trial + SUBJECT_WORDS)
        if words > MAX_WORDS:
            raise ConfigError(
                "subjects x classes x trials_per_class x max(channels x max(samples, noise_df), "
                f"{KEPT_ARRAYS} x channels^2) + subjects x {SUBJECT_WORDS} "
                f"must be at most {MAX_WORDS} words"
            )


@dataclass(frozen=True, eq=False)
class SynthDataset:
    config: SynthConfig
    subjects: tuple  # tuple of per-subject trial lists
    prototypes: tuple  # class index -> SPD prototype
    shifts: tuple  # subject index -> congruence shift W_s

    def expected_covariance(self, subject: int, class_index: int) -> Array:
        """E[X X^T] / samples for a trial of the given subject and class."""
        w = self.shifts[subject]
        return symmetrize(w.T @ self.prototypes[class_index] @ w)


def _unit_symmetric_direction(rng: CounterRng, dim: int) -> Array:
    d = symmetrize(rng.normal_matrix(dim, dim))
    return d / np.linalg.norm(d, "fro")


def _draw(cfg: SynthConfig, stream: str, scale: float, i: int) -> Array:
    """exp(scale * D) for the unit direction D keyed by (seed, stream, i)."""
    return spd_exp(scale * _unit_symmetric_direction(
        CounterRng(derive_key(cfg.seed, stream, i)), cfg.channels))


def subject_shift(cfg: SynthConfig, s: int) -> Array:
    """Subject ``s``'s congruence shift W_s."""
    return _draw(cfg, "shift", cfg.subject_shift, s)


def synthetic_parameters(cfg: SynthConfig) -> tuple[tuple, Iterator[Array]]:
    """The class prototypes of ``cfg``, and an iterator over its subject
    shifts that draws each one when it is reached: the generator draws
    subject ``s``'s shift as it generates subject ``s``, not every shift
    before the first subject."""
    prototypes = tuple(_draw(cfg, "prototype", cfg.class_separation, m)
                       for m in range(cfg.classes))
    return prototypes, map(partial(subject_shift, cfg), range(cfg.subjects))


def synthetic_subjects(cfg: SynthConfig, prototypes, shifts) -> Iterator[tuple[Array, Array]]:
    """Each subject's ``(data, labels)`` in turn, from ``cfg``'s :func:`synthetic_parameters`,
    generated as the next is asked for, so that one subject at a time need be held."""
    c, df, per_class = cfg.channels, cfg.noise_df, cfg.trials_per_class
    proto_sqrts = [spd_sqrt(p) for p in prototypes]
    for s, shift in enumerate(shifts):
        data = np.empty((cfg.classes * per_class, c, cfg.samples))
        for m in range(cfg.classes):
            mix = shift.T @ proto_sqrts[m]
            keys = derive_keys(cfg.seed, "noise", s, m, count=per_class)
            rows = data[m * per_class:(m + 1) * per_class]
            for batch in chunks(per_class, c * max(cfg.samples, df or 0)):
                rng = CounterRng(keys[batch])
                factor = mix
                if df is not None:
                    g = rng.normal_matrix(c, df)
                    factor = mix @ spd_sqrt(g @ g.swapaxes(-1, -2) / df)
                z = rng.normal_matrix(c, cfg.samples)
                np.matmul(factor, z, out=rows[batch])
        yield data, np.repeat(np.arange(cfg.classes), per_class)
        del data, rows  # before the next subject is allocated


def generate_synthetic(cfg: SynthConfig) -> SynthDataset:
    """Generate per-subject labeled trials plus the generating parameters.

    Prototypes and shifts are returned so tests can compare estimates
    against the ground truth.
    """
    prototypes, shifts = synthetic_parameters(cfg)
    shifts = tuple(shifts)
    subjects = tuple(
        [Trial(x, label=int(l)) for x, l in zip(data, labels)]
        for data, labels in synthetic_subjects(cfg, prototypes, shifts)
    )
    return SynthDataset(cfg, subjects, prototypes, shifts)
