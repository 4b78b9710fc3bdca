"""Deterministic synthetic cross-subject trial generator.

Every class gets an SPD prototype ``P_m = exp(class_separation * D_m)`` for a
random unit-Frobenius symmetric direction ``D_m``, and every subject an SPD
congruence shift ``W_s = exp(subject_shift * S_s)`` (so ``||log(W_s^T
W_s)||_F = 2 * subject_shift``). A trial is ``X = W_s^T P_m^{1/2} Z``, ``Z``
standard normal (channels x samples), of expected per-sample covariance
``W_s^T P_m W_s``. With ``noise_df``, each trial draws a Wishart factor ``Q =
G G^T / noise_df`` (``G`` channels x noise_df) and uses ``P_m^{1/2} Q^{1/2}``:
``E[Q] = I`` keeps the expected covariance, while single trials disperse.

All randomness flows through :mod:`labelalign.rng`, keyed per class, subject
and trial, so the output is a pure function of the config. A class's trials
are drawn in batches, the chunks of :mod:`labelalign.spd`, with the bits of a
trial-at-a-time loop
(``TestGenerator.test_batches_give_the_per_trial_loop_bit_for_bit``), and a
run holds one generated subject at a time
(``TestOneSubjectAtATime.test_synth_peaks_within_one_generated_subject``). A
config whose run would hold more than ``MAX_WORDS`` words is refused before
any draw (``TestSizeBound``).
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
    shifts that draws each one when it is reached."""
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
    """Generate per-subject labeled trials plus the generating parameters,
    which tests compare estimates against."""
    prototypes, shifts = synthetic_parameters(cfg)
    shifts = tuple(shifts)
    subjects = tuple(
        [Trial(x, label=int(l)) for x, l in zip(data, labels)]
        for data, labels in synthetic_subjects(cfg, prototypes, shifts)
    )
    return SynthDataset(cfg, subjects, prototypes, shifts)
