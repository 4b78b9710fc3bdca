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

All randomness flows through the counter-based generator in
:mod:`labelalign.rng`, keyed per (class/subject/trial), so the output is a
pure function of the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataio import Trial
from .errors import ConfigError
from .rng import CounterRng, derive_key
from .spd import Array, spd_exp, spd_sqrt, symmetrize


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
        for name in ("channels", "samples", "classes", "trials_per_class", "subjects"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.class_separation < 0 or self.subject_shift < 0:
            raise ConfigError("class_separation and subject_shift must be >= 0")
        if self.noise_df is not None and self.noise_df <= self.channels:
            raise ConfigError(
                f"noise_df must exceed channels ({self.channels}), got {self.noise_df}"
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


def synthetic_parameters(cfg: SynthConfig) -> tuple[tuple, tuple]:
    """The class prototypes and the subject shifts of ``cfg``."""
    def draw(stream: str, scale: float, count: int) -> tuple:
        return tuple(spd_exp(scale * _unit_symmetric_direction(
            CounterRng(derive_key(cfg.seed, stream, i)), cfg.channels)) for i in range(count))
    return (draw("prototype", cfg.class_separation, cfg.classes),
            draw("shift", cfg.subject_shift, cfg.subjects))


def synthetic_subjects(cfg: SynthConfig) -> Iterator[list[Trial]]:
    """Each subject's labeled trials in turn, generated as the next is asked
    for, so that one subject at a time need be held."""
    c = cfg.channels
    prototypes, shifts = synthetic_parameters(cfg)
    proto_sqrts = [spd_sqrt(p) for p in prototypes]
    for s, shift in enumerate(shifts):
        trials = []
        for m in range(cfg.classes):
            mix = shift.T @ proto_sqrts[m]
            for i in range(cfg.trials_per_class):
                rng = CounterRng(derive_key(cfg.seed, "noise", s, m, i))
                factor = mix
                if cfg.noise_df is not None:
                    g = rng.normal_matrix(c, cfg.noise_df)
                    factor = mix @ spd_sqrt(g @ g.T / cfg.noise_df)
                z = rng.normal_matrix(c, cfg.samples)
                trials.append(Trial(factor @ z, label=m))
        yield trials


def generate_synthetic(cfg: SynthConfig) -> SynthDataset:
    """Generate per-subject labeled trials plus the generating parameters.

    Prototypes and shifts are returned so tests can compare estimates
    against the ground truth.
    """
    return SynthDataset(cfg, tuple(synthetic_subjects(cfg)), *synthetic_parameters(cfg))
