"""Workload table and the per-layer metric targets of the benchmark.

Every workload builds a synthetic 4-class dataset (source labels [0, 1],
target labels [2, 3], class separation 1.0, subject shift 0.5), writes it
to disk through ``labelalign.dataio`` and runs ``run_scenario`` on the
manifest. ``seed`` is the default dataset seed. ``CONFIRM_SEED`` is kept
for confirming a claimed gain on data that was not used while the change
was written: ``--seed 1001``.
"""

from __future__ import annotations

from dataclasses import dataclass

SOURCE_LABELS = (0, 1)
TARGET_LABELS = (2, 3)
CLASSES = 4
CLASS_SEPARATION = 1.0
SUBJECT_SHIFT = 0.5
CONFIRM_SEED = 1001


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    channels: int
    samples: int
    trials_per_class: int
    subjects: int
    noise_df: int
    seed: int
    strategies: tuple[str, ...]
    pipelines: tuple[str, ...]
    k_grid: tuple[int, ...]
    jobs: int

    def synth_fields(self, seed: int) -> dict:
        return {
            "channels": self.channels,
            "samples": self.samples,
            "classes": CLASSES,
            "trials_per_class": self.trials_per_class,
            "subjects": self.subjects,
            "class_separation": CLASS_SEPARATION,
            "subject_shift": SUBJECT_SHIFT,
            "seed": seed,
            "noise_df": self.noise_df,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loso-c8-full",
            why=(
                "8 channels, all 12 algorithms: many small matrices, so per-call "
                "overhead, the Pegasos SVM loop and rng.permutation dominate"
            ),
            channels=8, samples=200, trials_per_class=20, subjects=3, noise_df=20,
            seed=1,
            strategies=("raw", "ea", "la"),
            pipelines=("csp-lda", "ts-svm", "ts-lda", "mdm"),
            k_grid=(2, 8), jobs=1,
        ),
        Workload(
            name="loso-c22-geom",
            why=(
                "22 channels, a 96-trial target pool and no SVM: eigensolves, "
                "pairwise geodesic distances and tangent maps dominate"
            ),
            channels=22, samples=250, trials_per_class=48, subjects=3, noise_df=40,
            seed=1,
            strategies=("ea", "la"),
            pipelines=("ts-lda", "mdm"),
            k_grid=(4, 16), jobs=1,
        ),
        Workload(
            name="loso-disk-jobs2",
            why=(
                "the only workload on the process pool (jobs 2); each of 6 units "
                "is shipped all other subjects, so harness and IPC changes show"
            ),
            channels=16, samples=250, trials_per_class=16, subjects=6, noise_df=34,
            seed=7,
            strategies=("raw", "ea", "la"),
            pipelines=("ts-lda", "mdm"),
            k_grid=(4, 8), jobs=2,
        ),
    )
}

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "acc_mean": ("fraction", "higher"),
    "acc_la_mean": ("fraction", "higher"),
}

# Per-layer metrics from the traced run: name -> (unit, the end-to-end
# metric it should move, and on which workloads). Later changes cite
# these names when they predict which numbers move.
ALL = "all"
C8, C22, DISK = "loso-c8-full", "loso-c22-geom", "loso-disk-jobs2"
PER_LAYER = {
    "features.trial_covariance.calls": ("count", "wall_s", ALL),
    "features.trial_covariance.s": ("s", "wall_s", ALL),
    "features.ts_features.vectors": ("count", "wall_s", f"{C22},{C8}"),
    "features.ts_features.s": ("s", "wall_s", f"{C22},{C8}"),
    "spd.tangent_map.calls": ("count", "wall_s", f"{C22},{C8}"),
    "features.csp.s": ("s", "wall_s", C8),
    "spd.eig.calls": ("count", "wall_s,cpu_s", C8),
    "spd.eig.matrices": ("count", "wall_s,cpu_s", C8),
    "spd.log_euclidean_mean.calls": ("count", "wall_s", C22),
    "spd.log_euclidean_mean.s": ("s", "wall_s", C22),
    "spd.riemannian_distance.calls": ("count", "wall_s", C22),
    "spd.riemannian_distance.s": ("s", "wall_s", C22),
    "selection.pairwise_distances.pairs": ("count", "wall_s", C22),
    "selection.pairwise_distances.s": ("s", "wall_s", f"{C22} (flat on {C8})"),
    "selection.k_medoids.s": ("s", "wall_s", f"{C22} (flat on {C8})"),
    "alignment.align.raw.s": ("s", "wall_s", ALL),
    "alignment.align.ea.s": ("s", "wall_s", ALL),
    "alignment.align.la.s": ("s", "wall_s", ALL),
    "alignment.la_fit.calls": ("count", "wall_s", ALL),
    "alignment.la_fallback_ratio": ("ratio", "acc_la_mean", ALL),
    "classifiers.svm_fit.s": ("s", "wall_s", C8),
    "classifiers.svm_predict.s": ("s", "wall_s", C8),
    "classifiers.lda_fit.s": ("s", "wall_s", C22),
    "classifiers.lda_predict.s": ("s", "wall_s", C22),
    "classifiers.mdm_fit.s": ("s", "wall_s", C22),
    "classifiers.mdm_predict.s": ("s", "wall_s", C22),
    "rng.permutation.calls": ("count", "wall_s", C8),
    "rng.permutation.s": ("s", "wall_s", C8),
    "dataio.load.bytes": ("bytes", "wall_s", DISK),
    "dataio.load.s": ("s", "wall_s", DISK),
    "experiment.fit_predict.csp-lda.s": ("s", "wall_s", C8),
    "experiment.fit_predict.ts-svm.s": ("s", "wall_s", C8),
    "experiment.fit_predict.ts-lda.s": ("s", "wall_s", ALL),
    "experiment.fit_predict.mdm.s": ("s", "wall_s", ALL),
    "experiment.harness_self_s": ("s", "wall_s", ALL),
    "trace.wall_s": ("s", "wall_s", ALL),
    "trace.overhead": ("ratio", "none (tracing cost)", ALL),
}
