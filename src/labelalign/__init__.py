"""SPD-manifold alignment for cross-subject multichannel trials.

Covariance geometry (geodesic distance, tangent-space maps, Log-Euclidean
means), domain whitening and per-class label alignment, CSP and
tangent-space feature pipelines, medoid-based trial selection, and a
reproducible leave-one-subject-out experiment harness.
"""

from .alignment import (
    Domain,
    LabelMapping,
    align,
    domain,
    ea_reference,
    la_fit,
    match_labels,
)
from .classifiers import (
    LdaModel,
    LinearSvmModel,
    MdmModel,
    lda_fit,
    mdm_fit,
    mdm_predict,
    svm_fit,
)
from .dataio import (
    DatasetManifest,
    Trial,
    load_manifest,
    read_labels,
    read_trials,
    write_labels,
    write_manifest,
    write_trials,
)
from .experiment import ScenarioSpec, fit_predict, load_scenario, run_scenario
from .features import (
    CovStack,
    covariance_stack,
    csp_features,
    csp_fit,
    trial_covariance,
    ts_features,
)
from .report import ExperimentReport, emit_report, read_report
from .selection import k_medoids, pairwise_distances
from .spd import (
    arithmetic_mean_cov,
    riemannian_distance,
    spd_exp,
    spd_from_matrix,
    spd_inv_sqrt,
    spd_log,
    spd_sqrt,
    tangent_map,
)
from .synth import SynthConfig, SynthDataset, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "CovStack",
    "DatasetManifest",
    "Domain",
    "ExperimentReport",
    "LabelMapping",
    "LdaModel",
    "LinearSvmModel",
    "MdmModel",
    "ScenarioSpec",
    "SynthConfig",
    "SynthDataset",
    "Trial",
    "align",
    "arithmetic_mean_cov",
    "covariance_stack",
    "csp_features",
    "csp_fit",
    "domain",
    "ea_reference",
    "emit_report",
    "fit_predict",
    "generate_synthetic",
    "k_medoids",
    "la_fit",
    "lda_fit",
    "load_manifest",
    "load_scenario",
    "match_labels",
    "mdm_fit",
    "mdm_predict",
    "pairwise_distances",
    "read_labels",
    "read_report",
    "read_trials",
    "riemannian_distance",
    "run_scenario",
    "spd_exp",
    "spd_from_matrix",
    "spd_inv_sqrt",
    "spd_log",
    "spd_sqrt",
    "svm_fit",
    "tangent_map",
    "trial_covariance",
    "ts_features",
    "write_labels",
    "write_manifest",
    "write_trials",
]
