"""Streaming regression with a drift-aware ensemble of online learners.

The ensemble is organized as a scale-free network of experts whose
predictions are combined by centrality weight; a change detector on the
normalized ensemble error triggers replacement of the weakest expert.
Synthetic drifting-hyperplane streams, CSV ingestion, baselines, and a
prequential evaluation harness round out the package.
"""

from .adwin import Adwin, epsilon_cut
from .ensembles import AddExpRegressor, DriftEvent, ScaleFreeRegressor, SfnrConfig
from .evaluation import (
    PRESETS,
    ExperimentConfig,
    Preset,
    PrequentialWindow,
    ResultRow,
    describe_presets,
    emit_csv,
    emit_drift_log,
    parse_result_csv,
    run_experiment,
    run_experiment_detailed,
    summarize,
)
from .learners import (
    EmaForecaster,
    OnlineRegressor,
    RunningMeanRegressor,
    SgdLinearRegressor,
)
from .network import (
    CENTRALITY_METRICS,
    ExpertNetwork,
    attach_probabilities,
    degree_attach_probabilities,
    weighted_sample_without_replacement,
)
from .prng import derive_seed, make_rng
from .streams import (
    DriftStreamSpec,
    HyperplaneConcept,
    Instance,
    StreamFormatError,
    generate_drift_stream,
    hyperplane_target,
    make_hyperplane_concept,
    parse_regression_csv,
    parse_yahoo_csv,
    sigmoid_mix_probability,
)

__version__ = "0.1.0"

__all__ = [
    "Adwin",
    "AddExpRegressor",
    "CENTRALITY_METRICS",
    "DriftEvent",
    "DriftStreamSpec",
    "EmaForecaster",
    "ExperimentConfig",
    "ExpertNetwork",
    "HyperplaneConcept",
    "Instance",
    "OnlineRegressor",
    "PRESETS",
    "Preset",
    "PrequentialWindow",
    "ResultRow",
    "RunningMeanRegressor",
    "ScaleFreeRegressor",
    "SfnrConfig",
    "SgdLinearRegressor",
    "StreamFormatError",
    "attach_probabilities",
    "degree_attach_probabilities",
    "derive_seed",
    "describe_presets",
    "emit_csv",
    "emit_drift_log",
    "epsilon_cut",
    "generate_drift_stream",
    "hyperplane_target",
    "make_hyperplane_concept",
    "make_rng",
    "parse_result_csv",
    "parse_regression_csv",
    "parse_yahoo_csv",
    "run_experiment",
    "run_experiment_detailed",
    "sigmoid_mix_probability",
    "summarize",
    "weighted_sample_without_replacement",
]
