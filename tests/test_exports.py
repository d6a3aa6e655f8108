"""The names exported from the package stay stable."""

import driftnet

EXPORTED = [
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


def test_all_is_pinned():
    assert driftnet.__all__ == EXPORTED


def test_every_exported_name_resolves():
    namespace = {}
    exec("from driftnet import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(driftnet, name), name
