"""Network-ensemble and additive-expert baseline tests."""

import math

import numpy as np
import pytest

from driftnet import learners as learners_module
from driftnet.ensembles import (
    _SCALE_WARMUP,
    AddExpRegressor,
    DriftEvent,
    ErrorScale,
    ScaleFreeRegressor,
    SfnrConfig,
)
from driftnet.learners import EmaForecaster, OnlineRegressor, RunningMeanRegressor, SgdLinearRegressor
from driftnet.network import ExpertNetwork, NodeStats
from driftnet.prng import make_rng
from driftnet.streams import Instance
from test_twins import PassThrough, check_ensemble, hostile_instance, switching_stream


class ConstantLearner(OnlineRegressor):
    """Stub expert with a pinned forecast."""

    def __init__(self, value: float):
        self.value = value

    def predict(self, x) -> float:
        return self.value

    def update(self, x, y: float) -> None:
        pass

    def clone_fresh(self) -> "ConstantLearner":
        return ConstantLearner(self.value)


class CountingLearner(OnlineRegressor):
    """Stub expert that records every update it receives."""

    def __init__(self):
        self.seen: list[float] = []

    def predict(self, x) -> float:
        return 0.0

    def update(self, x, y: float) -> None:
        self.seen.append(y)

    def clone_fresh(self) -> "CountingLearner":
        return CountingLearner()


def make_instances(values, dim=2):
    x = np.zeros(dim)
    return [Instance(x=x, y=float(v), index=i) for i, v in enumerate(values)]


def noisy_instances(rng, n, dim=2, level=0.0, spread=1.0):
    out = []
    for i in range(n):
        x = rng.random(dim)
        out.append(Instance(x=x, y=level + spread * float(rng.random()), index=i))
    return out


# ---------------------------------------------------------------------------
# Error scale.
# ---------------------------------------------------------------------------

def test_error_scale_fixed():
    scale = ErrorScale(fixed=0.5)
    scale.observe(99.0)  # ignored in fixed mode
    assert scale.scale == 0.5
    assert scale.normalize(0.3) == pytest.approx(0.6)
    assert scale.normalize(-0.3) == pytest.approx(0.6)


def test_error_scale_running_max_freezes():
    # the first error is the untrained seed's and is skipped; the max of
    # the next _SCALE_WARMUP errors is the scale
    scale = ErrorScale()
    scale.observe(9.0)
    assert scale.scale == 0.0
    for err in [0.2] * (_SCALE_WARMUP - 2) + [0.4, 0.8]:
        scale.observe(err)
    assert scale.scale == 0.8
    scale.observe(5.0)  # past warmup: ignored
    assert scale.scale == 0.8
    assert scale.normalize(0.4) == pytest.approx(0.5)


def test_error_scale_zero_scale_normalizes_to_zero():
    scale = ErrorScale()
    assert scale.normalize(1.0) == 0.0
    scale.observe(3.0)  # skipped
    assert scale.normalize(1.0) == 0.0


def test_error_scale_warmup_waits_for_a_nonzero_error():
    scale = ErrorScale()
    scale.observe(3.0)  # skipped
    for _ in range(_SCALE_WARMUP + 5):
        scale.observe(0.0)
    assert scale.scale == 0.0
    scale.observe(-2.0)  # first nonzero error ends the warm-up
    assert scale.scale == 2.0
    scale.observe(7.0)
    assert scale.scale == 2.0
    assert scale.normalize(1.0) == 0.5


def test_error_scale_validation():
    with pytest.raises(ValueError):
        ErrorScale(fixed=0.0)


# ---------------------------------------------------------------------------
# Weighted combination.
# ---------------------------------------------------------------------------

def _rigged_ensemble(forecasts, zetas):
    ens = ScaleFreeRegressor(ConstantLearner(0.0), SfnrConfig(metric="degree"))
    ids = list(range(len(forecasts)))
    ens.network = ExpertNetwork.from_edges(ids, [(i, i + 1) for i in ids[:-1]])
    ens.learners = {i: ConstantLearner(v) for i, v in zip(ids, forecasts)}
    for i, z in zip(ids, zetas):
        ens.network.nodes[i].zeta = z
    return ens


def test_weighted_vote_worked_example():
    # weights (2,1,1) on forecasts (1,2,3): (2+2+3)/4 = 1.75
    ens = _rigged_ensemble([1.0, 2.0, 3.0], [2.0, 1.0, 1.0])
    assert ens.predict(np.zeros(2)) == 1.75


def test_all_zero_weights_fall_back_to_plain_mean():
    ens = _rigged_ensemble([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert ens.predict(np.zeros(2)) == 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        ScaleFreeRegressor(ConstantLearner(0.0), SfnrConfig(metric="katz"))
    with pytest.raises(ValueError):
        ScaleFreeRegressor(ConstantLearner(0.0), SfnrConfig(mode="manual"))
    with pytest.raises(ValueError):
        ScaleFreeRegressor(ConstantLearner(0.0), SfnrConfig(delta=1.5))
    with pytest.raises(ValueError):
        ScaleFreeRegressor(ConstantLearner(0.0), SfnrConfig(mode="period", period=0))
    with pytest.raises(ValueError):
        ScaleFreeRegressor(ConstantLearner(0.0), SfnrConfig(k_max=0))
    # an evolution at capacity removes the worst expert before its
    # replacement joins, which one expert cannot survive
    with pytest.raises(ValueError, match="k_max must be at least 2.*beside its replacement"):
        ScaleFreeRegressor(ConstantLearner(0.0), SfnrConfig(k_max=1))
    with pytest.raises(ValueError, match="buffer_size must be positive"):
        ScaleFreeRegressor(ConstantLearner(0.0), SfnrConfig(buffer_size=0))
    ScaleFreeRegressor(ConstantLearner(0.0), SfnrConfig(k_max=2))


# ---------------------------------------------------------------------------
# Period-mode evolution.
# ---------------------------------------------------------------------------

def test_period_mode_grows_one_expert_per_noisy_period():
    # threshold 0 is always exceeded on a noisy stream: after 5 full
    # periods the seed expert has gained 5 companions
    rng = make_rng(3)
    cfg = SfnrConfig(mode="period", period=10, threshold=0.0, k_max=10,
                     metric="degree", error_scale=1.0)
    ens = ScaleFreeRegressor(RunningMeanRegressor(), cfg, seed=1)
    for inst in noisy_instances(rng, 50):
        ens.process(inst)
    assert ens.size == 6
    assert len(ens.drift_log) == 5
    assert [e.index for e in ens.drift_log] == [9, 19, 29, 39, 49]
    assert all(e.width_before is None for e in ens.drift_log)


def test_period_mode_respects_capacity():
    rng = make_rng(4)
    cfg = SfnrConfig(mode="period", period=10, threshold=0.0, k_max=3,
                     metric="degree", error_scale=1.0)
    ens = ScaleFreeRegressor(RunningMeanRegressor(), cfg, seed=1)
    sizes = []
    for inst in noisy_instances(rng, 100):
        ens.process(inst)
        sizes.append(ens.size)
    assert max(sizes) == 3
    assert len(ens.drift_log) == 10  # still evolving at capacity


def test_period_mode_quiet_stream_never_evolves():
    rng = make_rng(5)
    cfg = SfnrConfig(mode="period", period=10, threshold=0.5, k_max=10,
                     metric="degree", error_scale=1.0)
    ens = ScaleFreeRegressor(ConstantLearner(0.5), cfg, seed=1)
    # constant accurate forecasts: period RMSE 0 <= threshold
    for inst in make_instances([0.5] * 60):
        ens.process(inst)
    assert ens.size == 1
    assert ens.drift_log == []


def test_new_expert_is_trained_on_the_period_buffer():
    rng = make_rng(6)
    cfg = SfnrConfig(mode="period", period=10, threshold=0.0, k_max=10,
                     metric="degree", error_scale=1.0, buffer_size=500)
    ens = ScaleFreeRegressor(CountingLearner(), cfg, seed=1)
    stream = noisy_instances(rng, 10)
    for inst in stream:
        ens.process(inst)
    assert ens.size == 2
    newest = max(ens.learners)
    # warm-started on exactly the 10 buffered instances, oldest first
    assert ens.learners[newest].seen == [inst.y for inst in stream]


def test_capacity_eviction_removes_worst_expert():
    rng = make_rng(7)
    cfg = SfnrConfig(mode="period", period=10, threshold=0.0, k_max=2,
                     metric="degree", error_scale=1.0)
    ens = ScaleFreeRegressor(RunningMeanRegressor(), cfg, seed=1)
    for inst in noisy_instances(rng, 10):
        ens.process(inst)
    assert ens.size == 2
    # rig node 0 to be by far the worst expert
    for _ in range(50):
        ens.network.nodes[0].record_error(100.0)
    for inst in noisy_instances(rng, 10):
        ens.process(inst)
    assert 0 not in ens.learners
    assert ens.size == 2


# ---------------------------------------------------------------------------
# Detector-mode evolution.
# ---------------------------------------------------------------------------

def test_adwin_mode_stationary_stream_never_evolves():
    rng = make_rng(8)
    cfg = SfnrConfig(mode="adwin", delta=0.1, error_scale=1.0,
                     metric="eigenvector", adwin_check_interval=1)
    ens = ScaleFreeRegressor(RunningMeanRegressor(), cfg, seed=2)
    for inst in noisy_instances(rng, 4000):
        ens.process(inst)
    assert ens.size == 1
    assert ens.drift_log == []


def test_adwin_mode_detects_after_an_all_zero_warmup():
    # every warm-up error is 0; the running-max scale must not freeze at
    # 0, which would feed the detector only zeros for the rest of the run
    rng = make_rng(12)
    ens = ScaleFreeRegressor(SgdLinearRegressor(), SfnrConfig(mode="adwin"), seed=6)
    for i in range(5000):
        y = 0.0 if i < 600 else float(rng.choice([-5.0, 5.0]))
        ens.process(Instance(x=rng.random(3), y=y, index=i))
    assert ens.scale.scale > 0.0
    assert len(ens.drift_log) >= 1
    assert ens.drift_log[0].index >= 600


def test_adwin_mode_scale_skips_the_untrained_seeds_first_forecast():
    # an EMA seed forecasts 0 against a price near 100 on the first
    # instance; were that error in the running max, the scale would freeze
    # near 100 and a volatility switch could never reach the detector
    rng = make_rng(20)
    price, stream = 100.0, []
    for i in range(6000):
        price += float(rng.normal()) * (0.5 if i < 3000 else 4.0)
        stream.append(Instance(x=np.zeros(1), y=price, index=i))
    ens = ScaleFreeRegressor(EmaForecaster(5), SfnrConfig(mode="adwin"), seed=1)
    ens.process(stream[0])
    assert ens.scale.scale == 0.0
    assert ens.detector.contents() == [0.0]  # the detector still sees the instance
    for inst in stream[1:]:
        ens.process(inst)
    assert ens.scale.scale < 10.0
    assert ens.drift_log and all(event.index >= 3000 for event in ens.drift_log)


def linear_drift_stream(rng, n, t_drift, dim=3):
    w_old = np.array([0.8, -0.3, 0.4])
    w_new = np.array([-0.5, 0.6, -0.2])
    out = []
    for i in range(n):
        x = rng.random(dim)
        w = w_old if i < t_drift else w_new
        out.append(Instance(x=x, y=float(w @ x), index=i))
    return out


def test_adwin_mode_detects_learnable_drift_and_recovers():
    # learning rate 0.01 keeps the post-drift error elevated long
    # enough for the detector; faster rates re-converge before the
    # window accumulates evidence
    rng = make_rng(9)
    cfg = SfnrConfig(mode="adwin", delta=0.1, error_scale=1.0,
                     metric="eigenvector", adwin_check_interval=1,
                     buffer_size=500)
    ens = ScaleFreeRegressor(SgdLinearRegressor(learning_rate=0.01), cfg, seed=3)
    stream = linear_drift_stream(rng, 6000, 3000)
    errors = []
    for inst in stream:
        errors.append(abs(ens.process(inst) - inst.y))
    assert len(ens.drift_log) >= 1
    first = ens.drift_log[0]
    assert 3000 <= first.index <= 3200
    assert first.width_before > first.width_after >= 1
    assert ens.size >= 2
    # recovered: tail errors comparable to the pre-drift regime
    pre = np.mean(errors[2500:3000])
    tail = np.mean(errors[5500:])
    assert tail < 4 * pre


def test_adwin_mode_zeta_refresh_only_at_evolution():
    rng = make_rng(10)
    cfg = SfnrConfig(mode="adwin", delta=0.1, error_scale=1.0, metric="degree",
                     adwin_check_interval=1)
    ens = ScaleFreeRegressor(RunningMeanRegressor(), cfg, seed=4)
    ens.network.nodes[0].zeta = 123.0  # sentinel survives quiet processing
    for inst in noisy_instances(rng, 200):
        ens.process(inst)
    assert ens.network.nodes[0].zeta == 123.0


def test_same_seed_same_run():
    cfg = SfnrConfig(mode="period", period=10, threshold=0.0, metric="pagerank",
                     error_scale=1.0)
    a = ScaleFreeRegressor(SgdLinearRegressor(), cfg, seed=6)
    b = ScaleFreeRegressor(SgdLinearRegressor(), cfg, seed=6)
    rng = make_rng(12)
    stream = noisy_instances(rng, 120)
    preds_a = [a.process(inst) for inst in stream]
    preds_b = [b.process(inst) for inst in stream]
    assert preds_a == preds_b
    assert a.network.edges() == b.network.edges()


def test_process_returns_pretrain_forecast():
    cfg = SfnrConfig(mode="adwin", error_scale=1.0)
    ens = ScaleFreeRegressor(RunningMeanRegressor(), cfg, seed=7)
    inst = make_instances([5.0])[0]
    # before any training the mean learner predicts 0, and process must
    # report that forecast, not the post-update one
    assert ens.process(inst) == 0.0
    assert ens.predict(inst.x) == 5.0


def _assert_bank_storage(model, plain_sgd, index):
    # one rule for every bank: a plain-SGD bank moves its experts into rows
    # at the first instance it forecasts with two or more, and any other
    # bank holds learner objects throughout. Both ensembles grow by one
    # expert per drift event and never shrink below it, so after instance
    # ``index`` the bank is on rows when an event came before it.
    rows = any(event.index < index for event in model.drift_log)
    assert (model.bank._objects is None) == (plain_sgd and rows)


@pytest.mark.parametrize("case", [
    dict(mode="period"),  # period 100 within buffer 200: the trainee sees whole periods
    dict(mode="adwin"),
    dict(mode="period", period=300),  # the trainee opens 100 instances into each period
    dict(mode="period", period=200),  # period == buffer
    dict(mode="period", period=300, k_max=2),  # one expert is left beside the trainee
    dict(mode="period", period=300, threshold=0.05),  # some periods do not fire
    dict(mode="period", period=300, reassign_at=1450),  # the bank is replaced mid-window
], ids=["period", "adwin", "period-300-buffer-200", "period-equals-buffer", "k_max-2",
        "some-periods-idle", "learners-reassigned"])
def test_sgd_bank_matches_the_object_path(case, monkeypatch):
    # a wrapped prototype takes the per-object loop, as a traced bench
    # pass does; both must give the same bytes, although in period mode
    # the bank trains each newcomer while its window arrives and the
    # loop warm-starts it afterwards
    cfg = dict(k_max=3, period=100, threshold=0.0, error_scale=1.0,
               adwin_check_interval=1, buffer_size=200)
    cfg.update(case)
    reassign_at = cfg.pop("reassign_at", None)
    replayed_for = []  # the prototype's type per replayed window; the seed expert's is empty
    warm_start = learners_module.warm_start
    monkeypatch.setattr(learners_module, "warm_start", lambda proto, window: (
        window and replayed_for.append(type(proto)), warm_start(proto, window))[1])

    def watch(model, inst):
        # the setter's bank moves its SGD experts into rows at its first forecast
        _assert_bank_storage(model, type(model.prototype) is SgdLinearRegressor, inst.index)
        if inst.index + 1 == reassign_at:
            model.learners = model.learners
        if cfg["mode"] == "period" and (inst.index + 1) % cfg["period"] == 0:
            # every period end promotes or drops the trainee
            assert not model.bank._trainee

    _, bank = check_ensemble(lambda p: ScaleFreeRegressor(p, SfnrConfig(**cfg), seed=5),
                             switching_stream(make_rng(14), 3000, 1000), 0.01, watch)
    evolutions = len(bank.drift_log)
    assert evolutions > cfg["k_max"]  # experts were evicted too
    if cfg["threshold"] > 0:
        assert evolutions < 3000 // cfg["period"]
    # the loop replays every window; in period mode the bank replays only
    # the first, into a bank of one, and, when it is replaced after a
    # trainee opened, the window that trainee was learning
    on_rows = evolutions if cfg["mode"] == "adwin" else 1 + (reassign_at is not None)
    assert [replayed_for.count(SgdLinearRegressor), replayed_for.count(PassThrough)] == [on_rows, evolutions]


def test_sgd_bank_guards_the_dimension_once_per_call(monkeypatch):
    cfg = SfnrConfig(mode="period", period=20, threshold=0.0, k_max=3, error_scale=1.0)
    ens = ScaleFreeRegressor(SgdLinearRegressor(), cfg, seed=3)
    for inst in noisy_instances(make_rng(15), 60, dim=3):
        ens.process(inst)
    assert ens.size == 3
    checks = []
    check = learners_module._check_dimension
    monkeypatch.setattr(learners_module, "_check_dimension", lambda x, d: (checks.append(x), check(x, d)))
    x = np.array([0.2, 0.5, 0.9])
    ens.process(Instance(x=x, y=0.3, index=60))
    assert len(checks) == 1  # predict checks all three rows, and update takes its x
    for bad in (np.array([0.5]), np.zeros(4)):
        with pytest.raises(ValueError, match="feature dimension changed"):
            ens.process(Instance(x=bad, y=0.3, index=61))


def test_sgd_ensemble_learners_read_the_bank_rows():
    cfg = SfnrConfig(mode="period", period=20, threshold=0.0, k_max=3, error_scale=1.0)
    ens = ScaleFreeRegressor(SgdLinearRegressor(), cfg, seed=3)
    for inst in noisy_instances(make_rng(16), 90, dim=3):
        ens.process(inst)
    x = np.array([0.2, 0.5, 0.9])
    rows = dict(zip(ens.bank.ids, ens.bank.predict(x)))
    assert sorted(ens.learners) == ens.network.node_ids()
    for v, learner in ens.learners.items():
        assert learner.predict(x) == rows[v]


def _count_node_records(ens):
    """Re-class every node, present and future, to log its ``record_error`` calls.

    ``bench/spans.py`` times the node-error layer the same way, without
    touching the ensemble; the log holds (node id, error) pairs.
    """
    log = []
    owner = {}

    class CountingNodeStats(NodeStats):
        __slots__ = ()

        def record_error(self, error):
            log.append((owner[id(self)], error))
            NodeStats.record_error(self, error)

    net = ens.network

    def reclass(node_id):
        net.nodes[node_id].__class__ = CountingNodeStats
        owner[id(net.nodes[node_id])] = node_id

    for node_id in net.nodes:
        reclass(node_id)
    add_node = net.add_node

    def add_node_counted(node_id, *args, **kwargs):
        add_node(node_id, *args, **kwargs)
        reclass(node_id)

    net.add_node = add_node_counted
    return log


@pytest.mark.parametrize("prototype", [SgdLinearRegressor(), PassThrough(SgdLinearRegressor())],
                         ids=["sgd-bank", "object-bank"])
def test_process_records_each_present_expert_once_in_id_order(prototype):
    # period mode with a window shorter than the period, so an SGD bank
    # also trains a trainee row that is not yet an expert
    cfg = SfnrConfig(mode="period", period=30, buffer_size=10, threshold=0.0, k_max=3,
                     error_scale=1.0)
    ens = ScaleFreeRegressor(prototype, cfg, seed=4)
    log = _count_node_records(ens)
    for inst in noisy_instances(make_rng(17), 200, dim=3):
        present = ens.network.node_ids()
        preds = ens.bank.predict(inst.x)
        ens.predict(inst.x)
        assert log == []  # predict records nothing
        ens.process(inst)
        assert log == [(v, h - inst.y) for v, h in zip(present, preds)], inst.index
        log.clear()
        _assert_bank_storage(ens, type(prototype) is SgdLinearRegressor, inst.index)
    assert len(ens.drift_log) > cfg.k_max  # newcomers arrived and experts left


# ---------------------------------------------------------------------------
# Additive-expert baseline.
# ---------------------------------------------------------------------------

def test_addexp_full_loss_halves_weight():
    # one expert, forecast 0 against truth 1, unit scale: loss 1, so the
    # weight decays by beta exactly
    model = AddExpRegressor(ConstantLearner(0.0), beta=0.5, error_scale=1.0)
    model.process(make_instances([1.0])[0])
    assert model.weights[0] == 0.5


def test_addexp_new_expert_weight_is_gamma_share():
    model = AddExpRegressor(ConstantLearner(0.0), beta=0.5, gamma=0.1,
                            tau=0.05, error_scale=1.0)
    model.process(make_instances([1.0])[0])
    # the miss also triggers an addition priced at gamma * total weight
    assert model.size == 2
    assert model.weights[1] == pytest.approx(0.1 * 0.5)
    assert model.drift_log == [DriftEvent(0)]


def test_addexp_running_max_scale_skips_the_untrained_seeds_first_forecast():
    # as in SFNR: an EMA seed forecasts 0 against a price near 100, and
    # with that error in the running max the scale would freeze near 100
    rng = make_rng(21)
    price, stream = 100.0, []
    for i in range(_SCALE_WARMUP + 100):
        price += float(rng.normal())
        stream.append(Instance(x=np.zeros(1), y=price, index=i))
    model = AddExpRegressor(EmaForecaster(5))
    errors = [abs(model.process(inst) - inst.y) for inst in stream]
    assert errors[0] == stream[0].y
    assert model.scale.scale == max(errors[1:_SCALE_WARMUP + 1]) < 10.0
    assert model.drift_log and model.drift_log[0].index > 0


def test_addexp_accurate_expert_never_grows():
    model = AddExpRegressor(ConstantLearner(0.5), beta=0.5, tau=0.05,
                            error_scale=1.0)
    for inst in make_instances([0.5] * 100):
        model.process(inst)
    assert model.size == 1
    assert model.weights == [1.0]
    assert model.drift_log == []


def test_addexp_capacity_prunes_weakest():
    model = AddExpRegressor(ConstantLearner(0.0), beta=0.5, tau=0.05,
                            k_max=3, error_scale=1.0)
    for inst in make_instances([1.0] * 50):
        model.process(inst)
    assert model.size == 3
    assert len(model.weights) == 3
    assert len(model.drift_log) == 50


def test_addexp_weights_stay_positive_under_constant_misses():
    model = AddExpRegressor(ConstantLearner(0.0), beta=0.5, tau=0.05,
                            k_max=5, error_scale=1.0)
    for inst in make_instances([1.0] * 5000):
        model.process(inst)
    assert all(w > 0.0 and math.isfinite(w) for w in model.weights)


def test_addexp_losses_are_capped_at_one():
    # error 10x the scale still decays by beta^1, not beta^10
    model = AddExpRegressor(ConstantLearner(0.0), beta=0.5, tau=2.0,
                            error_scale=1.0)
    model.process(make_instances([10.0])[0])
    assert model.weights[0] == 0.5
    assert model.size == 1  # tau=2 is unreachable: loss capped at 1


def test_addexp_learns_after_drift():
    rng = make_rng(13)
    model = AddExpRegressor(SgdLinearRegressor(learning_rate=0.05),
                            beta=0.5, gamma=0.1, tau=0.1, k_max=10,
                            error_scale=1.0)
    stream = linear_drift_stream(rng, 6000, 3000)
    errors = [abs(model.process(inst) - inst.y) for inst in stream]
    assert len(model.drift_log) >= 1
    assert np.mean(errors[5500:]) < np.mean(errors[3000:3200])


def test_addexp_validation():
    with pytest.raises(ValueError):
        AddExpRegressor(ConstantLearner(0.0), beta=1.5)
    with pytest.raises(ValueError):
        AddExpRegressor(ConstantLearner(0.0), gamma=0.0)
    # the pool prunes before its newcomer joins, as the network ensemble does
    for k_max in (0, 1):
        with pytest.raises(ValueError, match=f"k_max must be at least 2, got {k_max}"):
            AddExpRegressor(ConstantLearner(0.0), k_max=k_max)
    AddExpRegressor(ConstantLearner(0.0), k_max=2)


@pytest.mark.parametrize("k_max", [2, 3, 10])
def test_addexp_sgd_bank_matches_the_object_path(k_max):
    # a wrapped prototype takes the per-object loop; on a stream whose
    # scale switches hard enough to clip the SGD steps, the array bank's
    # prune-and-add must give the same bytes. The running-max scale skips
    # the seed's first error, so the first newcomer joins at instance 1;
    # a fixed scale adds one at instance 0, beside the untrained seed.
    rng = make_rng(19)
    stream = [Instance(*hostile_instance(rng, t), index=t) for t in range(600)]
    for error_scale, first_addition in ((None, 1), (1e5, 0)):
        _, bank = check_ensemble(
            lambda p: AddExpRegressor(p, k_max=k_max, error_scale=error_scale), stream, 0.1,
            lambda model, inst: _assert_bank_storage(model, type(model.bank.prototype) is SgdLinearRegressor,
                                                     inst.index))
        assert bank.drift_log[0] == DriftEvent(first_addition)
        assert len(bank.drift_log) > k_max  # experts were pruned too


@pytest.mark.parametrize("prototype", [SgdLinearRegressor(), PassThrough(SgdLinearRegressor())],
                         ids=["sgd-bank", "object-bank"])
def test_expert_ids_count_the_drift_events_logged_when_they_joined(prototype):
    sfnr = ScaleFreeRegressor(prototype, SfnrConfig(mode="period", period=20, threshold=0.0,
                                                    k_max=3, error_scale=1.0), seed=3)
    addexp = AddExpRegressor(prototype, k_max=3, error_scale=1.0)
    for inst in noisy_instances(make_rng(18), 200, dim=3):
        for model in (sfnr, addexp):
            model.process(inst)
            ids = model.bank.ids
            assert all(0 <= v <= len(model.drift_log) for v in ids)
            assert ids[-1] == len(model.drift_log)  # the newest expert
        assert sfnr.bank.ids == sfnr.network.node_ids()
    assert len(sfnr.drift_log) > 3 and len(addexp.drift_log) > 3
