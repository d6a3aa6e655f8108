"""Base learner tests: EMA forecaster, online SGD, running mean."""

import copy
import math

import numpy as np
import pytest

from driftnet.learners import EmaForecaster, ExpertBank, RunningMeanRegressor, SgdLinearRegressor, warm_start
from driftnet.prng import make_rng
from driftnet.streams import Instance
from test_twins import hostile_instance, learner_state

X0 = np.zeros(1)  # EMA and mean learners ignore features


def test_ema_worked_example():
    # EMA 10, next price 13, window 5: 13*(1/3) + 10*(2/3) = 11
    ema = EmaForecaster(window=5)
    ema.update(X0, 10.0)
    ema.update(X0, 13.0)
    assert ema.predict(X0) == 11.0


def test_ema_first_update_initializes():
    ema = EmaForecaster(window=5)
    assert ema.predict(X0) == 0.0
    ema.update(X0, 42.0)
    assert ema.predict(X0) == 42.0


def test_ema_window_controls_smoothing():
    fast = EmaForecaster(window=2)
    slow = EmaForecaster(window=50)
    for model in (fast, slow):
        model.update(X0, 0.0)
        for _ in range(10):
            model.update(X0, 1.0)
    assert fast.predict(X0) > slow.predict(X0)


def test_ema_validation():
    with pytest.raises(ValueError):
        EmaForecaster(window=0)


def test_ema_clone_fresh_is_untrained():
    ema = EmaForecaster(window=7)
    ema.update(X0, 5.0)
    clone = ema.clone_fresh()
    assert clone.window == 7
    assert clone.predict(X0) == 0.0
    assert ema.predict(X0) == 5.0


def test_sgd_untrained_predicts_zero():
    sgd = SgdLinearRegressor()
    assert sgd.predict(np.array([1.0, 2.0])) == 0.0


def test_sgd_converges_on_realizable_target():
    rng = make_rng(23)
    sgd = SgdLinearRegressor(learning_rate=0.01)
    w_true = np.array([0.7, -0.4, 0.2])
    errs = []
    for t in range(6000):
        x = rng.random(3)
        y = float(w_true @ x) + 0.1
        errs.append(sgd.predict(x) - y)
        sgd.update(x, y)
    tail_rmse = math.sqrt(np.mean(np.square(errs[-500:])))
    assert tail_rmse < 0.02


def test_sgd_tracks_a_shifted_target():
    rng = make_rng(29)
    sgd = SgdLinearRegressor(learning_rate=0.02)
    for t in range(12_000):
        x = rng.random(3)
        w = [0.5, 0.5, 0.0] if t < 6000 else [-0.5, 0.2, 0.8]
        sgd.update(x, float(np.dot(w, x)))
    errs = []
    for _ in range(300):
        x = rng.random(3)
        errs.append(sgd.predict(x) - float(np.dot([-0.5, 0.2, 0.8], x)))
    assert math.sqrt(np.mean(np.square(errs))) < 0.05


def test_sgd_dimension_mismatch_rejected():
    sgd = SgdLinearRegressor()
    sgd.update(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        sgd.update(np.array([1.0, 2.0, 3.0]), 1.0)
    with pytest.raises(ValueError):
        sgd.predict(np.array([1.0]))


def test_sgd_clone_replay_is_bit_identical():
    rng = make_rng(31)
    stream = [(rng.random(5), float(rng.random())) for _ in range(400)]
    a = SgdLinearRegressor(learning_rate=0.05)
    for x, y in stream:
        a.update(x, y)
    b = a.clone_fresh()
    assert b.n_updates == 0
    for x, y in stream:
        b.update(x, y)
    probe = rng.random(5)
    assert a.predict(probe) == b.predict(probe)
    assert np.array_equal(a.weights, b.weights)


def test_sgd_survives_a_million_hostile_updates():
    # scale explosions and constant features must not blow up the
    # standardization or the weights
    rng = make_rng(37)
    sgd = SgdLinearRegressor(learning_rate=0.1)
    x = np.empty(3)
    for t in range(1_000_000):
        scale = 1e6 if (t // 1000) % 7 == 0 else 1.0
        x[0] = rng.random() * scale
        x[1] = rng.random() - 0.5
        x[2] = 3.25  # zero-variance feature
        y = (rng.random() - 0.5) * scale
        sgd.update(x, y)
    assert np.all(np.isfinite(sgd.weights))
    assert math.isfinite(sgd.bias)
    assert math.isfinite(sgd.predict(np.array([1.0, 0.0, 3.25])))


class _Unclipped(SgdLinearRegressor):
    _GRAD_CLIP = math.inf


def _assert_bank_matches(bank, ref, x):
    assert bank.ids == list(ref)
    forecasts = np.array([learner.predict(x) for learner in ref.values()])
    assert np.array(bank.predict(x)).tobytes() == forecasts.tobytes()
    assert [learner_state(row) for row in bank.learners().values()] == list(map(learner_state, ref.values()))


def _step(bank, ref, x, y):
    """Train the bank and its scalar twins on (x, y), compared before and after."""
    _assert_bank_matches(bank, ref, x)
    bank.update(x, y)
    for learner in ref.values():
        learner.update(x, y)
    _assert_bank_matches(bank, ref, x)


@pytest.mark.parametrize("k_max", [2, 4])
def test_sgd_bank_is_byte_identical_to_scalar_learners(k_max):
    # every 60 instances: at capacity the middle row leaves; then an
    # expert joins, alternately untrained and warm-started on the last
    # 25 instances, so rows are removed, re-added and start from zero
    rng = make_rng(43)
    bank = ExpertBank(SgdLinearRegressor(0.1), k_max)
    ref: dict[int, SgdLinearRegressor] = {}
    history = []
    x, y = hostile_instance(rng, 0)
    for t in range(600):
        untrained = None
        if t == 0 or t % 60 == 30:
            if len(ref) == k_max:
                victim = bank.ids[len(bank.ids) // 2]
                bank.remove(victim)
                del ref[victim]
            fresh = SgdLinearRegressor(0.1)
            if t % 120 == 90:
                for xw, yw in history[-25:]:
                    fresh.update(xw, yw)
            else:
                untrained = t
            bank.append(t, copy.deepcopy(fresh))  # the bank owns what it is given
            ref[t] = fresh
        if untrained is not None:
            assert bank.predict(x)[-1] == 0.0
        _step(bank, ref, x, y)
        if untrained is not None:
            assert (bank.learners()[untrained]._inv_std == 1.0).all()
        history.append((x, y))
        x, y = hostile_instance(rng, t + 1)
    assert len(ref) == k_max
    # the stream is hostile enough that clipping changed the steps
    clipped, unclipped = SgdLinearRegressor(0.1), _Unclipped(0.1)
    for xw, yw in history[:30]:
        clipped.update(xw, yw)
        unclipped.update(xw, yw)
    assert clipped.bias != unclipped.bias


def test_sgd_bank_rejects_a_changed_dimension_and_a_full_bank():
    # the move into rows is sized from the instance forecast, and every
    # trained expert written into a row must have its width
    seed = SgdLinearRegressor()
    seed.update(np.array([1.0, 2.0]), 1.0)
    wide = SgdLinearRegressor()
    wide.update(np.zeros(3), 1.0)
    bank = ExpertBank(SgdLinearRegressor(), 3)
    bank.append(0, seed)
    bank.append(1, copy.deepcopy(wide))
    with pytest.raises(ValueError, match=r"feature dimension changed: expected 2, got \(3,\)"):
        bank.predict(np.array([1.0, 2.0]))
    assert bank._objects is not None  # the failed move leaves both objects
    bank.remove(1)
    bank.append(1, SgdLinearRegressor())
    bank.predict(np.array([1.0, 2.0]))
    assert bank._objects is None
    with pytest.raises(ValueError, match=r"feature dimension changed: expected 2, got \(3,\)"):
        bank.append(2, wide)
    assert bank.ids == [0, 1]
    bank.update(np.array([1.0, 2.0]), 1.0)
    for x in (np.array([1.0]), np.zeros(3)):  # update takes the x that predict checked
        with pytest.raises(ValueError, match="feature dimension changed"):
            bank.predict(x)
    bank.append(2, SgdLinearRegressor())
    with pytest.raises(ValueError, match="full"):
        bank.append(3, SgdLinearRegressor())
    # a bank of objects obeys the same capacity
    objects = ExpertBank(EmaForecaster(), 2)
    objects.append(0, EmaForecaster())
    objects.append(1, EmaForecaster())
    with pytest.raises(ValueError, match="bank is full at 2 experts"):
        objects.append(2, EmaForecaster())
    assert objects.ids == [0, 1]


def test_sgd_bank_moves_into_rows_at_its_first_forecast_with_two_experts():
    # one expert forecasts as an object; a second joining and training
    # leaves both objects, and the next forecast moves them into rows,
    # where a third joins straight into a row
    rng = make_rng(49)
    bank = ExpertBank(SgdLinearRegressor(0.1), 4)
    ref = {0: SgdLinearRegressor(0.1)}
    bank.append(0, SgdLinearRegressor(0.1))
    for t in range(80):
        x, y = hostile_instance(rng, t)
        if t == 40:
            bank.append(2, SgdLinearRegressor(0.1))  # straight into a row
            ref[2] = SgdLinearRegressor(0.1)
        _assert_bank_matches(bank, ref, x)
        if t == 20:
            bank.append(1, SgdLinearRegressor(0.1))  # between a forecast and its update
            ref[1] = SgdLinearRegressor(0.1)
        bank.update(x, y)
        for learner in ref.values():
            learner.update(x, y)
        assert (bank._objects is None) == (t > 20)
    _assert_bank_matches(bank, ref, x)


def test_sgd_bank_of_untrained_experts_moves_into_rows_at_its_first_forecast():
    # a fixed-size ensemble starts with k untrained experts: no expert has
    # a dimension, so the first instance forecast sizes the rows
    rng = make_rng(50)
    bank = ExpertBank(SgdLinearRegressor(0.1), 3)
    ref = {i: SgdLinearRegressor(0.1) for i in range(3)}
    for i in ref:
        bank.append(i, SgdLinearRegressor(0.1))
    for t in range(300):
        _step(bank, ref, *hostile_instance(rng, t))
        assert bank._objects is None


@pytest.mark.parametrize("capacity", [2, 3])
def test_sgd_bank_trainee_is_a_warm_start_without_the_replay(capacity):
    # a full bank trains a trainee in its extra row: dropped, it leaves
    # the experts' rows as they were; promoted after a middle expert
    # leaves, it equals a scalar learner warm-started on what it saw
    rng = make_rng(47)
    stream = [Instance(*hostile_instance(rng, t), index=t) for t in range(400)]
    bank = ExpertBank(SgdLinearRegressor(0.1), capacity)
    ref = {}
    for i in range(capacity):
        ref[i] = warm_start(SgdLinearRegressor(0.1), stream[:40 * (i + 1)])
        bank.append(i, copy.deepcopy(ref[i]))

    def run(instances):
        for inst in instances:
            _step(bank, ref, inst.x, inst.y)  # the trainee stays out of sight

    bank.open_trainee()
    run(stream[200:260])
    bank.drop_trainee()
    run(stream[260:280])
    bank.remove(0)
    del ref[0]
    bank.add_trained(capacity, stream[260:280])  # no trainee: a warm start
    ref[capacity] = warm_start(SgdLinearRegressor(0.1), stream[260:280])
    assert learner_state(bank.learners()[capacity]) == learner_state(ref[capacity])
    bank.open_trainee()
    window = stream[280:400]
    run(window)
    with pytest.raises(ValueError, match="full"):
        bank.add_trained(capacity + 1, window)
    victim = bank.ids[len(bank.ids) // 2]
    bank.remove(victim)  # at capacity 2 one expert is left on rows, beside the trainee
    del ref[victim]
    with pytest.raises(ValueError, match="a trainee holds the next row"):
        bank.append(capacity + 1, SgdLinearRegressor(0.1))
    with pytest.raises(ValueError, match="the trainee saw 120 instances but the window holds 119"):
        bank.add_trained(capacity + 1, window[1:])
    bank.add_trained(capacity + 1, window)
    ref[capacity + 1] = warm_start(SgdLinearRegressor(0.1), window)
    assert learner_state(bank.learners()[capacity + 1]) == learner_state(ref[capacity + 1])
    run(stream[:30])


def test_sgd_bank_of_one_opens_no_trainee():
    rng = make_rng(48)
    window = [Instance(*hostile_instance(rng, t), index=t) for t in range(50)]
    bank = ExpertBank(SgdLinearRegressor(0.1), 3)
    bank.append(0, SgdLinearRegressor(0.1))
    bank.open_trainee()
    for inst in window:
        bank.update(inst.x, inst.y)
    bank.add_trained(1, window)  # warm-started on the window instead
    assert learner_state(bank.learners()[1]) == learner_state(warm_start(SgdLinearRegressor(0.1), window))


def test_running_mean_is_exact():
    rng = make_rng(41)
    model = RunningMeanRegressor()
    assert model.predict(X0) == 0.0
    values = [float(v) for v in rng.normal(size=500)]
    for v in values:
        model.update(X0, v)
    assert model.predict(X0) == pytest.approx(math.fsum(values) / 500, abs=1e-12)


def test_running_mean_compensated_summation():
    # naive accumulation loses the small addend entirely
    model = RunningMeanRegressor()
    for v in (1e16, 1.0, -1e16):
        model.update(X0, v)
    assert model.predict(X0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_running_mean_clone_fresh():
    model = RunningMeanRegressor()
    model.update(X0, 5.0)
    assert model.clone_fresh().predict(X0) == 0.0
