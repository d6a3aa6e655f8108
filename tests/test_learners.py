"""Base learner tests: EMA forecaster, online SGD, running mean."""

import math

import numpy as np
import pytest

from driftnet.learners import EmaForecaster, RunningMeanRegressor, SgdLinearRegressor
from driftnet.prng import make_rng

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
    ema = EmaForecaster()
    with pytest.raises(ValueError):
        ema.update(X0, float("nan"))


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


def test_sgd_rejects_non_finite():
    sgd = SgdLinearRegressor()
    with pytest.raises(ValueError):
        sgd.update(np.array([1.0, float("inf")]), 1.0)
    with pytest.raises(ValueError):
        sgd.update(np.array([1.0, 2.0]), float("nan"))


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
