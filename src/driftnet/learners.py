"""Online regressors usable as ensemble experts.

Every learner satisfies the same small contract: ``predict(x)`` never
mutates state, ``update(x, y)`` consumes one instance in O(features),
and ``clone_fresh()`` returns an untrained learner with the same
configuration. Any learner meeting it can serve as an ensemble expert
without touching ensemble code. A bare learner also runs on its own through
the same ``process`` / ``size`` / ``drift_log`` shape as the ensembles.

Inputs are checked once, where the stream enters, not by each expert:
``x`` must be a finite 1-D float64 array and ``y`` a finite float, as
every ``streams.Instance`` holds. Only SGD guards the dimension, since
numpy would silently broadcast a length-1 ``x``: the scalar learner in
its own ``predict`` and ``update``, and ``ExpertBank`` once per call for
all of its rows.

An ensemble holds its experts in an ``ExpertBank``: learner objects, one
call per expert, until a plain ``SgdLinearRegressor`` bank forecasts an
instance with two or more; from then on rows of arrays, stepped
together.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


def _check_dimension(x: np.ndarray, d: int) -> None:
    """Raise ValueError unless ``x`` holds ``d`` features."""
    if x.shape != (d,):
        raise ValueError(f"feature dimension changed: expected {d}, got {x.shape}")


class OnlineRegressor(ABC):
    """Contract for incremental regressors."""

    # evolution record shared with the ensembles: a bare learner never evolves
    drift_log = ()

    @abstractmethod
    def predict(self, x) -> float:
        """Forecast the target for ``x`` without changing state."""

    @abstractmethod
    def update(self, x, y: float) -> None:
        """Absorb one (x, y) observation; x must be finite 1-D float64, y a finite float."""

    @abstractmethod
    def clone_fresh(self) -> "OnlineRegressor":
        """New untrained learner of the same kind and configuration."""

    def process(self, instance) -> float:
        """Test-then-train one instance; returns the pre-train forecast."""
        prediction = self.predict(instance.x)
        self.update(instance.x, instance.y)
        return prediction

    @property
    def size(self) -> int:
        """Experts in the model: a bare learner is one."""
        return 1


class EmaForecaster(OnlineRegressor):
    """Exponential moving average of the observed targets.

    The forecast for the next instance is the running EMA of the target
    sequence: after seeing price p the state moves by
    (p - EMA) * 2/(w+1). Features are ignored entirely, which makes the
    learner a natural fit for next-price forecasting where only the
    price history matters. Predicts 0 until the first update.
    """

    def __init__(self, window: int = 5):
        if window < 1:
            raise ValueError(f"EMA window must be positive, got {window}")
        self.window = int(window)
        self.multiplier = 2.0 / (window + 1)
        self.current: float | None = None

    def predict(self, x) -> float:
        return 0.0 if self.current is None else self.current

    def update(self, x, y: float) -> None:
        if self.current is None:
            self.current = y
        else:
            self.current += (y - self.current) * self.multiplier

    def clone_fresh(self) -> "EmaForecaster":
        return EmaForecaster(self.window)


class SgdLinearRegressor(OnlineRegressor):
    """Linear model trained by per-instance stochastic gradient descent.

    Features are standardized with running mean/variance statistics
    (variance floored at ``_VAR_FLOOR``) before the dot product, so
    wildly scaled inputs such as trade volumes cannot blow up the step
    size. Each update refreshes the standardization statistics first,
    then takes one gradient step on the squared loss: with
    g = 2 (prediction - y), the gradient is g times the standardized
    input for the weights and g for the bias. Its norm is capped at
    ``_GRAD_CLIP`` so a pathological early step cannot seed weight
    overflow.
    """

    _VAR_FLOOR = 1e-8
    _GRAD_CLIP = 100.0

    def __init__(self, learning_rate: float = 0.01):
        if not 0 < learning_rate < math.inf:
            raise ValueError(f"learning_rate must be {'positive' if learning_rate <= 0 else 'finite'}")
        self.learning_rate = float(learning_rate)
        self.n_updates = 0
        self.weights: np.ndarray | None = None
        self.bias = 0.0
        self._mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None

    def predict(self, x) -> float:
        if self.n_updates == 0:
            return 0.0
        _check_dimension(x, self._mean.shape[0])
        return float(self.weights @ ((x - self._mean) * self._inv_std)) + self.bias

    def update(self, x, y: float) -> None:
        if self.n_updates == 0:
            d = x.shape[0]
            self.weights = np.zeros(d)
            self._mean = np.zeros(d)
            self._m2 = np.zeros(d)
            self._inv_std = np.ones(d)
        else:
            _check_dimension(x, self._mean.shape[0])
        self.n_updates += 1
        n = self.n_updates
        delta = x - self._mean
        self._mean += delta / n
        self._m2 += delta * (x - self._mean)
        if n >= 2:
            self._inv_std = 1.0 / np.sqrt(np.maximum(self._m2 / (n - 1), self._VAR_FLOOR))
        xs = (x - self._mean) * self._inv_std
        g = 2.0 * (float(self.weights @ xs) + self.bias - y)
        gnorm = abs(g) * math.sqrt(float(xs @ xs) + 1.0)
        if gnorm > self._GRAD_CLIP:
            g *= self._GRAD_CLIP / gnorm
        step = self.learning_rate * g
        self.weights -= step * xs
        self.bias -= step

    def clone_fresh(self) -> "SgdLinearRegressor":
        return SgdLinearRegressor(self.learning_rate)


class RunningMeanRegressor(OnlineRegressor):
    """Predicts the running mean of every target seen so far.

    Uses Neumaier-compensated summation: the rounding error of every
    addition is banked in a side term and folded back in at read time,
    so even sums whose partial totals dwarf individual addends stay
    exact. Mostly a test and baseline learner.
    """

    def __init__(self):
        self._sum = 0.0
        self._compensation = 0.0
        self._count = 0

    def predict(self, x) -> float:
        if self._count == 0:
            return 0.0
        return (self._sum + self._compensation) / self._count

    def update(self, x, y: float) -> None:
        total = self._sum + y
        if abs(self._sum) >= abs(y):
            self._compensation += (self._sum - total) + y
        else:
            self._compensation += (y - total) + self._sum
        self._sum = total
        self._count += 1

    def clone_fresh(self) -> "RunningMeanRegressor":
        return RunningMeanRegressor()


class ExpertBank:
    """An ensemble's experts, at most ``capacity`` of them, in ascending id order.

    ``ids`` is ascending, the order of ``ExpertNetwork.node_ids()``;
    ``predict`` returns the forecasts in that order. Every newcomer is a
    clone of ``prototype``. The experts are learner objects, one call
    per expert, until a bank whose prototype is exactly
    ``SgdLinearRegressor`` is asked to ``predict`` with two or more;
    from then on they are rows of arrays, for good. The experts of any
    other prototype, subclasses and wrappers included, stay objects. On
    one row the array step costs more than twice the scalar one, and an
    ensemble that never evolves keeps one expert for the whole stream.

    Row i holds expert ``ids[i]``: its weights and Welford mean, M2 and
    inverse standard deviation (k x d), its bias and its update count
    (k). ``predict`` and ``update`` apply the scalar learner's
    operations to every row at once, in the same order, so each row
    stays byte-equal to the learner it stands for. Every step is
    elementwise except the dot products, and ``np.vecdot`` calls the
    same BLAS dot per row as ``w @ x``; a sum over ``W * xs`` would
    round differently. The six state arrays hold ``capacity + 1`` rows
    and are allocated once, at the move into rows, from the dimension of
    the instance forecast; a step's intermediates are its own arrays,
    not kept between calls. The dimension is checked once per ``predict``
    for all rows, which ``update`` then trusts, and once per trained
    learner written into a row.

    The extra row holds the trainee, a newcomer that learns its
    warm-start window while the window arrives. ``open_trainee`` starts
    it untrained in the row above the experts, and ``update`` trains it
    in the same step as them; ``predict`` and ``learners`` never see it.
    ``add_trained`` makes it the next expert with no replay, and
    ``drop_trainee`` discards it; ``remove`` shifts it down with the
    rows above the victim. Objects open no trainee, so there
    ``add_trained`` warm-starts a learner on the window instead.
    """

    MAX_CAPACITY = 10 ** 4  # rows allocated at the first forecast, so a capacity is capped before they are

    def __init__(self, prototype: OnlineRegressor, capacity: int):
        if capacity < 2:
            raise ValueError(f"k_max must be at least 2, got {capacity}: an evolution at "
                             "capacity retires an expert only beside its replacement")
        if capacity > self.MAX_CAPACITY:
            raise ValueError(f"k_max must be at most {self.MAX_CAPACITY:_}, got {capacity}")
        self.prototype = prototype
        self.capacity = capacity
        self.ids: list[int] = []
        self._objects: list[OnlineRegressor] | None = []  # None once the experts are rows
        # the rows' learning rate; None for a bank whose experts stay objects
        self.learning_rate = prototype.learning_rate if type(prototype) is SgdLinearRegressor else None
        self._trainee = False  # row len(ids) trains a newcomer

    def _into_rows(self, d: int) -> None:
        # the one allocation, sized from the first instance forecast by two
        # or more experts
        c = self.capacity + 1  # a full bank and its trainee
        self._d = d
        self._w = np.zeros((c, d))
        self._mean = np.zeros((c, d))
        self._m2 = np.zeros((c, d))
        self._inv_std = np.ones((c, d))
        self._bias = np.zeros(c)
        self._count = np.zeros(c)
        self._untrained = False  # some row has count 0 (its next update keeps inv_std)
        for i, learner in enumerate(self._objects):
            self._write_row(i, learner)
        self._objects = None
        self._view()

    def _view(self) -> None:
        # row views of the k experts (predict) and of them plus a pending
        # trainee (update), rebuilt when either changes; update's count and
        # bias are columns, to broadcast against the k x d rows
        k = len(self.ids)
        self._live = (self._w[:k], self._bias[:k], self._mean[:k], self._inv_std[:k])
        n = k + self._trainee
        self._rows = (self._w[:n], self._bias[:n, None], self._mean[:n], self._m2[:n], self._inv_std[:n],
                      self._count[:n, None])

    def _check_room(self, expert_id: int) -> None:
        if self.ids and expert_id <= self.ids[-1]:
            raise ValueError(f"expert ids must be appended in increasing order: "
                             f"{expert_id} after {self.ids[-1]}")
        if len(self.ids) == self.capacity:
            raise ValueError(f"bank is full at {self.capacity} experts")

    def append(self, expert_id: int, learner: OnlineRegressor) -> None:
        """Add ``learner`` as the last expert; the bank owns it from now on.

        On rows the learner's state is copied into a row; otherwise the
        bank keeps it.
        """
        self._check_room(expert_id)
        if self._trainee:
            raise ValueError("a trainee holds the next row; add it or drop it first")
        if self._objects is None:
            self._write_row(len(self.ids), learner)
            self.ids.append(expert_id)
            self._view()
        else:
            self.ids.append(expert_id)
            self._objects.append(learner)

    def _write_row(self, i: int, learner: SgdLinearRegressor) -> None:
        if learner.n_updates:
            _check_dimension(learner.weights, self._d)
            self._w[i] = learner.weights
            self._bias[i] = learner.bias
            self._mean[i] = learner._mean
            self._m2[i] = learner._m2
            self._inv_std[i] = learner._inv_std
            self._count[i] = learner.n_updates
        else:
            self._clear_row(i)

    def _clear_row(self, i: int) -> None:
        # an untrained learner's state
        self._w[i] = self._bias[i] = self._mean[i] = self._m2[i] = self._count[i] = 0.0
        self._inv_std[i] = 1.0
        self._untrained = True

    def remove(self, expert_id: int) -> None:
        """Drop the expert; the rows above its row, a trainee's too, shift down one."""
        i = self.ids.index(expert_id)
        top = len(self.ids) + self._trainee
        del self.ids[i]
        if self._objects is not None:
            del self._objects[i]
            return
        for a in (self._w, self._bias, self._mean, self._m2, self._inv_std, self._count):
            a[i:top - 1] = a[i + 1:top]
        self._view()

    def open_trainee(self) -> None:
        """Start an untrained newcomer above the rows; objects open none.

        Opening again restarts the trainee.
        """
        if self._objects is not None:
            return
        self._trainee = True
        self._clear_row(len(self.ids))
        self._view()

    def drop_trainee(self) -> None:
        """Discard a pending trainee; the experts are untouched."""
        if self._trainee:
            self._trainee = False
            self._view()

    def add_trained(self, expert_id: int, window) -> None:
        """Add a newcomer trained on the instances of ``window``.

        A pending trainee has seen exactly those instances and becomes
        the expert as it is; otherwise a fresh ``prototype`` clone is
        warm-started on them.
        """
        if not self._trainee:
            self.append(expert_id, warm_start(self.prototype, window))
            return
        self._check_room(expert_id)
        k = len(self.ids)
        seen = int(self._count[k])
        if seen != len(window):
            raise ValueError(f"the trainee saw {seen} instances but the window holds {len(window)}")
        self._trainee = False
        self.ids.append(expert_id)
        self._view()

    def predict(self, x) -> list[float]:
        objects = self._objects
        if objects is not None:
            if self.learning_rate is None or len(objects) < 2:
                return [learner.predict(x) for learner in objects]
            self._into_rows(x.shape[0])
        _check_dimension(x, self._d)
        w, bias, mean, inv_std = self._live
        return (np.vecdot(w, (x - mean) * inv_std) + bias).tolist()

    def update(self, x, y: float) -> None:
        """Train every expert on (x, y); ``x`` is the one ``predict`` just took and checked."""
        if self._objects is not None:
            for learner in self._objects:
                learner.update(x, y)
            return
        w, bias, mean, m2, inv_std, n = self._rows
        n += 1.0
        delta = x - mean
        mean += delta / n
        xs = x - mean
        m2 += delta * xs
        divisor = n - 1.0
        if self._untrained:
            np.maximum(divisor, 1.0, out=divisor)  # rows at their first update, masked out below
        std = np.sqrt(np.maximum(m2 / divisor, SgdLinearRegressor._VAR_FLOOR))
        if self._untrained:
            np.divide(1.0, std, out=inv_std, where=n >= 2.0)
            self._untrained = False
        else:
            np.divide(1.0, std, out=inv_std)
        xs *= inv_std
        g = np.vecdot(w, xs, keepdims=True)
        g += bias
        g -= y
        g *= 2.0
        norm = np.vecdot(xs, xs, keepdims=True)
        norm += 1.0
        np.sqrt(norm, out=norm)
        norm *= np.abs(g)
        # clip factor: _GRAD_CLIP / norm above the cap, exactly 1.0 at or below it or for nan
        np.fmax(norm, SgdLinearRegressor._GRAD_CLIP, out=norm)
        g *= SgdLinearRegressor._GRAD_CLIP / norm
        g *= self.learning_rate  # step
        xs *= g
        w -= xs
        bias -= g

    def learners(self) -> dict[int, OnlineRegressor]:
        """The experts by id: the live objects, or copies of the rows."""
        if self._objects is not None:
            return dict(zip(self.ids, self._objects))
        return {expert_id: self._learner(i) for i, expert_id in enumerate(self.ids)}

    def _learner(self, i: int) -> SgdLinearRegressor:
        learner = SgdLinearRegressor(self.learning_rate)
        if self._count[i] == 0:
            return learner
        learner.n_updates = int(self._count[i])
        learner.weights = self._w[i].copy()
        learner.bias = float(self._bias[i])
        learner._mean = self._mean[i].copy()
        learner._m2 = self._m2[i].copy()
        learner._inv_std = self._inv_std[i].copy()
        return learner


def warm_start(prototype: OnlineRegressor, window) -> OnlineRegressor:
    """A fresh ``prototype`` clone trained on the instances of ``window`` in order."""
    learner = prototype.clone_fresh()
    for inst in window:
        learner.update(inst.x, inst.y)
    return learner
