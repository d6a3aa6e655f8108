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
its own ``predict`` and ``update``, and ``SgdBank`` once per call for
all of its rows.

An ensemble holds its experts in a bank (``expert_bank``): ``SgdBank``
keeps the experts of a plain ``SgdLinearRegressor`` prototype as rows of
arrays and steps them together; ``ObjectBank`` loops over learner
objects for every other prototype.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


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
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self.n_updates = 0
        self.weights: np.ndarray | None = None
        self.bias = 0.0
        self._mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def _standardized(self, x: np.ndarray) -> np.ndarray:
        # writes into the scratch buffer; callers must not keep the ref
        out = self._scratch
        np.subtract(x, self._mean, out=out)
        np.multiply(out, self._inv_std, out=out)
        return out

    def predict(self, x) -> float:
        if self.n_updates == 0:
            return 0.0
        if x.shape != self._mean.shape:
            raise ValueError(f"feature dimension changed: expected {self._mean.shape[0]}, got {x.shape}")
        xs = self._standardized(x)
        return float(self.weights @ xs) + self.bias

    def update(self, x, y: float) -> None:
        if self.n_updates == 0:
            d = x.shape[0]
            self.weights = np.zeros(d)
            self._mean = np.zeros(d)
            self._m2 = np.zeros(d)
            self._inv_std = np.ones(d)
            self._scratch = np.empty(d)
        elif x.shape != self._mean.shape:
            raise ValueError(f"feature dimension changed: expected {self._mean.shape[0]}, got {x.shape}")
        self.n_updates += 1
        n = self.n_updates
        delta = x - self._mean
        self._mean += delta / n
        self._m2 += delta * (x - self._mean)
        if n >= 2:
            var = self._m2 / (n - 1)
            np.maximum(var, self._VAR_FLOOR, out=var)
            np.divide(1.0, np.sqrt(var, out=var), out=self._inv_std)
        xs = self._standardized(x)
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


class ObjectBank:
    """An ensemble's experts as learner objects, one call per expert.

    ``ids`` is ascending, the order of ``ExpertNetwork.node_ids()``;
    ``predict`` returns the forecasts in that order. Works for any
    ``OnlineRegressor``.
    """

    def __init__(self, learners: dict[int, OnlineRegressor] | None = None):
        self.ids: list[int] = []
        self._learners: list[OnlineRegressor] = []
        for expert_id in sorted(learners or {}):
            self.append(expert_id, learners[expert_id])

    def append(self, expert_id: int, learner: OnlineRegressor) -> None:
        _check_new_id(self.ids, expert_id)
        self.ids.append(expert_id)
        self._learners.append(learner)

    def remove(self, expert_id: int) -> None:
        i = self.ids.index(expert_id)
        del self.ids[i]
        del self._learners[i]

    def predict(self, x) -> list[float]:
        return [learner.predict(x) for learner in self._learners]

    def update(self, x, y: float) -> None:
        for learner in self._learners:
            learner.update(x, y)

    def learners(self) -> dict[int, OnlineRegressor]:
        """The experts by id; these are the live objects."""
        return dict(zip(self.ids, self._learners))

    def open_trainee(self) -> None:
        """No-op: an object bank trains a newcomer only when it joins."""

    def drop_trainee(self) -> None:
        """No-op: an object bank holds no trainee."""

    def add_trained(self, expert_id: int, prototype: OnlineRegressor, window) -> None:
        """Add a fresh ``prototype`` clone warm-started on the instances of ``window``."""
        self.append(expert_id, warm_start(prototype, window))


class SgdBank:
    """The experts of an ``SgdLinearRegressor`` ensemble as rows of arrays.

    Row i holds expert ``ids[i]``: its weights and Welford mean, M2 and
    inverse standard deviation (k x d), its bias and its update count
    (k). ``predict`` and ``update`` apply the scalar learner's
    operations to every row at once, in the same order, so each row
    stays byte-equal to the learner it stands for. Every step is
    elementwise except the dot products, and ``np.vecdot`` calls the
    same BLAS dot per row as ``w @ x``; a sum over ``W * xs`` would
    round differently.

    A bank of one expert is that scalar learner itself: on one row the
    array step costs about twice the scalar one, and an ensemble that
    never evolves keeps one expert for the whole stream. Rows take over
    when a second expert joins and keep the experts from then on: an
    ensemble is back to one expert only at ``k_max = 2``, between a
    removal and the addition that follows it. Buffers hold
    ``capacity + 1`` rows and are allocated on the first trained row or
    the first update on rows, since d is unknown before. The dimension
    is checked once per call for all rows.

    The extra row holds the trainee, a newcomer that learns its
    warm-start window while the window arrives. ``open_trainee`` starts
    it untrained in the row above the experts, and ``update`` trains it
    in the same step as them; ``predict`` and ``learners`` never see it.
    ``add_trained`` makes it the next expert with no replay, and
    ``drop_trainee`` discards it; ``remove`` shifts it down with the
    rows above the victim. The scalar learner of a bank of one opens no
    trainee, so there ``add_trained`` warm-starts a learner on the
    window instead.
    """

    def __init__(self, prototype: SgdLinearRegressor, capacity: int):
        self.learning_rate = prototype.learning_rate
        self.capacity = capacity
        self.ids: list[int] = []
        self._single: SgdLinearRegressor | None = None  # the expert while there is one
        self._trainee = False  # row len(ids) trains a newcomer
        self._d: int | None = None
        self._untrained = False  # some row has count 0 (its next update keeps inv_std)

    def _allocate(self, d: int) -> None:
        c = self.capacity + 1  # a full bank and its trainee
        self._d = d
        self._w = np.zeros((c, d))
        self._mean = np.zeros((c, d))
        self._m2 = np.zeros((c, d))
        self._inv_std = np.ones((c, d))
        self._bias = np.zeros(c)
        self._count = np.zeros(c)
        self._xs = np.empty((c, d))
        self._tmp = np.empty((c, d))
        self._g = np.empty(c)
        self._s = np.empty(c)
        self._untrained = True
        self._view()

    def _view(self) -> None:
        # row views of the k experts (predict) and of them plus a pending
        # trainee (update), rebuilt when either changes
        if self._d is None:
            return
        k = len(self.ids)
        self._live = (self._w[:k], self._bias[:k], self._mean[:k], self._inv_std[:k],
                      self._xs[:k], self._g[:k])
        n = k + self._trainee
        self._rows = (self._w[:n], self._bias[:n], self._mean[:n], self._m2[:n], self._inv_std[:n],
                      self._count[:n], self._count[:n, None], self._xs[:n], self._tmp[:n],
                      self._g[:n], self._g[:n, None], self._s[:n])

    def _check(self, x) -> None:
        if x.shape != (self._d,):
            raise ValueError(f"feature dimension changed: expected {self._d}, got {x.shape}")

    def _check_room(self, expert_id: int) -> None:
        _check_new_id(self.ids, expert_id)
        if len(self.ids) == self.capacity:
            raise ValueError(f"bank is full at {self.capacity} experts")

    def append(self, expert_id: int, learner: SgdLinearRegressor) -> None:
        """Add ``learner`` as the last expert; the bank owns it from now on.

        A bank of one keeps the learner; beyond one, its state is copied
        into a row.
        """
        self._check_room(expert_id)
        if self._trainee:
            raise ValueError("a trainee holds the next row; add it or drop it first")
        k = len(self.ids)
        if k == 0:
            self._single = learner
        else:
            if self._single is not None:
                self._write_row(0, self._single)
                self._single = None
            self._write_row(k, learner)
        self.ids.append(expert_id)
        self._view()

    def _write_row(self, i: int, learner: SgdLinearRegressor) -> None:
        if learner.n_updates:
            d = learner.weights.shape[0]
            if self._d is None:
                self._allocate(d)
            elif d != self._d:
                raise ValueError(f"feature dimension changed: expected {self._d}, got {(d,)}")
            self._w[i] = learner.weights
            self._bias[i] = learner.bias
            self._mean[i] = learner._mean
            self._m2[i] = learner._m2
            self._inv_std[i] = learner._inv_std
            self._count[i] = learner.n_updates
        else:
            self._clear_row(i)

    def _clear_row(self, i: int) -> None:
        # an untrained learner's state; unallocated buffers start that way
        if self._d is not None:
            self._w[i] = self._bias[i] = self._mean[i] = self._m2[i] = self._count[i] = 0.0
            self._inv_std[i] = 1.0
            self._untrained = True

    def remove(self, expert_id: int) -> None:
        """Drop the expert; the rows above its row, a trainee's too, shift down one."""
        i = self.ids.index(expert_id)
        top = len(self.ids) + self._trainee
        del self.ids[i]
        if self._single is not None:
            self._single = None
        elif self._d is not None:
            for a in (self._w, self._bias, self._mean, self._m2, self._inv_std, self._count):
                a[i:top - 1] = a[i + 1:top]
        self._view()

    def open_trainee(self) -> None:
        """Start an untrained newcomer above the experts; a scalar learner opens none.

        Opening again restarts the trainee.
        """
        if self._single is not None or not self.ids:
            return
        self._trainee = True
        self._clear_row(len(self.ids))
        self._view()

    def drop_trainee(self) -> None:
        """Discard a pending trainee; the experts are untouched."""
        if self._trainee:
            self._trainee = False
            self._view()

    def add_trained(self, expert_id: int, prototype: SgdLinearRegressor, window) -> None:
        """Add a newcomer trained on the instances of ``window``.

        A pending trainee has seen exactly those instances and becomes
        the expert as it is; otherwise a fresh ``prototype`` clone is
        warm-started on them.
        """
        if not self._trainee:
            self.append(expert_id, warm_start(prototype, window))
            return
        self._check_room(expert_id)
        k = len(self.ids)
        seen = int(self._count[k]) if self._d is not None else 0
        if seen != len(window):
            raise ValueError(f"the trainee saw {seen} instances but the window holds {len(window)}")
        self._trainee = False
        self.ids.append(expert_id)
        self._view()

    def predict(self, x) -> list[float]:
        if self._single is not None:
            return [self._single.predict(x)]
        if self._d is None:
            return [0.0] * len(self.ids)
        self._check(x)
        w, bias, mean, inv_std, xs, g = self._live
        np.subtract(x, mean, out=xs)
        np.multiply(xs, inv_std, out=xs)
        np.vecdot(w, xs, out=g)
        g += bias
        return g.tolist()

    def update(self, x, y: float) -> None:
        if self._single is not None:
            self._single.update(x, y)
            return
        if self._d is None:
            self._allocate(x.shape[0])
        else:
            self._check(x)
        w, bias, mean, m2, inv_std, n, n_col, xs, tmp, g, g_col, s = self._rows
        n += 1.0
        np.subtract(x, mean, out=tmp)  # delta
        np.divide(tmp, n_col, out=xs)
        mean += xs
        np.subtract(x, mean, out=xs)
        np.multiply(tmp, xs, out=tmp)
        m2 += tmp
        np.subtract(n, 1.0, out=g)
        if self._untrained:
            np.maximum(g, 1.0, out=g)  # rows at their first update, masked out below
        np.divide(m2, g_col, out=tmp)
        np.maximum(tmp, SgdLinearRegressor._VAR_FLOOR, out=tmp)
        np.sqrt(tmp, out=tmp)
        if self._untrained:
            np.divide(1.0, tmp, out=inv_std, where=n_col >= 2.0)
            self._untrained = False
        else:
            np.divide(1.0, tmp, out=inv_std)
        xs *= inv_std
        np.vecdot(w, xs, out=g)
        g += bias
        g -= y
        g *= 2.0
        np.vecdot(xs, xs, out=s)
        s += 1.0
        np.sqrt(s, out=s)
        s *= np.abs(g)  # gradient norm
        # clip factor: _GRAD_CLIP / norm above the cap, exactly 1.0 at or below it or for nan
        np.fmax(s, SgdLinearRegressor._GRAD_CLIP, out=s)
        np.divide(SgdLinearRegressor._GRAD_CLIP, s, out=s)
        g *= s
        g *= self.learning_rate  # step
        np.multiply(xs, g_col, out=xs)
        w -= xs
        bias -= g

    def learners(self) -> dict[int, SgdLinearRegressor]:
        """The experts by id: the single learner, or copies of the rows."""
        if self._single is not None:
            return {self.ids[0]: self._single}
        return {expert_id: self._learner(i) for i, expert_id in enumerate(self.ids)}

    def _learner(self, i: int) -> SgdLinearRegressor:
        learner = SgdLinearRegressor(self.learning_rate)
        if self._d is None or self._count[i] == 0:
            return learner
        learner.n_updates = int(self._count[i])
        learner.weights = self._w[i].copy()
        learner.bias = float(self._bias[i])
        learner._mean = self._mean[i].copy()
        learner._m2 = self._m2[i].copy()
        learner._inv_std = self._inv_std[i].copy()
        learner._scratch = np.empty(self._d)
        return learner


def warm_start(prototype: OnlineRegressor, window) -> OnlineRegressor:
    """A fresh ``prototype`` clone trained on the instances of ``window`` in order."""
    learner = prototype.clone_fresh()
    for inst in window:
        learner.update(inst.x, inst.y)
    return learner


def _check_new_id(ids: list[int], expert_id: int) -> None:
    if ids and expert_id <= ids[-1]:
        raise ValueError(f"expert ids must be appended in increasing order: {expert_id} after {ids[-1]}")


def expert_bank(prototype: OnlineRegressor, capacity: int) -> ObjectBank | SgdBank:
    """Empty bank for an ensemble of ``prototype`` clones, at most ``capacity`` of them.

    Exactly ``SgdLinearRegressor`` gets the array bank; any other
    learner, subclasses included, gets the object loop.
    """
    if capacity < 2:
        raise ValueError(f"k_max must be at least 2, got {capacity}: an evolution at "
                         "capacity retires an expert only beside its replacement")
    if type(prototype) is SgdLinearRegressor:
        return SgdBank(prototype, capacity)
    return ObjectBank()
