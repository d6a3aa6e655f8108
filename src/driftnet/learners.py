"""Online regressors usable as ensemble experts.

Every learner satisfies the same small contract: ``predict(x)`` never
mutates state, ``update(x, y)`` consumes one instance in O(features),
and ``clone_fresh()`` returns an untrained learner with the same
configuration. The ensemble treats experts purely through this
interface, so heavier regressors can be plugged in later without
touching ensemble code. A bare learner also runs on its own through
the same ``process`` / ``size`` / ``drift_indices`` shape as the
ensembles.

Inputs are checked once, where the stream enters, not by each expert:
``x`` must be a finite 1-D float64 array and ``y`` a finite float, as
every ``streams.Instance`` holds. Only SGD guards the dimension, since
numpy would silently broadcast a length-1 ``x``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


class OnlineRegressor(ABC):
    """Contract for incremental regressors."""

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

    def drift_indices(self) -> list[int]:
        """Instance indices of evolution triggers: a bare learner has none."""
        return []


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
            raise ValueError("window must be positive")
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
