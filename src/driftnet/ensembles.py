"""Ensemble regressors over the expert network, plus the AddExp baseline.

The network ensemble holds one online learner per graph node and
predicts the centrality-weighted mean of the expert forecasts:

    H(x) = sum_d zeta_d h_d(x) / sum_k zeta_k

falling back to the plain mean when every weight is zero (possible
under betweenness on tiny graphs). The ensemble evolves, instead of
retraining wholesale, whenever its evolution trigger fires:

* period mode: every ``period`` instances the accumulated ensemble RMSE
  is compared against ``threshold``;
* adwin mode: the normalized absolute ensemble error feeds an adaptive-
  windowing detector, and its cuts are the triggers.

An evolution step removes the worst expert (only when the network is at
capacity), rewires, trains a fresh expert on the recent instance
buffer, attaches it preferentially, and recomputes all vote weights.
Vote weights change only at evolutions.

AddExp is the comparison baseline: a weighted expert pool with
multiplicative weight decay beta^loss and loss-triggered expert
addition, pruning the weakest expert at capacity.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

from .adwin import Adwin
from .learners import OnlineRegressor
from .network import ExpertNetwork
from .prng import make_rng
from .streams import Instance

logger = logging.getLogger(__name__)

_WEIGHT_FLOOR_REL = 1e-12


class ErrorScale:
    """Normalizer mapping raw absolute errors into [0, 1].

    Either a fixed known scale (for synthetic streams the target range
    is known in advance) or a running maximum over the first ``warmup``
    observed errors, frozen afterwards so one late outlier cannot
    rescale history. The warm-up lasts until some error is nonzero, so
    an all-zero start cannot freeze the scale at 0.
    """

    def __init__(self, fixed: float | None = None, warmup: int = 500):
        if fixed is not None and fixed <= 0:
            raise ValueError("fixed scale must be positive")
        if warmup < 1:
            raise ValueError("warmup must be positive")
        self.fixed = fixed
        self.warmup = warmup
        self._running_max = 0.0
        self._observed = 0

    @property
    def scale(self) -> float:
        return self.fixed if self.fixed is not None else self._running_max

    def observe(self, error: float) -> None:
        if self.fixed is not None:
            return
        if self._observed < self.warmup or self._running_max == 0.0:
            self._running_max = max(self._running_max, abs(error))
            self._observed += 1

    def normalize(self, error: float) -> float:
        s = self.scale
        if s <= 0.0:
            return 0.0
        return abs(error) / s


@dataclass(frozen=True)
class DriftEvent:
    """One evolution of a model, as recorded in its ``drift_log``.

    ``index`` is the instance that triggered it; the widths describe
    the detector cut and are None for period triggers and AddExp
    additions.
    """

    index: int
    width_before: int | None = None
    width_after: int | None = None


@dataclass
class SfnrConfig:
    """Parameters of the network ensemble.

    ``mode`` picks the evolution trigger; the other mode's parameters
    are simply ignored. ``error_scale`` of None selects the frozen
    running-max normalizer. ``metric``, ``m_a``, ``delta`` and
    ``error_scale`` are checked by the components built from them.
    """

    metric: str = "eigenvector"
    k_max: int = 10
    m_a: int = 2
    mode: str = "adwin"
    period: int = 1000
    threshold: float = 0.08
    delta: float = 0.1
    buffer_size: int = 500
    error_scale: float | None = None
    adwin_capacity: int = 5000
    adwin_check_interval: int = 32

    def validate(self) -> None:
        if self.mode not in ("period", "adwin"):
            raise ValueError(f"mode must be 'period' or 'adwin', got {self.mode!r}")
        if self.k_max < 1 or self.buffer_size < 1:
            raise ValueError("k_max and buffer_size must be positive")
        if self.mode == "period" and self.period < 1:
            raise ValueError("period must be positive")
        if self.mode == "period" and self.threshold < 0:
            raise ValueError("threshold must be non-negative")


class ScaleFreeRegressor:
    """Dynamically sized, network-organized ensemble regressor."""

    def __init__(self, prototype: OnlineRegressor, config: SfnrConfig | None = None,
                 seed: int = 0):
        self.config = config if config is not None else SfnrConfig()
        self.config.validate()
        self.prototype = prototype
        self.rng = make_rng(seed)
        self.network = ExpertNetwork(m_a=self.config.m_a)
        self.learners: dict[int, OnlineRegressor] = {}
        self._next_id = 0
        self.buffer: deque[Instance] = deque(maxlen=self.config.buffer_size)
        self.drift_log: list[DriftEvent] = []
        self.instances_seen = 0
        self.scale = ErrorScale(self.config.error_scale)
        self.detector: Adwin | None = None
        self._period_sq_sum = 0.0
        self._period_count = 0
        if self.config.mode == "adwin":
            self.detector = Adwin(
                delta=self.config.delta,
                capacity=self.config.adwin_capacity,
                check_interval=self.config.adwin_check_interval,
            )
        self._add_expert([])

    @property
    def size(self) -> int:
        return len(self.network)

    def _predict_all(self, x) -> tuple[float, dict[int, float]]:
        ids = self.network.node_ids()
        preds: dict[int, float] = {}
        weighted = 0.0
        weight_total = 0.0
        plain = 0.0
        for v in ids:
            h = self.learners[v].predict(x)
            preds[v] = h
            zeta = self.network.nodes[v].zeta
            weighted += zeta * h
            weight_total += zeta
            plain += h
        if weight_total > 0.0:
            return weighted / weight_total, preds
        return plain / len(ids), preds

    def predict(self, x) -> float:
        """Centrality-weighted ensemble forecast (no state change)."""
        return self._predict_all(x)[0]

    def process(self, instance: Instance) -> float:
        """Test-then-train one instance; returns the pre-train forecast."""
        x, y = instance.x, instance.y
        forecast, preds = self._predict_all(x)
        for v, h in preds.items():
            self.network.nodes[v].record_error(h - y)
            self.learners[v].update(x, y)
        self.buffer.append(instance)
        fired = self._trigger(forecast - y, instance.index)
        if fired is not None:
            self._evolve(*fired)
        self.instances_seen += 1
        return forecast

    def _trigger(self, diff: float, index: int) -> tuple[list[Instance], DriftEvent] | None:
        """Feed one ensemble error to the evolution trigger.

        Returns the training window and the event when the trigger
        fires, otherwise None.
        """
        if self.config.mode == "adwin":
            error = abs(diff)
            self.scale.observe(error)
            if not self.detector.add(self.scale.normalize(error)):
                return None
            width_before, width_after = self.detector.last_cut
            depth = min(width_after, len(self.buffer))
            window = list(self.buffer)[len(self.buffer) - depth:]
            return window, DriftEvent(index, width_before, width_after)
        self._period_sq_sum += diff * diff
        self._period_count += 1
        if self._period_count < self.config.period:
            return None
        period_rmse = math.sqrt(self._period_sq_sum / self._period_count)
        window = list(self.buffer)
        self.buffer.clear()
        self._period_sq_sum = 0.0
        self._period_count = 0
        return (window, DriftEvent(index)) if period_rmse > self.config.threshold else None

    def _evolve(self, training_window: list[Instance], event: DriftEvent) -> None:
        """Replace capacity-worst expert (if at capacity) with a fresh one."""
        if len(self.network) >= self.config.k_max:
            victim = self.network.worst_node()
            self.network.remove_node(victim, self.rng)
            del self.learners[victim]
        if not training_window:
            logger.warning("evolution at %d with an empty training window; "
                           "adding an untrained expert", event.index)
        self._add_expert(training_window)
        self.drift_log.append(event)

    def _add_expert(self, training_window: list[Instance]) -> None:
        """Warm-start a fresh expert on the window, attach it, and reweigh the vote."""
        fresh = self.prototype.clone_fresh()
        for inst in training_window:
            fresh.update(inst.x, inst.y)
        self.network.add_node(self._next_id, self.rng)
        self.learners[self._next_id] = fresh
        self._next_id += 1
        for node_id, zeta in self.network.centrality(self.config.metric).items():
            self.network.nodes[node_id].zeta = zeta


class AddExpRegressor:
    """Additive-expert baseline with multiplicative weight decay.

    Per instance: predict the weight-averaged forecast, decay each
    expert's weight by beta^loss (loss clamped into [0,1] by the shared
    error scale), add a fresh expert carrying gamma times the current
    total weight whenever the ensemble's own normalized loss exceeds
    tau (pruning the weakest expert at capacity), then train everyone.
    Each addition is logged in ``drift_log`` as a ``DriftEvent``.
    Weights are floored at a tiny fraction of the total so a hopeless
    expert decays to irrelevance without ever underflowing to zero.
    """

    def __init__(self, prototype: OnlineRegressor, beta: float = 0.5, gamma: float = 0.1,
                 tau: float = 0.05, max_experts: int = 10, error_scale: float | None = None):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if gamma <= 0 or tau <= 0:
            raise ValueError("gamma and tau must be positive")
        if max_experts < 1:
            raise ValueError("max_experts must be positive")
        self.prototype = prototype
        self.beta = beta
        self.gamma = gamma
        self.tau = tau
        self.max_experts = max_experts
        self.scale = ErrorScale(error_scale)
        self.experts: list[OnlineRegressor] = [prototype.clone_fresh()]
        self.weights: list[float] = [1.0]
        self.drift_log: list[DriftEvent] = []

    @property
    def size(self) -> int:
        return len(self.experts)

    def _vote(self, forecasts) -> float:
        return math.fsum(w * h for w, h in zip(self.weights, forecasts)) / math.fsum(self.weights)

    def predict(self, x) -> float:
        return self._vote(e.predict(x) for e in self.experts)

    def process(self, instance: Instance) -> float:
        x, y = instance.x, instance.y
        forecasts = [e.predict(x) for e in self.experts]
        prediction = self._vote(forecasts)
        self.scale.observe(abs(prediction - y))
        for i, h in enumerate(forecasts):
            loss = min(self.scale.normalize(h - y), 1.0)
            self.weights[i] *= self.beta ** loss
        self._guard_weights()
        ensemble_loss = min(self.scale.normalize(prediction - y), 1.0)
        if ensemble_loss > self.tau:
            if len(self.experts) == self.max_experts:
                weakest = min(range(len(self.weights)), key=lambda i: (self.weights[i], i))
                del self.experts[weakest]
                del self.weights[weakest]
            self.experts.append(self.prototype.clone_fresh())
            self.weights.append(self.gamma * math.fsum(self.weights))
            self.drift_log.append(DriftEvent(instance.index))
        for expert in self.experts:
            expert.update(x, y)
        return prediction

    def _guard_weights(self) -> None:
        total = math.fsum(self.weights)
        if not math.isfinite(total) or total <= 0.0:
            self.weights = [1.0 / len(self.weights)] * len(self.weights)
            return
        if total < 1e-12 or total > 1e12:
            self.weights = [w / total for w in self.weights]
            total = 1.0
        floor = total * _WEIGHT_FLOOR_REL
        self.weights = [w if w > floor else floor for w in self.weights]
