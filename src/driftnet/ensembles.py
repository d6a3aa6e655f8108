"""Ensemble regressors over the expert network, plus the AddExp baseline.

The network ensemble holds one online expert per graph node, in an
expert bank (``learners.ExpertBank``), and predicts the
centrality-weighted mean of the expert forecasts:

    H(x) = sum_d zeta_d h_d(x) / sum_k zeta_k

falling back to the plain mean when every weight is zero (possible
under betweenness on tiny graphs). One pass over the experts per
instance sums the vote and hands each expert's error to its node's
error window. The ensemble evolves, instead of
retraining wholesale, whenever its evolution trigger fires:

* period mode: every ``period`` instances the accumulated ensemble RMSE
  is compared against ``threshold``;
* adwin mode: the normalized absolute ensemble error feeds an adaptive-
  windowing detector, and its cuts are the triggers.

An evolution step removes the worst expert (only when the network is at
capacity), rewires, trains a fresh expert on the recent instance
buffer, attaches it preferentially, and recomputes all vote weights.
Vote weights change only at evolutions.

AddExp is the comparison baseline: a weighted expert pool, in a bank as
well, with multiplicative weight decay beta^loss and loss-triggered
expert addition, pruning the weakest expert at capacity. Both ensembles
build ``ExpertBank(prototype, k_max)``, so both hold at most ``k_max``
experts (at least 2), and both name an expert by the number of drift
events logged when it joined.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .adwin import Adwin
from .learners import ExpertBank, OnlineRegressor
from .network import ExpertNetwork
from .prng import make_rng
from .streams import Instance

_WEIGHT_FLOOR_REL = 1e-12
_SCALE_WARMUP = 500


class ErrorScale:
    """Normalizer mapping raw absolute errors into [0, 1].

    Either a fixed known scale (for synthetic streams the target range
    is known in advance) or a running maximum over the first
    ``_SCALE_WARMUP`` observed errors, frozen afterwards so one late
    outlier cannot rescale history. The first error given is skipped:
    both ensembles start from one untrained seed expert, and its first
    forecast (an EMA's 0 against a price near 100) says nothing about
    the stream. The warm-up lasts until some error is nonzero, so an
    all-zero start cannot freeze the scale at 0.
    """

    def __init__(self, fixed: float | None = None):
        if fixed is not None and not 0 < fixed < math.inf:
            raise ValueError(f"error_scale must be {'positive' if fixed <= 0 else 'finite'}, got {fixed}")
        self.fixed = fixed
        self._running_max = 0.0
        self._observed = -1  # errors taken into the max; the first is skipped

    @property
    def scale(self) -> float:
        return self.fixed if self.fixed is not None else self._running_max

    def observe(self, error: float) -> None:
        if self.fixed is not None:
            return
        if self._observed < _SCALE_WARMUP or self._running_max == 0.0:
            if self._observed >= 0:
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
    running-max normalizer of ``ErrorScale``. ``metric``, ``k_max``,
    ``m_a``, ``delta`` and ``error_scale`` are checked by the components
    built from them.
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
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be positive")
        if self.mode == "period" and self.period < 1:
            raise ValueError("period must be positive")
        if self.mode == "period" and not 0 <= self.threshold < math.inf:
            raise ValueError(f"threshold must be {'non-negative' if self.threshold < 0 else 'finite'}")


class ScaleFreeRegressor:
    """Dynamically sized, network-organized ensemble regressor."""

    def __init__(self, prototype: OnlineRegressor, config: SfnrConfig | None = None,
                 seed: int = 0):
        self.config = config if config is not None else SfnrConfig()
        self.config.validate()
        self.prototype = prototype
        self.rng = make_rng(seed)
        self.network = ExpertNetwork(m_a=self.config.m_a)
        self.bank = ExpertBank(prototype, self.config.k_max)
        self.buffer: deque[Instance] = deque(maxlen=self.config.buffer_size)
        self.drift_log: list[DriftEvent] = []
        self.instances_seen = 0
        self.scale = ErrorScale(self.config.error_scale)
        self.detector: Adwin | None = None
        self._period_sq_sum = 0.0
        self._period_count = 0
        # period position where the training window opens; the bank may
        # train the newcomer from there on instead of replaying the window
        self._trainee_at = -1
        if self.config.mode == "period":
            self._trainee_at = max(0, self.config.period - self.config.buffer_size)
        else:
            self.detector = Adwin(
                delta=self.config.delta,
                capacity=self.config.adwin_capacity,
                check_interval=self.config.adwin_check_interval,
            )
        self._add_expert([])

    @property
    def size(self) -> int:
        return len(self.network)

    @property
    def learners(self) -> dict[int, OnlineRegressor]:
        """The experts by node id; a bank on rows answers with copies of them."""
        return self.bank.learners()

    @learners.setter
    def learners(self, learners: dict[int, OnlineRegressor]) -> None:
        self.bank = ExpertBank(self.prototype, self.config.k_max)
        for expert_id in sorted(learners):
            self.bank.append(expert_id, learners[expert_id])

    def _vote(self, x, y: float | None = None) -> float:
        """Centrality-weighted forecast; given the target ``y``, also record each expert's error."""
        preds = self.bank.predict(x)
        nodes = self.network.nodes
        weighted = 0.0
        weight_total = 0.0
        for v, h in zip(self.bank.ids, preds):
            node = nodes[v]
            zeta = node.zeta
            weighted += zeta * h
            weight_total += zeta
            if y is not None:
                node.record_error(h - y)
        if weight_total > 0.0:
            return weighted / weight_total
        plain = 0.0
        for h in preds:
            plain += h
        return plain / len(preds)

    def predict(self, x) -> float:
        """Centrality-weighted ensemble forecast (no state change)."""
        return self._vote(x)

    def process(self, instance: Instance) -> float:
        """Test-then-train one instance; returns the pre-train forecast."""
        x, y = instance.x, instance.y
        forecast = self._vote(x, y)
        if self._period_count == self._trainee_at:
            self.bank.open_trainee()
        self.bank.update(x, y)
        self.buffer.append(instance)
        fired = self._trigger(forecast - y, instance.index)
        if fired is not None:
            self._evolve(*fired)
        self.instances_seen += 1
        return forecast

    def _trigger(self, diff: float, index: int) -> tuple[list[Instance], DriftEvent] | None:
        """Feed one ensemble error to the evolution trigger.

        Returns the training window, never empty as it ends with the
        current instance, and the event when the trigger fires, else None.
        """
        if self.config.mode == "adwin":
            if not math.isfinite(diff):  # kept from scale and detector; the runner names the forecast
                return None
            self.scale.observe(diff)
            if not self.detector.add(self.scale.normalize(diff)):
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
        if period_rmse > self.config.threshold:
            return window, DriftEvent(index)
        self.bank.drop_trainee()
        return None

    def _evolve(self, training_window: list[Instance], event: DriftEvent) -> None:
        """Log the event and replace capacity-worst expert (if at capacity) with a fresh one."""
        self.drift_log.append(event)
        if len(self.network) >= self.config.k_max:
            victim = self.network.worst_node()
            self.network.remove_node(victim, self.rng)
            self.bank.remove(victim)
        self._add_expert(training_window)

    def _add_expert(self, training_window: list[Instance]) -> None:
        """Add an expert trained on the window, attach it, and reweigh the vote."""
        expert_id = len(self.drift_log)
        self.bank.add_trained(expert_id, training_window)
        self.network.add_node(expert_id, self.rng)
        for node_id, zeta in self.network.centrality(self.config.metric).items():
            self.network.nodes[node_id].zeta = zeta


class AddExpRegressor:
    """Additive-expert baseline with multiplicative weight decay.

    Per instance: predict the weight-averaged forecast, decay each
    expert's weight by beta^loss (loss clamped into [0,1] by the shared
    error scale), add a fresh expert carrying gamma times the current
    total weight whenever the ensemble's own normalized loss exceeds
    tau (pruning the weakest expert once ``k_max`` experts are in the
    pool), then train everyone.
    Each addition is logged in ``drift_log`` as a ``DriftEvent``.
    Weights are floored at a tiny fraction of the total so a hopeless
    expert decays to irrelevance without ever underflowing to zero.
    """

    def __init__(self, prototype: OnlineRegressor, beta: float = 0.5, gamma: float = 0.1,
                 tau: float = 0.05, k_max: int = 10, error_scale: float | None = None):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not (0 < gamma < math.inf and 0 < tau < math.inf):
            raise ValueError(f"gamma and tau must be {'positive' if min(gamma, tau) <= 0 else 'finite'}")
        self.beta = beta
        self.gamma = gamma
        self.tau = tau
        self.scale = ErrorScale(error_scale)
        self.bank = ExpertBank(prototype, k_max)
        self.bank.add_trained(0, ())
        self.weights: list[float] = [1.0]
        self.drift_log: list[DriftEvent] = []

    @property
    def size(self) -> int:
        return len(self.weights)

    def _vote(self, forecasts) -> float:
        return math.fsum(w * h for w, h in zip(self.weights, forecasts)) / math.fsum(self.weights)

    def predict(self, x) -> float:
        return self._vote(self.bank.predict(x))

    def process(self, instance: Instance) -> float:
        x, y = instance.x, instance.y
        forecasts = self.bank.predict(x)
        prediction = self._vote(forecasts)
        self.scale.observe(abs(prediction - y))
        for i, h in enumerate(forecasts):
            loss = min(self.scale.normalize(h - y), 1.0)
            self.weights[i] *= self.beta ** loss
        self._guard_weights()
        ensemble_loss = min(self.scale.normalize(prediction - y), 1.0)
        if ensemble_loss > self.tau:
            self.drift_log.append(DriftEvent(instance.index))
            if len(self.weights) == self.bank.capacity:
                weakest = min(range(len(self.weights)), key=lambda i: (self.weights[i], i))
                self.bank.remove(self.bank.ids[weakest])
                del self.weights[weakest]
            self.bank.add_trained(len(self.drift_log), ())
            self.weights.append(self.gamma * math.fsum(self.weights))
        self.bank.update(x, y)
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
