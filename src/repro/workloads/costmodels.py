"""Per-iteration cost profiles.

Costs are in *work units*: the abstract quantity the performance model
converts to seconds through a core's execution rate (1 work unit ~ 1
second on a 1 GHz scalar baseline core for purely compute-bound code).

Each model generates the full cost vector of one loop invocation at
once (as one numpy array — the executor turns it into a prefix sum, making
chunk-cost lookups O(1)).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


class CostModel(abc.ABC):
    """Strategy generating per-iteration costs for a loop invocation."""

    @abc.abstractmethod
    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Cost vector for ``n`` iterations; all entries must be >= 0."""

    def mean_cost(self) -> float:
        """Analytic (or nominal) mean cost per iteration, used for
        calibration checks and reporting."""
        raise NotImplementedError

    def _check(self, costs: np.ndarray) -> np.ndarray:
        if costs.ndim != 1:
            raise WorkloadError("cost vector must be one-dimensional")
        if np.any(costs < 0):
            raise WorkloadError("negative iteration cost generated")
        return costs


@dataclass(frozen=True)
class UniformCost(CostModel):
    """Every iteration costs exactly ``work`` units (ideal static loops)."""

    work: float

    def __post_init__(self) -> None:
        if self.work < 0:
            raise WorkloadError("work must be >= 0")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._check(np.full(n, self.work))

    def mean_cost(self) -> float:
        return self.work


@dataclass(frozen=True)
class JitteredCost(CostModel):
    """Nominal cost with small multiplicative noise.

    Models loops whose iterations do "roughly the same" work (the paper's
    EP): uniform enough for static-style scheduling, but noisy enough
    that a sampled SF is never exactly representative — the effect behind
    AID-static's residual imbalance in Fig. 4a.

    Attributes:
        work: nominal cost.
        jitter: relative half-width of the noise (0.05 -> +/-5%).
        drift: linear trend across the iteration space; +0.1 makes the
            last iteration 10% dearer than the first (mean preserved).
    """

    work: float
    jitter: float = 0.05
    drift: float = 0.0

    def __post_init__(self) -> None:
        if self.work < 0:
            raise WorkloadError("work must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise WorkloadError("jitter must be in [0, 1)")
        if abs(self.drift) >= 2.0:
            raise WorkloadError("drift magnitude must be < 2")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        noise = rng.uniform(1.0 - self.jitter, 1.0 + self.jitter, size=n)
        if self.drift and n > 1:
            ramp = 1.0 + self.drift * (np.arange(n) / (n - 1) - 0.5)
        else:
            ramp = 1.0
        return self._check(self.work * noise * ramp)

    def mean_cost(self) -> float:
        return self.work


@dataclass(frozen=True)
class RampCost(CostModel):
    """Cost grows (or shrinks) linearly across the iteration space.

    Models the paper's particlefilter observation: "the final iterations
    in a long-running loop are more heavyweight computationally than the
    first iterations", which makes static(BS) *worse* than static(SB).
    """

    start_work: float
    end_work: float

    def __post_init__(self) -> None:
        if self.start_work < 0 or self.end_work < 0:
            raise WorkloadError("work must be >= 0")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n == 1:
            return self._check(np.array([(self.start_work + self.end_work) / 2.0]))
        return self._check(np.linspace(self.start_work, self.end_work, n))

    def mean_cost(self) -> float:
        return (self.start_work + self.end_work) / 2.0


@dataclass(frozen=True)
class LognormalCost(CostModel):
    """Heavy-tailed random costs (irregular loops: leukocyte, FT stages).

    Attributes:
        mean: target mean cost.
        sigma: log-space standard deviation (0.5-1.0 is markedly uneven).
    """

    mean: float
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.mean < 0:
            raise WorkloadError("mean must be >= 0")
        if self.sigma < 0:
            raise WorkloadError("sigma must be >= 0")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); solve mu for mean.
        if self.mean == 0.0:
            return self._check(np.zeros(n))
        mu = np.log(self.mean) - self.sigma**2 / 2.0
        return self._check(rng.lognormal(mu, self.sigma, size=n))

    def mean_cost(self) -> float:
        return self.mean


@dataclass(frozen=True)
class BimodalCost(CostModel):
    """Two cost classes mixed at random (branchy work-item loops: bfs
    frontier expansion, bodytrack particle weighting).

    Attributes:
        low_work: cost of cheap iterations.
        high_work: cost of expensive iterations.
        high_fraction: probability an iteration is expensive.
    """

    low_work: float
    high_work: float
    high_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.low_work < 0 or self.high_work < 0:
            raise WorkloadError("work must be >= 0")
        if not 0.0 <= self.high_fraction <= 1.0:
            raise WorkloadError("high_fraction must be in [0, 1]")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        heavy = rng.random(n) < self.high_fraction
        return self._check(np.where(heavy, self.high_work, self.low_work))

    def mean_cost(self) -> float:
        return (
            self.high_fraction * self.high_work
            + (1.0 - self.high_fraction) * self.low_work
        )
