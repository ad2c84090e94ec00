"""Samplers for task durations, overheads, and file sizes.

The paper's task-size study (§4.1) models tasklet completion times as
Gaussian with mean 10 minutes and sigma 5 minutes; we truncate at zero so
no negative durations are drawn.  All samplers share a tiny interface so
workload definitions can mix and match.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = [
    "Sampler",
    "DeterministicSampler",
    "TruncatedGaussianSampler",
    "LogNormalSampler",
    "ExponentialSampler",
    "UniformSampler",
]

ArrayOrFloat = Union[float, np.ndarray]


class Sampler:
    """Interface: draw positive values (durations in seconds, sizes in bytes)."""

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayOrFloat:
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic or approximate mean of the distribution."""
        raise NotImplementedError


class DeterministicSampler(Sampler):
    """Always returns *value*; useful for tests and controlled benches."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("value must be non-negative")
        self.value = float(value)

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"DeterministicSampler({self.value})"


class TruncatedGaussianSampler(Sampler):
    """Gaussian(mu, sigma) truncated below at *low* (resampled, not clipped).

    Sampling uses the inverse-CDF restricted to the surviving mass, so a
    single vectorised draw suffices (no rejection loop).
    """

    def __init__(self, mu: float, sigma: float, low: float = 0.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.low = float(low)

    # Both methods call truncnorm's class methods: freezing a distribution
    # builds a new instance per call, several times the cost of the draw.
    def sample(self, rng, size=None):
        from scipy.stats import truncnorm

        a = (self.low - self.mu) / self.sigma
        # truncnorm.ppf is vectorised; feed uniform draws from our rng so
        # reproducibility is controlled by the caller's generator.
        u = rng.random(size)
        return truncnorm.ppf(u, a, np.inf, loc=self.mu, scale=self.sigma)

    def mean(self) -> float:
        from scipy.stats import truncnorm

        a = (self.low - self.mu) / self.sigma
        return float(truncnorm.mean(a, np.inf, loc=self.mu, scale=self.sigma))

    def __repr__(self) -> str:
        return f"TruncatedGaussianSampler(mu={self.mu}, sigma={self.sigma}, low={self.low})"


class LogNormalSampler(Sampler):
    """Log-normal parameterised by the mean/sigma of the *underlying* normal."""

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, self.sigma, size)

    def mean(self) -> float:
        return float(np.exp(self.mu + self.sigma**2 / 2))

    def __repr__(self) -> str:
        return f"LogNormalSampler(mu={self.mu}, sigma={self.sigma})"


class ExponentialSampler(Sampler):
    """Exponential with the given *mean*."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = float(mean)

    def sample(self, rng, size=None):
        return rng.exponential(self._mean, size)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"ExponentialSampler(mean={self._mean})"


class UniformSampler(Sampler):
    """Uniform on [low, high)."""

    def __init__(self, low: float, high: float):
        if high <= low:
            raise ValueError("high must exceed low")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng, size=None):
        return rng.uniform(self.low, self.high, size)

    def mean(self) -> float:
        return (self.low + self.high) / 2

    def __repr__(self) -> str:
        return f"UniformSampler({self.low}, {self.high})"
