"""Worker eviction / survival models (paper §4.1, Figs 2 and 3).

The paper characterises the non-dedicated cluster by the probability that
a worker is evicted as a function of the time it has already been
available (Fig 2, measured from months of HTCondor logs), and feeds three
scenarios into the task-size simulation (Fig 3):

* no eviction,
* a constant eviction probability of 0.1 (per availability bin),
* the empirically observed probability.

Each model exposes

``sample_survival(rng, size=None)``
    draw worker availability durations (seconds),

``hazard(age)``
    eviction probability within the next bin given survival to *age*.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "EvictionModel",
    "NoEviction",
    "ConstantHazardEviction",
    "WeibullEviction",
    "EmpiricalEviction",
    "DiurnalEviction",
    "binomial_errors",
    "eviction_probability_curve",
]

HOUR = 3600.0


class EvictionModel:
    """Interface for worker survival-time models."""

    def sample_survival(
        self,
        rng: np.random.Generator,
        size: Optional[int] = None,
        start: float = 0.0,
    ):
        """Draw survival time(s) in seconds for fresh workers.

        *start* is the wall-clock time the worker begins; stationary
        models ignore it, time-of-day models (:class:`DiurnalEviction`)
        do not.
        """
        raise NotImplementedError

    def hazard(self, age: float, bin_width: float = HOUR) -> float:
        """P(evicted within [age, age+bin_width) | alive at age)."""
        raise NotImplementedError


class NoEviction(EvictionModel):
    """Workers are never evicted (dedicated-cluster baseline)."""

    def sample_survival(self, rng, size=None, start=0.0):
        if size is None:
            return float("inf")
        return np.full(size, np.inf)

    def hazard(self, age: float, bin_width: float = HOUR) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NoEviction()"


class ConstantHazardEviction(EvictionModel):
    """Memoryless eviction: constant probability *p* per *bin_width*.

    This is the paper's "constant probability of 0.1" scenario.  The
    survival time is then exponential with rate
    ``-ln(1 - p) / bin_width``.
    """

    def __init__(self, probability: float = 0.1, bin_width: float = HOUR):
        if not 0 < probability < 1:
            raise ValueError("probability must lie strictly between 0 and 1")
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.probability = probability
        self.bin_width = bin_width
        self.rate = -np.log1p(-probability) / bin_width  # per second

    def sample_survival(self, rng, size=None, start=0.0):
        draws = rng.exponential(1.0 / self.rate, size)
        return draws

    def hazard(self, age: float, bin_width: float = HOUR) -> float:
        return float(1.0 - np.exp(-self.rate * bin_width))

    def __repr__(self) -> str:
        return f"ConstantHazardEviction(p={self.probability}/bin, bin={self.bin_width}s)"


class WeibullEviction(EvictionModel):
    """Weibull survival — models wear-in/wear-out style eviction.

    ``shape < 1`` yields a decreasing hazard: young workers are the most
    likely to be evicted (batch systems kill fresh gliders first when the
    owner's jobs return), matching the qualitative shape of the paper's
    Fig 2, where eviction probability falls with availability time.
    """

    def __init__(self, scale: float = 6 * HOUR, shape: float = 0.55):
        if scale <= 0 or shape <= 0:
            raise ValueError("scale and shape must be positive")
        self.scale = scale
        self.shape = shape

    def sample_survival(self, rng, size=None, start=0.0):
        return self.scale * rng.weibull(self.shape, size)

    def survival_function(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.exp(-np.power(np.maximum(t, 0.0) / self.scale, self.shape))

    def hazard(self, age: float, bin_width: float = HOUR) -> float:
        s_now = self.survival_function(age)
        s_next = self.survival_function(age + bin_width)
        if s_now <= 0:
            return 1.0
        return float(1.0 - s_next / s_now)

    def __repr__(self) -> str:
        return f"WeibullEviction(scale={self.scale}, shape={self.shape})"


class EmpiricalEviction(EvictionModel):
    """Survival model backed by observed availability intervals.

    Built from a trace of worker availability durations (seconds), as
    collected from months of Lobster runs in the paper.  Sampling uses
    the empirical distribution with linear interpolation between order
    statistics; the hazard is computed per availability bin exactly as in
    Fig 2: of the workers that survived to the start of a bin, which
    fraction was evicted within it.
    """

    def __init__(self, intervals: Sequence[float]):
        arr = np.sort(np.asarray(list(intervals), dtype=float))
        if arr.size == 0:
            raise ValueError("need at least one observed interval")
        if np.any(arr < 0):
            raise ValueError("availability intervals must be non-negative")
        self.intervals = arr

    @classmethod
    def from_trace(cls, trace) -> "EmpiricalEviction":
        """Build from a :class:`repro.batch.traces.AvailabilityTrace`."""
        return cls(trace.durations())

    def sample_survival(self, rng, size=None, start=0.0):
        n = self.intervals.size
        if size is None:
            q = rng.random()
            return float(np.interp(q * (n - 1), np.arange(n), self.intervals)) if n > 1 else float(self.intervals[0])
        q = rng.random(size)
        if n == 1:
            return np.full(size, self.intervals[0])
        return np.interp(q * (n - 1), np.arange(n), self.intervals)

    def hazard(self, age: float, bin_width: float = HOUR) -> float:
        alive = np.count_nonzero(self.intervals >= age)
        if alive == 0:
            return 1.0
        evicted = np.count_nonzero((self.intervals >= age) & (self.intervals < age + bin_width))
        return evicted / alive

    def __repr__(self) -> str:
        return f"EmpiricalEviction(n={self.intervals.size})"


class DiurnalEviction(EvictionModel):
    """Time-of-day-dependent eviction (campus clusters are busy by day).

    The paper's troubleshooting section observes that a non-dedicated
    system "is rarely in a constant state for more than a few hours at a
    time".  This model captures the dominant periodic cause: owners use
    their machines during working hours, so glide-ins die fast by day
    and survive by night.  The hazard is piecewise-constant per day/night
    phase; survival is sampled exactly by walking phase boundaries with
    exponential segments.
    """

    DAY = 86_400.0

    def __init__(
        self,
        day_probability: float = 0.3,
        night_probability: float = 0.05,
        day_start: float = 8 * HOUR,
        day_end: float = 18 * HOUR,
        bin_width: float = HOUR,
    ):
        for p in (day_probability, night_probability):
            if not 0 < p < 1:
                raise ValueError("probabilities must lie strictly between 0 and 1")
        if not 0 <= day_start < day_end <= self.DAY:
            raise ValueError("need 0 <= day_start < day_end <= 24h")
        self.day_rate = -np.log1p(-day_probability) / bin_width
        self.night_rate = -np.log1p(-night_probability) / bin_width
        self.day_start = day_start
        self.day_end = day_end
        self.day_probability = day_probability
        self.night_probability = night_probability
        self.bin_width = bin_width

    def _rate_at(self, t: float) -> float:
        tod = t % self.DAY
        return self.day_rate if self.day_start <= tod < self.day_end else self.night_rate

    def _next_boundary(self, t: float) -> float:
        tod = t % self.DAY
        day_base = t - tod
        for boundary in (self.day_start, self.day_end, self.DAY):
            if tod < boundary:
                return day_base + boundary
        return day_base + self.DAY  # pragma: no cover

    def _sample_one(self, rng, start: float) -> float:
        """Exact sampling of a piecewise-constant-hazard survival time."""
        t = start
        # Exponential thinning segment by segment: draw a unit-rate
        # exponential "budget" and spend it through the rate profile.
        budget = rng.exponential(1.0)
        while True:
            rate = self._rate_at(t)
            boundary = self._next_boundary(t)
            span = boundary - t
            cost = rate * span
            if cost >= budget:
                return (t + budget / rate) - start
            budget -= cost
            t = boundary

    def sample_survival(self, rng, size=None, start=0.0):
        if size is None:
            return self._sample_one(rng, start)
        return np.asarray([self._sample_one(rng, start) for _ in range(size)])

    def hazard(self, age: float, bin_width: float = HOUR) -> float:
        """Hazard for a worker that started at t=0, evaluated at *age*."""
        rate = self._rate_at(age)
        return float(1.0 - np.exp(-rate * bin_width))

    def __repr__(self) -> str:
        return (
            f"DiurnalEviction(day={self.day_probability}, "
            f"night={self.night_probability})"
        )


def binomial_errors(k: Union[int, np.ndarray], n: Union[int, np.ndarray]) -> np.ndarray:
    """Binomial-model uncertainty on the proportion k/n (paper Fig 2).

    Returns ``sqrt(p (1 - p) / n)`` with p = k/n; zero where n = 0.
    """
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, k / n, 0.0)
        err = np.where(n > 0, np.sqrt(p * (1.0 - p) / np.maximum(n, 1)), 0.0)
    return err


def eviction_probability_curve(
    intervals: Sequence[float],
    bin_width: float = HOUR,
    max_time: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fig 2: eviction probability vs availability time with binomial errors.

    For each availability bin ``[t, t + bin_width)`` the probability is
    the fraction of workers alive at *t* that were evicted within the
    bin.  Returns ``(bin_starts, probabilities, errors)``.
    """
    arr = np.asarray(list(intervals), dtype=float)
    if arr.size == 0:
        raise ValueError("empty interval set")
    horizon = max_time if max_time is not None else float(arr.max())
    edges = np.arange(0.0, horizon + bin_width, bin_width)
    starts = edges[:-1]
    probs = np.zeros_like(starts)
    errs = np.zeros_like(starts)
    for i, t in enumerate(starts):
        alive = np.count_nonzero(arr >= t)
        if alive == 0:
            probs[i] = 0.0
            errs[i] = 0.0
            continue
        evicted = np.count_nonzero((arr >= t) & (arr < t + bin_width))
        probs[i] = evicted / alive
        errs[i] = binomial_errors(evicted, alive)
    return starts, probs, errs
