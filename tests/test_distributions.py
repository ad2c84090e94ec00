"""Tests for eviction models, samplers and RNG streams."""

import numpy as np
import pytest

from repro.distributions import (
    ConstantHazardEviction,
    DeterministicSampler,
    EmpiricalEviction,
    ExponentialSampler,
    LogNormalSampler,
    NoEviction,
    RngStream,
    TruncatedGaussianSampler,
    UniformSampler,
    WeibullEviction,
    binomial_errors,
    eviction_probability_curve,
    spawn_rngs,
)

HOUR = 3600.0


# ------------------------------------------------------------------ RNG
def test_rng_stream_reproducible():
    a = RngStream(42).random(5)
    b = RngStream(42).random(5)
    assert np.allclose(a, b)


def test_rng_stream_children_independent_and_stable():
    root = RngStream(7)
    c1 = root.child("eviction").random(3)
    c2 = RngStream(7).child("eviction").random(3)
    assert np.allclose(c1, c2)
    other = RngStream(7).child("network").random(3)
    assert not np.allclose(c1, other)


def test_spawn_rngs_distinct():
    gens = spawn_rngs(0, 4)
    draws = [g.random() for g in gens]
    assert len(set(draws)) == 4


# ------------------------------------------------------------------ eviction
def test_no_eviction_is_immortal():
    m = NoEviction()
    rng = np.random.default_rng(0)
    assert m.sample_survival(rng) == float("inf")
    assert np.all(np.isinf(m.sample_survival(rng, 10)))
    assert m.hazard(0) == 0.0
    assert m.hazard(1e9) == 0.0


def test_constant_hazard_matches_probability():
    m = ConstantHazardEviction(probability=0.1, bin_width=HOUR)
    # Hazard per hour equals the configured probability at any age.
    assert m.hazard(0) == pytest.approx(0.1)
    assert m.hazard(5 * HOUR) == pytest.approx(0.1)


def test_constant_hazard_survival_mean():
    m = ConstantHazardEviction(probability=0.1, bin_width=HOUR)
    rng = np.random.default_rng(1)
    samples = m.sample_survival(rng, 200_000)
    expected_mean = 1.0 / m.rate
    assert np.mean(samples) == pytest.approx(expected_mean, rel=0.02)


def test_constant_hazard_validates_probability():
    with pytest.raises(ValueError):
        ConstantHazardEviction(probability=0.0)
    with pytest.raises(ValueError):
        ConstantHazardEviction(probability=1.0)
    with pytest.raises(ValueError):
        ConstantHazardEviction(probability=0.5, bin_width=0)


def test_weibull_hazard_decreases_for_shape_below_one():
    m = WeibullEviction(scale=6 * HOUR, shape=0.55)
    h0 = m.hazard(0.5 * HOUR)
    h5 = m.hazard(5 * HOUR)
    h20 = m.hazard(20 * HOUR)
    assert h0 > h5 > h20


def test_weibull_samples_positive():
    m = WeibullEviction()
    rng = np.random.default_rng(2)
    s = m.sample_survival(rng, 1000)
    assert np.all(s >= 0)


def test_empirical_eviction_from_intervals():
    intervals = [1.0, 2.0, 3.0, 4.0, 100.0]
    m = EmpiricalEviction(intervals)
    rng = np.random.default_rng(3)
    s = m.sample_survival(rng, 1000)
    assert s.min() >= 1.0
    assert s.max() <= 100.0


def test_empirical_eviction_hazard():
    # 10 workers: 5 die in the first hour, 5 survive past it.
    intervals = [0.5 * HOUR] * 5 + [10 * HOUR] * 5
    m = EmpiricalEviction(intervals)
    assert m.hazard(0.0, bin_width=HOUR) == pytest.approx(0.5)
    # Given survival past the first hour, nobody dies in the second.
    assert m.hazard(HOUR, bin_width=HOUR) == pytest.approx(0.0)


def test_empirical_eviction_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        EmpiricalEviction([])
    with pytest.raises(ValueError):
        EmpiricalEviction([-1.0])


def test_binomial_errors_basic():
    assert binomial_errors(0, 100) == pytest.approx(0.0)
    assert binomial_errors(100, 100) == pytest.approx(0.0)
    assert binomial_errors(50, 100) == pytest.approx(0.05)
    assert binomial_errors(5, 0) == pytest.approx(0.0)  # empty bin


def test_eviction_probability_curve_shape():
    intervals = [0.5 * HOUR] * 50 + [5.5 * HOUR] * 50
    starts, probs, errs = eviction_probability_curve(intervals, bin_width=HOUR)
    assert starts[0] == 0.0
    assert probs[0] == pytest.approx(0.5)
    # Between hours 1 and 5, nobody is evicted.
    assert np.all(probs[1:5] == 0.0)
    # In hour 5, all the survivors go.
    assert probs[5] == pytest.approx(1.0)
    assert np.all(errs >= 0)


# ------------------------------------------------------------------ samplers
def test_deterministic_sampler():
    s = DeterministicSampler(42.0)
    rng = np.random.default_rng(0)
    assert s.sample(rng) == 42.0
    assert np.all(s.sample(rng, 5) == 42.0)
    assert s.mean() == 42.0


def test_truncated_gaussian_never_negative():
    s = TruncatedGaussianSampler(mu=600.0, sigma=300.0, low=0.0)
    rng = np.random.default_rng(0)
    draws = s.sample(rng, 50_000)
    assert np.all(draws >= 0)
    # Mean is slightly above mu due to truncation.
    assert s.mean() > 600.0
    assert np.mean(draws) == pytest.approx(s.mean(), rel=0.02)


def test_truncated_gaussian_reduces_to_gaussian_far_from_bound():
    s = TruncatedGaussianSampler(mu=1000.0, sigma=10.0, low=0.0)
    assert s.mean() == pytest.approx(1000.0, abs=0.1)


def _built_truncated_gaussians():
    """Every TruncatedGaussianSampler the simulator builds."""
    from repro.analysis.code import data_processing_code, simulation_code
    from repro.analysis.profiles import PROFILES
    from repro.batch.cloud import CloudProvider
    from repro.core.tasksize import TaskSizeConfig
    from repro.desim import Environment

    codes = [make() for make in PROFILES.values()]
    codes += [data_processing_code(), simulation_code()]
    samplers = {f"profile:{c.name}": c.per_event_cpu for c in codes}
    samplers["cloud.boot_delay"] = CloudProvider(Environment()).boot_delay
    samplers["tasksize.tasklet_time"] = TaskSizeConfig().tasklet_time
    assert all(isinstance(s, TruncatedGaussianSampler) for s in samplers.values())
    return samplers


@pytest.mark.parametrize("size", [None, 1, 1000])
@pytest.mark.parametrize("name", sorted(_built_truncated_gaussians()))
def test_truncated_gaussian_matches_the_frozen_distribution(name, size):
    """Sampling through truncnorm's class methods draws exactly what a
    frozen distribution per call drew, with the same type."""
    from scipy.stats import truncnorm

    s = _built_truncated_gaussians()[name]
    a = (s.low - s.mu) / s.sigma
    frozen = truncnorm(a=a, b=np.inf, loc=s.mu, scale=s.sigma)
    got = s.sample(np.random.default_rng(7), size)
    want = frozen.ppf(np.random.default_rng(7).random(size))
    assert type(got) is type(want)
    assert np.array_equal(got, want)
    assert s.mean() == float(frozen.mean())


def test_lognormal_mean():
    s = LogNormalSampler(mu=0.0, sigma=0.5)
    rng = np.random.default_rng(1)
    draws = s.sample(rng, 100_000)
    assert np.mean(draws) == pytest.approx(s.mean(), rel=0.02)


def test_exponential_sampler():
    s = ExponentialSampler(mean=30.0)
    rng = np.random.default_rng(2)
    assert np.mean(s.sample(rng, 100_000)) == pytest.approx(30.0, rel=0.02)


def test_uniform_sampler_bounds():
    s = UniformSampler(5.0, 10.0)
    rng = np.random.default_rng(3)
    draws = s.sample(rng, 1000)
    assert draws.min() >= 5.0
    assert draws.max() < 10.0
    assert s.mean() == 7.5


def test_sampler_validation():
    with pytest.raises(ValueError):
        DeterministicSampler(-1)
    with pytest.raises(ValueError):
        TruncatedGaussianSampler(0, 0)
    with pytest.raises(ValueError):
        ExponentialSampler(0)
    with pytest.raises(ValueError):
        UniformSampler(10, 5)


# ------------------------------------------------------------------ diurnal
def test_diurnal_validation():
    from repro.distributions import DiurnalEviction

    with pytest.raises(ValueError):
        DiurnalEviction(day_probability=0.0)
    with pytest.raises(ValueError):
        DiurnalEviction(day_start=10 * HOUR, day_end=5 * HOUR)


def test_diurnal_day_vs_night_survival():
    from repro.distributions import DiurnalEviction

    model = DiurnalEviction(day_probability=0.5, night_probability=0.02)
    rng = np.random.default_rng(0)
    # Workers starting at 9:00 face the busy day immediately; workers
    # starting at 19:00 get a calm night first.
    day_draws = model.sample_survival(rng, 3000, start=9 * HOUR)
    night_draws = model.sample_survival(rng, 3000, start=19 * HOUR)
    assert np.mean(night_draws) > 2 * np.mean(day_draws)


def test_diurnal_hazard_matches_phase():
    from repro.distributions import DiurnalEviction

    model = DiurnalEviction(day_probability=0.4, night_probability=0.05)
    assert model.hazard(9 * HOUR) == pytest.approx(0.4)
    assert model.hazard(2 * HOUR) == pytest.approx(0.05)
    # Next day repeats the pattern.
    assert model.hazard(33 * HOUR) == pytest.approx(0.4)


def test_diurnal_night_start_survives_until_morning():
    from repro.distributions import DiurnalEviction

    # Nights are essentially safe; days are lethal within the hour.
    model = DiurnalEviction(day_probability=0.999, night_probability=0.001)
    rng = np.random.default_rng(1)
    draws = model.sample_survival(rng, 2000, start=18 * HOUR)
    # Most survive the 14-hour night then die quickly after 8:00.
    surviving_night = np.mean(draws > 13 * HOUR)
    assert surviving_night > 0.9
    assert np.mean(draws < 16 * HOUR) > 0.9


def test_diurnal_statistical_consistency():
    """Mean survival starting at day-start matches the analytic phase mix."""
    from repro.distributions import DiurnalEviction

    model = DiurnalEviction(day_probability=0.3, night_probability=0.3)
    # Equal day/night probabilities reduce to a constant hazard model.
    const = ConstantHazardEviction(0.3)
    rng = np.random.default_rng(2)
    a = model.sample_survival(rng, 20_000, start=0.0)
    b = const.sample_survival(np.random.default_rng(2), 20_000)
    assert np.mean(a) == pytest.approx(np.mean(b), rel=0.05)


def test_diurnal_in_condor_pool():
    """The pool passes the worker's start time to the model."""
    from repro.batch import CondorPool, GlideinRequest, MachinePool
    from repro.desim import Environment, Interrupt
    from repro.distributions import DiurnalEviction

    env = Environment()
    machines = MachinePool.homogeneous(env, 10, cores=8)
    model = DiurnalEviction(day_probability=0.95, night_probability=0.01)
    pool = CondorPool(env, machines, eviction=model, seed=4)

    def payload(slot):
        def run():
            try:
                yield env.timeout(1e9)
            except Interrupt:
                pass

        return run()

    pool.submit(
        GlideinRequest(n_workers=10, start_interval=0.0, resubmit=False), payload
    )
    # Start at midnight: workers should survive the night (8 h) and be
    # culled during the next working day.
    env.run(until=48 * HOUR)
    durations = pool.trace.durations()
    assert len(durations) == 10
    assert np.median(durations) > 7 * HOUR
    assert np.median(durations) < 18 * HOUR
