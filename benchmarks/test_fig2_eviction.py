"""Fig 2 — Worker eviction probability vs availability time.

Paper: probability of worker eviction as a function of its availability
time, from physics analysis runs over several months, with binomial
uncertainties.  We regenerate it from the synthetic multi-month
availability trace (and check that a live CondorPool trace produces the
same reduction path).

Shape targets: hazard is highest for young workers and falls with
availability time; binomial errors grow as the surviving population
shrinks.
"""

import numpy as np

from repro.batch import (
    CondorPool,
    GlideinRequest,
    MachinePool,
    synthetic_availability_trace,
)
from repro.desim import Environment, Interrupt
from repro.distributions import EmpiricalEviction, WeibullEviction
from repro.scenarios import HOUR

from _scenarios import save_output


def record_live_trace(n_workers=300, until=200 * HOUR):
    """The other half of the Fig 2 pipeline: a live pool's own log."""
    env = Environment()
    machines = MachinePool.homogeneous(env, n_workers, cores=8)
    pool = CondorPool(env, machines, eviction=WeibullEviction(), seed=2)

    def payload(slot):
        def run():
            try:
                yield env.timeout(1e12)
            except Interrupt:
                pass

        return run()

    pool.submit(
        GlideinRequest(n_workers=n_workers, start_interval=0.0), payload
    )
    env.run(until=until)
    pool.drain()
    return pool.trace


def run_experiment():
    trace = synthetic_availability_trace(n_workers=20_000, seed=42)
    starts, probs, errs = trace.eviction_curve(bin_width=HOUR, max_time=24 * HOUR)
    model = EmpiricalEviction.from_trace(trace)
    live = record_live_trace()
    return trace, starts, probs, errs, model, live


def test_fig2_eviction_probability(benchmark):
    trace, starts, probs, errs, model, live = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    lines = ["# Fig 2: eviction probability vs availability time",
             "# hours  P(evict)  +-err"]
    for t, p, e in zip(starts, probs, errs):
        lines.append(f"{t / HOUR:6.1f}  {p:8.4f}  {e:8.4f}")
    out = "\n".join(lines)
    save_output("fig2_eviction.txt", out)
    print("\n" + out)

    # --- shape assertions -------------------------------------------------
    # Young workers are the most at risk; hazard falls with availability.
    assert probs[0] > probs[6] > probs[16]
    # Hazard is a probability with sane errors everywhere.
    assert np.all((probs >= 0) & (probs <= 1))
    assert np.all(errs >= 0)
    # Early bins have plenty of statistics → small relative errors.
    assert errs[0] < 0.02
    # The trace is big enough to be meaningful.
    assert len(trace) == 20_000
    # The derived sampling model reproduces the observed mean availability.
    rng = np.random.default_rng(0)
    sampled_mean = model.sample_survival(rng, 50_000).mean()
    assert abs(sampled_mean - trace.durations().mean()) / trace.durations().mean() < 0.05
    # The live pipeline (CondorPool availability log → curve) shows the
    # same qualitative shape: young workers are evicted the most.
    l_starts, l_probs, l_errs = live.eviction_curve(
        bin_width=HOUR, max_time=24 * HOUR
    )
    assert len(live) >= 300
    assert l_probs[0] > np.mean(l_probs[6:12])
