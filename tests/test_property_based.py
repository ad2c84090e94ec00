"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TaskletState, TaskletStore, plan_groups
from repro.core.tasksize import TaskSizeConfig, TaskSizeSimulator
from repro.desim import Environment
from repro.distributions import (
    ConstantHazardEviction,
    EmpiricalEviction,
    NoEviction,
    binomial_errors,
    eviction_probability_curve,
)
from repro.monitor import TimeSeries
from repro.net import Fabric, waterfill
from repro.storage import StoredFile

from .fair_share_reference import allocate_max_min


# ------------------------------------------------------------ max-min fairness
caps = st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e6))


def single_link(demands, capacity):
    """Max-min rates of flows with caps *demands* on one link."""
    return waterfill({0: capacity}, [(0,)] * len(demands), demands)


@given(demands=st.lists(caps, max_size=30), capacity=st.floats(min_value=0.1, max_value=1e9))
def test_allocation_never_exceeds_capacity(demands, capacity):
    rates = single_link(demands, capacity)
    assert len(rates) == len(demands)
    assert sum(rates) <= capacity * (1 + 1e-9)
    for rate, cap in zip(rates, demands):
        assert rate >= 0
        if cap is not None:
            assert rate <= cap * (1 + 1e-9)


@given(
    demands=st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=1, max_size=20),
    capacity=st.floats(min_value=0.1, max_value=1e9),
)
def test_allocation_work_conserving(demands, capacity):
    """If total demand exceeds capacity, every drop of capacity is used;
    otherwise every flow gets its full demand."""
    rates = single_link(list(demands), capacity)
    if sum(demands) <= capacity:
        assert rates == pytest.approx(list(demands))
    else:
        assert sum(rates) == pytest.approx(capacity)


@given(n=st.integers(min_value=1, max_value=50), capacity=st.floats(min_value=1, max_value=1e6))
def test_allocation_uncapped_flows_get_equal_share(n, capacity):
    rates = single_link([None] * n, capacity)
    assert all(r == pytest.approx(capacity / n) for r in rates)


# ------------------------------------------------- multi-link water-filling
@st.composite
def waterfill_problems(draw):
    """A random tree-free allocation problem: links, routes, rate caps."""
    n_links = draw(st.integers(min_value=1, max_value=6))
    caps = {
        i: draw(st.floats(min_value=0.1, max_value=1e6))
        for i in range(n_links)
    }
    n_flows = draw(st.integers(min_value=0, max_value=12))
    routes = []
    for _ in range(n_flows):
        size = draw(st.integers(min_value=1, max_value=n_links))
        routes.append(tuple(draw(st.permutations(range(n_links)))[:size]))
    max_rates = [
        draw(st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e5)))
        for _ in range(n_flows)
    ]
    return caps, routes, max_rates


@given(problem=waterfill_problems())
def test_waterfill_conserves_capacity_and_caps(problem):
    caps, routes, max_rates = problem
    rates = waterfill(caps, routes, max_rates)
    assert len(rates) == len(routes)
    for rate, cap in zip(rates, max_rates):
        assert rate >= 0.0
        if cap is not None:
            assert rate <= cap * (1 + 1e-6)
    for link, capacity in caps.items():
        load = sum(r for r, route in zip(rates, routes) if link in route)
        assert load <= capacity * (1 + 1e-6)


@given(problem=waterfill_problems())
def test_waterfill_is_max_min_fair(problem):
    """Every flow is either at its own cap or bottlenecked: it crosses a
    saturated link where no sharing flow gets a strictly larger rate."""
    caps, routes, max_rates = problem
    rates = waterfill(caps, routes, max_rates)
    for i, (rate, route, cap) in enumerate(zip(rates, routes, max_rates)):
        if cap is not None and rate >= cap * (1 - 1e-6):
            continue  # pinned by its own cap
        bottlenecked = False
        for link in route:
            load = sum(r for r, rt in zip(rates, routes) if link in rt)
            saturated = load >= caps[link] * (1 - 1e-6)
            biggest = max(
                (r for r, rt in zip(rates, routes) if link in rt),
                default=0.0,
            )
            if saturated and rate >= biggest * (1 - 1e-6):
                bottlenecked = True
                break
        assert bottlenecked, f"flow {i} is neither capped nor bottlenecked"


@given(
    capacity=st.floats(min_value=0.1, max_value=1e6),
    max_rates=st.lists(
        st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e5)),
        min_size=1,
        max_size=15,
    ),
)
def test_waterfill_single_link_matches_allocate_max_min(capacity, max_rates):
    """On one shared link the multi-link allocator gives the rates of the
    single-link max-min allocation it replaced
    (``tests/fair_share_reference.py``)."""
    rates = waterfill({0: capacity}, [(0,)] * len(max_rates), max_rates)
    reference = allocate_max_min(max_rates, capacity)
    assert rates == pytest.approx(reference, rel=1e-9, abs=1e-12)


@given(
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=10),
    st.floats(min_value=10.0, max_value=1e4),
)
@settings(max_examples=25, deadline=None)
def test_fair_share_link_conserves_bytes(sizes, capacity):
    """Every transfer completes and the link moves exactly the bytes offered."""
    env = Environment()
    link = Fabric(env).attach("l", capacity)
    done = []

    def proc(env, nbytes):
        yield link.transfer(nbytes)
        done.append(nbytes)

    for nbytes in sizes:
        env.process(proc(env, nbytes))
    env.run()
    assert sorted(done) == sorted(sizes)
    assert link.bytes_moved == pytest.approx(sum(sizes), rel=1e-6)
    assert link.active_flows == 0
    # The link can never finish faster than capacity allows.
    assert env.now * capacity >= sum(sizes) * (1 - 1e-9)


# ------------------------------------------------------------ eviction models
@given(
    intervals=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200
    )
)
def test_empirical_eviction_samples_within_range(intervals):
    model = EmpiricalEviction(intervals)
    rng = np.random.default_rng(0)
    draws = model.sample_survival(rng, 100)
    assert draws.min() >= min(intervals) - 1e-9
    assert draws.max() <= max(intervals) + 1e-9


@given(
    intervals=st.lists(
        st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=100
    ),
    age=st.floats(min_value=0, max_value=1e5),
)
def test_hazard_is_probability(intervals, age):
    model = EmpiricalEviction(intervals)
    h = model.hazard(age)
    assert 0.0 <= h <= 1.0


@given(k=st.integers(min_value=0, max_value=1000), extra=st.integers(min_value=0, max_value=1000))
def test_binomial_errors_bounded(k, extra):
    n = k + extra
    err = binomial_errors(k, n)
    if n > 0:
        # The maximum possible binomial error is 0.5 / sqrt(n).
        assert 0.0 <= err <= 0.5 / np.sqrt(n) + 1e-12
    else:
        assert err == 0.0


@given(
    intervals=st.lists(
        st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=100
    )
)
def test_eviction_curve_probabilities_valid(intervals):
    starts, probs, errs = eviction_probability_curve(intervals, bin_width=3600.0)
    assert np.all((probs >= 0) & (probs <= 1))
    assert np.all(errs >= 0)
    assert len(starts) == len(probs) == len(errs)


# ------------------------------------------------------------ merge planning
file_sizes = st.lists(st.floats(min_value=1.0, max_value=5e9), min_size=0, max_size=100)


@given(sizes=file_sizes, target=st.floats(min_value=1e6, max_value=1e10))
def test_plan_groups_partitions_files(sizes, target):
    files = [StoredFile(f"/store/f{i:05d}", s) for i, s in enumerate(sizes)]
    groups, leftovers = plan_groups(files, target, "wf")
    regrouped = [f.name for g in groups for f in g.inputs] + [f.name for f in leftovers]
    assert sorted(regrouped) == sorted(f.name for f in files)
    # With partial groups allowed, nothing is left over.
    assert leftovers == []


@given(sizes=file_sizes, target=st.floats(min_value=1e6, max_value=1e10))
def test_plan_groups_without_partial_leftover_undersized(sizes, target):
    files = [StoredFile(f"/store/f{i:05d}", s) for i, s in enumerate(sizes)]
    groups, leftovers = plan_groups(files, target, "wf", allow_partial=False)
    # Every emitted group reaches the target.
    for g in groups:
        assert g.total_bytes >= target
    # Leftovers are strictly under one target's worth.
    assert sum(f.size_bytes for f in leftovers) < target
    # Partition property still holds.
    regrouped = [f.name for g in groups for f in g.inputs] + [f.name for f in leftovers]
    assert sorted(regrouped) == sorted(f.name for f in files)


# ------------------------------------------------------------ tasklets
@given(
    n_events=st.integers(min_value=1, max_value=100_000),
    per_tasklet=st.integers(min_value=1, max_value=10_000),
)
def test_event_decomposition_conserves_events(n_events, per_tasklet):
    store = TaskletStore.from_event_count("wf", n_events, per_tasklet)
    assert sum(t.n_events for t in store) == n_events
    assert all(1 <= t.n_events <= per_tasklet for t in store)


@given(
    n=st.integers(min_value=1, max_value=50),
    claims=st.lists(st.integers(min_value=1, max_value=10), max_size=20),
)
def test_claim_never_duplicates_tasklets(n, claims):
    store = TaskletStore.from_event_count("wf", n * 10, 10)
    seen = set()
    for c in claims:
        for t in store.claim(c):
            assert t.tasklet_id not in seen
            seen.add(t.tasklet_id)
            assert t.state == TaskletState.ASSIGNED
    assert len(seen) + store.pending_count == store.total


@given(
    n=st.integers(min_value=1, max_value=30),
    max_retries=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_retry_exhaustion_terminates(n, max_retries):
    """Failing everything forever always reaches a complete store."""
    store = TaskletStore.from_event_count("wf", n * 10, 10)
    for _ in range(max_retries + 1):
        claimed = store.claim(store.total)
        if not claimed:
            break
        store.mark_failed_attempt(claimed, max_retries)
    assert store.complete
    assert store.failed_count == store.total


TASKLET_STATES = [
    TaskletState.PENDING,
    TaskletState.ASSIGNED,
    TaskletState.DONE,
    TaskletState.FAILED,
]
tasklet_picks = st.lists(st.integers(min_value=0, max_value=12), max_size=6)
TASKLET_OPS = st.one_of(
    st.tuples(st.just("claim"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("mark_done"), tasklet_picks),
    st.tuples(
        st.just("mark_failed_attempt"), tasklet_picks, st.integers(min_value=1, max_value=3)
    ),
    st.tuples(st.just("settle_done"), tasklet_picks),
    st.tuples(st.just("reopen"), tasklet_picks),
)


@given(
    rows=st.one_of(st.none(), st.lists(st.sampled_from(TASKLET_STATES), max_size=12)),
    ops=st.lists(TASKLET_OPS, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_counted_progress_matches_a_full_scan(rows, ops):
    """``complete`` and ``processed_fraction`` read a kept count; after
    every transition they equal the scan over every tasklet."""
    if rows is None:
        store = TaskletStore.from_event_count("wf", 100, 10)
    else:
        store = TaskletStore.restore(
            "wf", [(i + 1, None, 10, 0.0, state, 0) for i, state in enumerate(rows)]
        )

    def check():
        tasklets = list(store)
        assert store.complete == all(t.state in TaskletState.TERMINAL for t in tasklets)
        expected = (
            sum(1 for t in tasklets if t.state in TaskletState.TERMINAL) / len(tasklets)
            if tasklets
            else 1.0
        )
        assert store.processed_fraction == expected

    check()
    for kind, arg, *rest in ops:
        tasklets = list(store)
        if kind == "claim":
            store.claim(arg)
        else:
            picked = [tasklets[i] for i in arg if i < len(tasklets)]
            if kind == "mark_done":
                store.mark_done(picked)
            elif kind == "mark_failed_attempt":
                store.mark_failed_attempt(picked, rest[0])
            else:
                getattr(store, kind)([t.tasklet_id for t in picked])
        check()


# ------------------------------------------------------------ time series
monotone_samples = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    min_size=1,
    max_size=50,
).map(lambda pts: sorted(pts, key=lambda p: p[0]))


@given(samples=monotone_samples, bin_width=st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=50, deadline=None)
def test_binned_mean_bounded_by_extremes(samples, bin_width):
    ts = TimeSeries(samples=samples)
    starts, vals = ts.binned(bin_width, agg="mean")
    lo = min(0.0, min(v for _, v in samples))
    hi = max(0.0, max(v for _, v in samples))
    assert np.all(vals >= lo - 1e-6)
    assert np.all(vals <= hi + 1e-6)


@given(samples=monotone_samples, t=st.floats(min_value=-10, max_value=2e4))
def test_at_returns_last_sample_before(samples, t):
    ts = TimeSeries(samples=samples)
    value = ts.at(t)
    earlier = [v for when, v in samples if when <= t]
    assert value == (earlier[-1] if earlier else 0.0)


# ------------------------------------------------------------ task-size model
@given(
    n_tasklets=st.integers(min_value=10, max_value=500),
    n_workers=st.integers(min_value=1, max_value=50),
    task_hours=st.floats(min_value=0.1, max_value=12.0),
    probability=st.floats(min_value=0.01, max_value=0.9),
)
@settings(max_examples=20, deadline=None)
def test_efficiency_is_always_a_ratio(n_tasklets, n_workers, task_hours, probability):
    sim = TaskSizeSimulator(
        TaskSizeConfig(n_tasklets=n_tasklets, n_workers=n_workers, max_retries=50),
        seed=0,
    )
    for model in (NoEviction(), ConstantHazardEviction(probability)):
        r = sim.simulate(task_hours * 3600.0, model)
        assert 0.0 <= r.efficiency <= 1.0
        assert r.effective_time <= r.total_time
        assert r.tasks_completed >= 0
