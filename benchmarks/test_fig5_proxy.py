"""Fig 5 — Proxy cache scalability.

Paper: mean task (setup) overhead as a function of the number of tasks
sharing one proxy cache, for cold and hot worker caches.  One proxy
sustains ~1000 hot worker caches before performance suffers; cold caches
are far more expensive at every scale.

We reproduce it directly: N concurrent environment setups against a
single squid, once with cold per-worker caches and once with hot ones.
"""

import numpy as np

from repro.batch.machines import Machine
from repro.cvmfs import CacheMode, CVMFSRepository, ParrotCache, SquidProxy
from repro.desim import Environment
from repro.scenarios import GB, GBIT

from _scenarios import save_output

N_TASKS = [50, 200, 500, 1000, 2000, 4000]


def mean_overhead(n_tasks: int, hot: bool) -> float:
    env = Environment()
    repo = CVMFSRepository()
    proxy = SquidProxy(env, bandwidth=10 * GBIT, request_rate=5_000.0, timeout=1e9)
    elapsed = []

    def one_task(cache):
        result = yield from cache.setup(repo)
        elapsed.append(result.elapsed)

    for i in range(n_tasks):
        machine = Machine(env, f"m{i}", cores=8, disk_bandwidth=10 * GB)
        cache = ParrotCache(env, machine, proxy, mode=CacheMode.ALIEN)
        if hot:
            cache._filled[repo.name] = True
        env.process(one_task(cache))
    env.run()
    return float(np.mean(elapsed))


def run_experiment():
    rows = []
    for n in N_TASKS:
        rows.append((n, mean_overhead(n, hot=False), mean_overhead(n, hot=True)))
    return rows


def test_fig5_proxy_scalability(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = ["# Fig 5: mean task overhead vs tasks sharing one proxy",
             "# n_tasks  cold_s      hot_s"]
    for n, cold, hot in rows:
        lines.append(f"{n:8d}  {cold:9.1f}  {hot:9.1f}")
    out = "\n".join(lines)
    save_output("fig5_proxy.txt", out)
    print("\n" + out)

    cold = {n: c for n, c, _ in rows}
    hot = {n: h for n, _, h in rows}

    # --- shape assertions -------------------------------------------------
    # Cold caches are far more expensive than hot at every scale.
    for n in N_TASKS:
        assert cold[n] > 2 * hot[n]
        assert cold[n] - hot[n] > 30.0
    # Hot overhead is nearly flat in the low-concurrency regime...
    assert hot[500] < 1.5 * hot[50]
    # ...and the knee sits near ~1000 workers per proxy: by 2000-4000
    # tasks the proxy is clearly saturated.
    assert hot[2000] > 1.5 * hot[500]
    assert hot[4000] > 2.5 * hot[500]
    # Cold overhead grows roughly linearly once bandwidth-bound.
    assert cold[4000] > 3 * cold[1000] * 0.8
    # Both curves are monotone non-decreasing (within tolerance).
    cold_list = [cold[n] for n in N_TASKS]
    hot_list = [hot[n] for n in N_TASKS]
    assert all(b >= a * 0.95 for a, b in zip(cold_list, cold_list[1:]))
    assert all(b >= a * 0.95 for a, b in zip(hot_list, hot_list[1:]))
