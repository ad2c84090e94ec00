"""Run one ``python -m repro`` command and timestamp its layer boundaries.

Usage: ``probe.py RESULT.json PROFILE|- ARGV...``

``run.py`` starts this file in a fresh interpreter once per CLI
invocation.  It calls :func:`repro.cli.main` exactly as ``python -m
repro`` would, and marks from outside the program:

* the end of ``import repro.cli``;
* every entry to and exit from :func:`repro.scenarios.execute_prepared`,
  which it wraps (the CLI imports it inside each command, so the wrapper
  is what the command calls).

After ``main`` returns it reads each run's ``summary()``, the final run's
``check_invariants()``, ``env.bus.stats()`` and the kernel's event
insertion counter, and writes them with the timestamps to RESULT.json.
Timestamps are ``time.monotonic()``, which on Linux is one clock for
every process, so the parent can subtract its own spawn time from them.
``post_s`` is the time this file spends after ``main`` returns; the
parent subtracts it from the process lifetime.

With a PROFILE path the whole process, imports included, runs under
``cProfile`` and the stats are dumped there.
"""

import json
import sys
import time


def main() -> int:
    result_path, profile_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    profiler = None
    if profile_path != "-":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    import repro.cli

    import_done = time.monotonic()
    import repro.scenarios as scenarios

    spans, prepared_runs = [], []
    execute_prepared = scenarios.execute_prepared

    def timed_execute_prepared(prepared, *args, **kwargs):
        entry = time.monotonic()
        try:
            return execute_prepared(prepared, *args, **kwargs)
        finally:
            spans.append((entry, time.monotonic()))
            prepared_runs.append(prepared)

    scenarios.execute_prepared = timed_execute_prepared
    rc = repro.cli.main(argv)
    main_return = time.monotonic()
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(profile_path)

    result = {
        "rc": rc,
        "import_done": import_done,
        "execute": spans,
        "runs": [p.run.summary() for p in prepared_runs],
        "invariants": [],
        "bus": {},
        "kernel_events": 0,
    }
    if prepared_runs:
        final = prepared_runs[-1]
        result["invariants"] = final.run.check_invariants()
        result["bus"] = final.env.bus.stats()
        # Environment keeps its insertion counter as an itertools.count;
        # the next value is the number of events ever scheduled.
        result["kernel_events"] = next(final.env._eid)
    sys.stdout.flush()
    result["post_s"] = time.monotonic() - main_return
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
