"""Output helpers for the figure benchmarks.

The benches build their runs with :mod:`repro.scenarios`, the builders
the CLI and the sweep engine use too; this module only writes what they
regenerate under ``benchmarks/out/``.
"""

from __future__ import annotations

import os

#: Directory where benches drop their regenerated tables/series.
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def save_output(name: str, text: str) -> str:
    """Persist a bench's regenerated figure data under benchmarks/out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def save_json(name: str, payload: dict) -> str:
    """Persist a bench's machine-readable rows under benchmarks/out/.

    *payload* is any mapping; benches pass either a full sweep payload
    (``repro.sweep/1``) or rows wrapped by
    :func:`repro.sweep.results.bench_payload` (``repro.bench/1``).
    """
    from repro.sweep.results import write_json

    os.makedirs(OUT_DIR, exist_ok=True)
    return write_json(payload, os.path.join(OUT_DIR, name))
