"""Bucket a cProfile run's self-time into the simulator's layers.

A layer is a ``repro`` subpackage (``desim`` split by module, ``monitor``
split into the tracing package and the rest, and ``cli`` covering the
command-line front end, the scenario builders, the crash fuzzer and the
sweep engine), or one of the libraries the simulator spends time in.

Python functions belong to the layer of the file that defines them.  A C
builtin belongs to ``sqlite``, ``json`` or ``import`` when one of those
owns it; any other builtin's self-time is split among the layers of its
callers in proportion to the self-time pstats records per caller, and its
calls go to each caller's layer as pstats counts them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

REPRO_DIR = (Path(__file__).resolve().parents[2] / "src" / "repro").as_posix() + "/"

LAYERS = (
    "desim.core",
    "desim.resources",
    "desim.bus",
    "desim.other",
    "net",
    "wq",
    "core",
    "batch",
    "cvmfs",
    "storage",
    "faults",
    "dbs",
    "distributions",
    "analysis",
    "monitor",
    "monitor.tracing",
    "cli",
    "sqlite",
    "json",
    "import",
    "scipy",
    "numpy",
    "other",
)

_SUBPACKAGES = {
    "net", "wq", "core", "batch", "cvmfs", "storage", "faults", "dbs",
    "distributions", "analysis",
}
_CLI = {"cli.py", "scenarios.py", "__main__.py", "crashtest", "sweep"}
_DESIM = {"core.py": "desim.core", "resources.py": "desim.resources", "bus.py": "desim.bus"}
_IMPORT_BUILTINS = (
    "<built-in method _imp.",
    "<built-in method marshal.",
    "<built-in method builtins.__import__>",
)

#: Exact call counts read from the profile: name -> (file suffix, function).
#: ``sqlite.statements`` is counted separately from the builtins' names.
CALL_COUNTS = {
    "net.waterfill_calls": ("net/allocator.py", "waterfill"),
    "wq.fits_calls": ("wq/worker.py", "_fits"),
    "desim.resources.trigger_calls": ("desim/resources.py", "_trigger"),
}

Func = Tuple[str, int, str]


def layer_of(func: Func, repro_dir: str = REPRO_DIR) -> Optional[str]:
    """The layer owning pstats function *func*, or ``None`` for a builtin
    whose self-time belongs to its callers."""
    filename, _, name = func
    if filename == "~":
        if "sqlite3" in name:
            return "sqlite"
        if "_json" in name:
            return "json"
        if name.startswith(_IMPORT_BUILTINS):
            return "import"
        return None
    path = filename.replace("\\", "/")
    if path.startswith(repro_dir):
        parts = path[len(repro_dir):].split("/")
        head = parts[0]
        if head == "desim":
            return _DESIM.get(parts[1], "desim.other")
        if head == "monitor":
            return "monitor.tracing" if parts[1] == "tracing" else "monitor"
        if head in _CLI:
            return "cli"
        return head if head in _SUBPACKAGES else "other"
    if "/scipy/" in path:
        return "scipy"
    if "/numpy/" in path:
        return "numpy"
    if "/sqlite3/" in path:
        return "sqlite"
    if "/json/" in path:
        return "json"
    if "importlib" in path or "zipimport" in path:
        return "import"
    return "other"


def bucket(stats: Dict[Func, tuple], repro_dir: str = REPRO_DIR) -> Dict[str, float]:
    """Per-layer ``<layer>.self_s``, ``.share`` and ``.calls`` plus the
    :data:`CALL_COUNTS` and ``sqlite.statements``, from a
    ``pstats.Stats(...).stats`` mapping."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counts = dict.fromkeys((*CALL_COUNTS, "sqlite.statements"), 0)
    for func, (_, nc, tt, _, callers) in stats.items():
        filename, _, name = func
        for metric, (suffix, fname) in CALL_COUNTS.items():
            if name == fname and filename.endswith(suffix):
                counts[metric] += nc
        if filename == "~" and "sqlite3" in name and (
            "'execute'" in name or "'executemany'" in name
        ):
            counts["sqlite.statements"] += nc

        layer = layer_of(func, repro_dir)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        if not callers:
            self_s["other"] += tt
            calls["other"] += nc
            continue
        # Weigh by per-caller self-time; fall back to call counts when
        # the timer resolution rounded every per-caller share to zero.
        weight = 2 if sum(c[2] for c in callers.values()) > 0 else 1
        total = sum(c[weight] for c in callers.values())
        for caller, entry in callers.items():
            owner = layer_of(caller, repro_dir) or "other"
            calls[owner] += entry[1]
            self_s[owner] += tt * entry[weight] / total

    total_s = sum(self_s.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total_s if total_s else 0.0
        out[f"{layer}.calls"] = calls[layer]
    out.update(counts)
    return out
