"""Default campus topology: worker NIC → rack switch → core → WAN.

:class:`TopologySpec` is the user-facing knob set (exposed through
``repro.core.config``): capacities for each tier of the default tree.
``Services.default`` builds one shared :class:`~repro.net.Fabric` from
it and attaches the squid NICs, the Chirp server and SE spindles, the
Frontier origin (behind the WAN) and the WQ master to the campus core;
``MachinePool.homogeneous`` groups machines under rack switches.

The resulting tree (``python -m repro topology``)::

    campus-core
      └─ world        [wan:             10 Gbit/s]
      │    └─ frontier-origin [frontier-origin: 0.5 Gbit/s]
      │    └─ site-X  [X.uplink:         4 Gbit/s]   (per remote site)
      └─ rack000      [rack000.trunk:   40 Gbit/s]
      │    └─ node00000 [node00000.nic:  1 Gbit/s]
      │    └─ ...
      └─ squid00      [squid00.data:    10 Gbit/s]
      └─ chirp00      [chirp00.nic:     10 Gbit/s]
      │    └─ chirp00.store [chirp00.spindles: 8 Gbit/s]
      └─ master       [master.nic:      10 Gbit/s]
"""

from __future__ import annotations

from dataclasses import dataclass

from .fabric import Fabric

__all__ = ["TopologySpec", "rack_for"]

GBIT = 125_000_000.0


@dataclass(frozen=True)
class TopologySpec:
    """Capacities for the default campus tree (bytes/second)."""

    #: Campus uplink to the wide-area network (paper: 10 Gbit/s).
    wan_bandwidth: float = 10 * GBIT
    #: Rack/machine-group switch trunk into the campus core.
    trunk_bandwidth: float = 40 * GBIT
    #: Machines grouped under one rack switch.
    machines_per_switch: int = 24
    #: SE spindle tier behind the Chirp server NIC.
    se_spindle_bandwidth: float = 8 * GBIT

    def __post_init__(self) -> None:
        if self.wan_bandwidth < 0 or self.trunk_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.machines_per_switch <= 0:
            raise ValueError("machines_per_switch must be positive")
        if self.se_spindle_bandwidth <= 0:
            raise ValueError("se_spindle_bandwidth must be positive")


def rack_for(
    fabric: Fabric,
    index: int,
    machines_per_switch: int = 24,
    trunk_bandwidth: float = 40 * GBIT,
) -> str:
    """The rack-switch node for machine *index*, created on first use.

    Machines ``[k·mps, (k+1)·mps)`` share rack ``rack{k:03d}``, whose
    trunk link into the campus core is the machine-group bottleneck.
    """
    rack = f"rack{index // machines_per_switch:03d}"
    if not fabric.has_node(rack):
        fabric.attach(f"{rack}.trunk", trunk_bandwidth, node=rack)
    return rack
