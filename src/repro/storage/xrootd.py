"""The XrootD / AAA data federation (paper §4.2).

"Any Data, Anytime, Anywhere": a task holding only a *logical* file name
contacts a redirector, which locates a physical replica somewhere on the
WLCG and streams the bytes back over the WAN.  The model captures

* redirector lookup latency per open,
* streaming reads sharing the campus uplink (max-min fair),
* transient federation outages: opens and in-flight reads fail with
  :class:`XrootdError` during an :class:`~repro.storage.wan.OutageWindow`
  — the cause of the failure burst in Fig 10,
* per-site accounting of volume served, feeding the Fig 9 "top consumers"
  dashboard view.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from ..desim import Environment, Topics
from ..net import Fabric, TrafficClass, TransferCancelled
from .wan import OutageWindow, WideAreaNetwork

__all__ = ["XrootdError", "XrootdFederation", "XrootdStream", "RemoteSite"]

GBIT = 125_000_000.0


class RemoteSite:
    """A WLCG site serving data into the federation.

    Each site has its own finite uplink (shared by everyone reading from
    it) and may suffer its own outages, independent of the client-side
    campus WAN.  The "Anywhere" in AAA comes from the redirector falling
    back to another replica when a site is out.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        uplink_bandwidth: float = 4 * GBIT,
        outages: Optional[Sequence[OutageWindow]] = None,
        fabric: Optional[Fabric] = None,
    ):
        self.env = env
        self.name = name
        self.fabric = fabric if fabric is not None else Fabric(env)
        #: On a shared campus fabric the site sits beyond the WAN: reads
        #: from it cross both its uplink and the campus uplink.
        parent = "world" if self.fabric.has_node("world") else None
        self.node = f"site-{name}"
        self.uplink = self.fabric.attach(
            f"{name}.uplink", uplink_bandwidth, node=self.node, parent=parent
        )
        self.outages = sorted(outages or [], key=lambda w: w.start)
        if self.outages:
            self.uplink.schedule_outages(self.outages)
        self.bytes_served = 0.0

    def is_out(self, t: Optional[float] = None) -> bool:
        t = self.env.now if t is None else t
        return any(w.covers(t) for w in self.outages)

    @property
    def load(self) -> int:
        return self.uplink.active_flows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RemoteSite {self.name} load={self.load}>"


class XrootdError(Exception):
    """An open or read against the federation failed."""


class XrootdStream:
    """An open remote file; reads stream over the WAN.

    When the federation knows the *source* site, reads occupy both the
    source's uplink and the local campus WAN concurrently (a pipelined
    wide-area stream): the more congested side sets the pace.
    """

    def __init__(
        self,
        federation: "XrootdFederation",
        lfn: str,
        site: str,
        source: Optional[RemoteSite] = None,
    ):
        self.federation = federation
        self.lfn = lfn
        self.site = site
        self.source = source
        self.bytes_read = 0.0
        self.closed = False

    def read(
        self,
        nbytes: float,
        max_rate: Optional[float] = None,
        client_link=None,
        cls: str = TrafficClass.XROOTD,
    ):
        """DES process: stream *nbytes*; returns elapsed seconds.

        When *client_link* is a NIC on the same shared fabric as the
        WAN, the read is one end-to-end flow occupying every link from
        the source (or the ``world`` node) down to the client — NIC,
        rack trunk, campus uplink and source uplink all contend.
        Otherwise (a client NIC on another fabric) the WAN, source
        uplink and client NIC carry pipelined per-link flows.  Raises
        :class:`XrootdError` if the federation goes out while the read
        is in flight (the transfer stalls at zero bandwidth, and the
        client's request times out).
        """
        fed = self.federation
        env = fed.env
        if self.closed:
            raise XrootdError(f"read on closed stream {self.lfn}")
        if fed.wan.is_out():
            fed.errors += 1
            fed._publish_error("wan-out", self.lfn)
            yield env.timeout(fed.error_latency)
            raise XrootdError(f"federation unreachable reading {self.lfn}")
        if self.source is not None and self.source.is_out():
            fed.errors += 1
            fed._publish_error("source-out", self.lfn)
            yield env.timeout(fed.error_latency)
            raise XrootdError(
                f"source site {self.source.name} unreachable reading {self.lfn}"
            )
        start = env.now
        fabric = fed.wan.fabric
        extra = []
        if (
            client_link is not None
            and client_link.fabric is fabric
            and client_link.node is not None
        ):
            # One end-to-end flow across the shared fabric.
            if self.source is not None and self.source.fabric is fabric:
                src_node = self.source.node
            else:
                src_node = fed.wan.remote_node
                if self.source is not None:
                    extra.append(self.source.uplink.transfer(nbytes, cls=cls))
            port = fed._transfer_port
            if port.on:
                port.emit(
                    link=fed.wan.link.name,
                    nbytes=nbytes,
                    flows=fed.wan.link.active_flows + 1,
                )
            flow = fabric.transfer(
                nbytes, src=src_node, dst=client_link.node, cls=cls, max_rate=max_rate
            )
        else:
            flow = fed.wan.transfer(nbytes, max_rate=max_rate, cls=cls)
            if self.source is not None:
                extra.append(self.source.uplink.transfer(nbytes, cls=cls))
            if client_link is not None:
                extra.append(client_link.transfer(nbytes, cls=cls))
        # An outage beginning mid-read surfaces as a read error once the
        # client-side timeout expires.
        watchdog = env.process(fed._outage_watch(flow), name="xrootd-watch")
        try:
            wait = flow
            for f in extra:
                wait = wait & f
            yield wait
        except TransferCancelled:
            for f in extra:
                f.cancel()
            fed.errors += 1
            fed._publish_error("mid-stream", self.lfn)
            raise XrootdError(f"read of {self.lfn} failed mid-stream") from None
        except BaseException:
            flow.cancel()
            for f in extra:
                f.cancel()
            raise
        finally:
            if watchdog.is_alive:
                watchdog.interrupt()
        self.bytes_read += nbytes
        fed.record_volume(self.site, nbytes)
        if self.source is not None:
            self.source.bytes_served += nbytes
        port = fed._transfer_port
        if port.on:
            port.emit(
                link="xrootd",
                lfn=self.lfn,
                site=self.site,
                source=self.source.name if self.source is not None else None,
                nbytes=nbytes,
                elapsed=env.now - start,
            )
        return env.now - start

    def close(self) -> None:
        self.closed = True


class XrootdFederation:
    """Redirector + the global pool of data servers behind it."""

    def __init__(
        self,
        env: Environment,
        wan: WideAreaNetwork,
        redirect_latency: float = 2.0,
        error_latency: float = 30.0,
        site: str = "T3_US_NotreDame",
    ):
        self.env = env
        self.wan = wan
        self.redirect_latency = redirect_latency
        self.error_latency = error_latency
        self.default_site = site
        self.opens = 0
        self.errors = 0
        self.failovers = 0
        #: bytes streamed per consuming site (Fig 9).
        self.volume_by_site: Dict[str, float] = defaultdict(float)
        #: Source sites serving data, by name (optional realism layer).
        self.sites: Dict[str, RemoteSite] = {}
        #: lfn → names of sites holding a replica.
        self._replicas: Dict[str, List[str]] = {}
        # Per-topic fast paths for the streaming hot loop.
        self._transfer_port = env.bus.port(Topics.LINK_TRANSFER)
        self._error_port = env.bus.port(Topics.XROOTD_ERROR)

    # -- topology (optional: without sites, reads use only the WAN) --------
    def add_site(self, site: RemoteSite) -> None:
        if site.name in self.sites:
            raise ValueError(f"site {site.name!r} already registered")
        self.sites[site.name] = site

    def register_replicas(self, lfn: str, site_names: Sequence[str]) -> None:
        for name in site_names:
            if name not in self.sites:
                raise ValueError(f"unknown site {name!r}")
        self._replicas[lfn] = list(site_names)

    def replicas(self, lfn: str) -> List[str]:
        """Sites holding *lfn*; every site when the catalog has no entry."""
        return self._replicas.get(lfn, list(self.sites))

    def _pick_source(self, lfn: str) -> Optional[RemoteSite]:
        """Least-loaded live replica; None when no sites are modelled.

        Raises :class:`XrootdError` when sites exist but every replica is
        out — even "Anywhere" fails when all sources are down.
        """
        if not self.sites:
            return None
        candidates = [
            self.sites[name]
            for name in self.replicas(lfn)
            if not self.sites[name].is_out()
        ]
        if not candidates:
            raise XrootdError(f"no live replica of {lfn}")
        best = min(candidates, key=lambda s: s.load)
        if len(self.replicas(lfn)) > len(candidates):
            self.failovers += 1
        return best

    def open(self, lfn: str, site: Optional[str] = None):
        """DES process: resolve *lfn* and return an :class:`XrootdStream`.

        The redirector picks the least-loaded live replica, failing over
        past sites that are out (the AAA promise).  Raises
        :class:`XrootdError` when the local WAN is out or no replica is
        reachable.
        """
        self.opens += 1
        yield self.env.timeout(self.redirect_latency)
        if self.wan.is_out():
            self.errors += 1
            self._publish_error("wan-out", lfn)
            yield self.env.timeout(self.error_latency)
            raise XrootdError(f"cannot open {lfn}: federation unreachable")
        try:
            source = self._pick_source(lfn)
        except XrootdError:
            self.errors += 1
            self._publish_error("no-replica", lfn)
            yield self.env.timeout(self.error_latency)
            raise
        return XrootdStream(self, lfn, site or self.default_site, source=source)

    def _publish_error(self, reason: str, lfn: str) -> None:
        port = self._error_port
        if port.on:
            port.emit(reason=reason, lfn=lfn, errors=self.errors)

    def record_volume(self, site: str, nbytes: float) -> None:
        self.volume_by_site[site] += nbytes

    def top_consumers(self, n: int = 10):
        """Fig 9: the *n* sites that streamed the most data, descending."""
        ranked = sorted(self.volume_by_site.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def _outage_watch(self, flow):
        """Cancel *flow* shortly after an outage begins (client timeout)."""
        from ..desim import Interrupt

        try:
            while flow.callbacks is not None:
                if self.wan.is_out():
                    yield self.env.timeout(self.error_latency)
                    flow.cancel()
                    return
                nxt = self._next_outage_start()
                if nxt is None:
                    return  # no future outage can affect this flow
                yield self.env.timeout(max(0.0, nxt - self.env.now) + 1e-6)
        except Interrupt:
            return

    def _next_outage_start(self) -> Optional[float]:
        for w in self.wan.outages:
            if w.start >= self.env.now:
                return w.start
            if w.covers(self.env.now):
                return self.env.now
        return None
