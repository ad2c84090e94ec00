"""Squid proxy model (paper §4.3, Fig 5; Fig 11 cold-start transient).

A Squid proxy sits between the workers and the CVMFS origin (and the
Frontier conditions service), caching HTTP responses.  Its two scarce
resources are request-servicing throughput (many small files!) and NIC
bandwidth; both are modelled as max-min fair-shared links so that the
mean setup overhead grows once concurrent demand exceeds capacity — the
knee near ~1000 hot workers per proxy in Fig 5.

Fetches that exceed *timeout* fail with :class:`SquidTimeout`; under
extreme load (20k simultaneous cold caches, Fig 11) a small but steady
trickle of setup failures results, exactly as the paper reports.
"""

from __future__ import annotations

from itertools import count
from typing import List, Optional

from ..desim import Environment, Topics
from ..net import Fabric, TrafficClass, TransferCancelled

__all__ = ["SquidProxy", "SquidTimeout", "ProxyFarm"]

GBIT = 125_000_000.0


class SquidTimeout(Exception):
    """A fetch through the proxy exceeded its timeout."""


class SquidProxy:
    """One HTTP cache with finite request-rate and bandwidth capacity."""

    _ids = count()

    def __init__(
        self,
        env: Environment,
        bandwidth: float = 10 * GBIT,
        request_rate: float = 2_000.0,
        base_latency: float = 0.2,
        timeout: float = 1_800.0,
        name: Optional[str] = None,
        fabric: Optional[Fabric] = None,
    ):
        if request_rate <= 0:
            raise ValueError("request_rate must be positive")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.env = env
        self.name = name or f"squid{next(self._ids):02d}"
        self.fabric = fabric if fabric is not None else Fabric(env)
        #: NIC bandwidth shared by all in-flight responses; on a shared
        #: fabric the proxy hangs off the campus core, so responses to a
        #: worker also cross the rack trunk and the worker NIC.
        self.data_link = self.fabric.attach(
            f"{self.name}.data", bandwidth, node=self.name
        )
        #: Request servicing modelled as a link moving "requests" instead
        #: of bytes: capacity = requests/second, shared max-min fair.
        #: Standalone: request budget is a point resource, not a route hop.
        self.request_link = self.fabric.attach(f"{self.name}.req", request_rate)
        self.base_latency = base_latency
        self.timeout = timeout
        # Per-topic fast paths: proxy.queue fires once per fetch, which
        # is one of the densest domain topics in a full-cluster run.
        self._queue_port = env.bus.port(Topics.PROXY_QUEUE)
        self._timeout_port = env.bus.port(Topics.PROXY_TIMEOUT)
        # statistics
        self.fetches = 0
        self.timeouts = 0
        self.bytes_served = 0.0
        self.requests_served = 0.0
        self._inflight = 0

    def fetch(
        self,
        n_requests: float,
        nbytes: float,
        client_link=None,
        cls: str = TrafficClass.CVMFS,
    ):
        """DES process: serve *n_requests* totalling *nbytes*.

        Usage: ``elapsed = yield from proxy.fetch(...)``.  With
        *client_link* (a worker NIC on the same shared fabric) the
        response bytes flow proxy → core → rack trunk → worker NIC as
        one end-to-end flow.  Raises :class:`SquidTimeout` if servicing
        exceeds the proxy timeout.
        """
        start = self.env.now
        self.fetches += 1
        self._inflight += 1
        port = self._queue_port
        if port.on:
            port.emit(
                proxy=self.name,
                load=self._inflight,
                n_requests=n_requests,
                nbytes=nbytes,
            )
        try:
            elapsed = yield from self._fetch_inner(
                n_requests, nbytes, start, client_link, cls
            )
        finally:
            self._inflight -= 1
        return elapsed

    def _data_flow(self, nbytes: float, client_link, cls: str):
        fabric = self.fabric
        if (
            client_link is not None
            and client_link.fabric is fabric
            and client_link.node is not None
        ):
            return fabric.transfer(
                nbytes, src=self.data_link.node, dst=client_link.node, cls=cls
            )
        return self.data_link.transfer(nbytes, cls=cls)

    def _fetch_inner(
        self, n_requests: float, nbytes: float, start: float, client_link, cls: str
    ):
        yield self.env.timeout(self.base_latency)
        req_flow = self.request_link.transfer(n_requests, cls=cls)
        data_flow = self._data_flow(nbytes, client_link, cls)
        deadline = self.env.timeout(self.timeout)
        both = req_flow & data_flow
        try:
            result = yield both | deadline
        except TransferCancelled:
            # The proxy (or a link under it) died mid-fetch: surface as a
            # timeout — the setup-failure path the wrapper already retries.
            req_flow.cancel()
            data_flow.cancel()
            self.timeouts += 1
            port = self._timeout_port
            if port.on:
                port.emit(
                    proxy=self.name,
                    load=self._inflight,
                    waited=self.env.now - start,
                    timeouts=self.timeouts,
                )
            raise SquidTimeout(
                f"{self.name}: fetch failed mid-flight (proxy down)"
            )
        except BaseException:
            # Interrupted (eviction) mid-fetch: free the link capacity.
            req_flow.cancel()
            data_flow.cancel()
            raise
        # Conditions flatten to leaf events, so membership is checked on
        # the individual flows.
        if req_flow not in result or data_flow not in result:
            req_flow.cancel()
            data_flow.cancel()
            self.timeouts += 1
            port = self._timeout_port
            if port.on:
                port.emit(
                    proxy=self.name,
                    load=self._inflight,
                    waited=self.env.now - start,
                    timeouts=self.timeouts,
                )
            raise SquidTimeout(
                f"{self.name}: fetch of {n_requests:.0f} requests/{nbytes:.0f}B "
                f"timed out after {self.timeout:.0f}s"
            )
        self.bytes_served += nbytes
        self.requests_served += n_requests
        return self.env.now - start

    @property
    def load(self) -> int:
        """Concurrent fetches in flight."""
        return self._inflight

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SquidProxy {self.name} inflight={self.load}>"


class ProxyFarm:
    """A set of proxies with least-loaded selection.

    The paper scales past one squid simply by "deploying more proxies";
    workers pick the least-loaded one (in reality: via round-robin DNS or
    a shuffled proxy list, which load-balances the same way on average).
    """

    def __init__(self, proxies: List[SquidProxy]):
        if not proxies:
            raise ValueError("a farm needs at least one proxy")
        self.proxies = list(proxies)

    @classmethod
    def deploy(
        cls, env: Environment, n: int, fabric: Optional[Fabric] = None, **kwargs
    ) -> "ProxyFarm":
        return cls([SquidProxy(env, fabric=fabric, **kwargs) for _ in range(n)])

    def pick(self) -> SquidProxy:
        return min(self.proxies, key=lambda p: p.load)

    def fetch(
        self,
        n_requests: float,
        nbytes: float,
        client_link=None,
        cls: str = TrafficClass.CVMFS,
    ):
        """Fetch through the least-loaded proxy."""
        proxy = self.pick()
        elapsed = yield from proxy.fetch(
            n_requests, nbytes, client_link=client_link, cls=cls
        )
        return elapsed

    @property
    def total_timeouts(self) -> int:
        return sum(p.timeouts for p in self.proxies)

    def __len__(self) -> int:
        return len(self.proxies)
