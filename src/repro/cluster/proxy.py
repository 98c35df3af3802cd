"""Routing proxy: one address, N nodes, leader-aware forwarding.

The proxy is a :class:`~repro.service.server.Dispatcher` behind its
own :class:`~repro.service.server.TCPFrontEnd` — same wire protocol as
a node, so every existing client works against a cluster unchanged.
Per request it consults the latest supervisor view and the shared
hash ring:

* **ingest** goes to the tenant key's leader (first alive owner),
  forwarded as a value-batch record.
  Routing races view propagation by design; a ``not_leader`` answer
  carries the responder's belief and the proxy follows the redirect
  once before giving up — bounded chasing, no loops.
* **reads** (quantile/rank/cdf/count) prefer the leader but may fall
  to a follower inside the key's replica set when the follower is
  *fresh*: its applied frontier, as of the last heartbeat, trails no
  alive origin by more than ``max_lag_records``, and the view itself
  is younger than ``staleness_ms``.  That pair is the staleness bound:
  every follower read is backed by evidence at most ``staleness_ms``
  old that the follower was at most ``max_lag_records`` behind.
* **fan-out ops** (``metrics``, ``stats``, ``flush``, ``checkpoint``)
  go to every alive node and merge: union for listings, summed
  counters for stats.

The proxy holds no sketch state and takes no locks across network
calls — the view is snapshotted under a mutex, then sockets happen.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from repro.cluster.membership import EMPTY_VIEW, MembershipView
from repro.cluster.ring import HashRing
from repro.cluster.transport import ClusterTransport
from repro.errors import (
    InvalidValueError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.obs.telemetry import NOOP, Telemetry
from repro.service import protocol
from repro.service.clock import Clock, SystemClock
from repro.service.registry import MetricKey
from repro.service.server import TCPFrontEnd

#: Ops routed by tenant key to a single replica.
_KEYED_READS = frozenset({"quantile", "rank", "cdf", "count"})


class RoutingProxy:
    """Cluster-aware request router behind the standard TCP front end.

    Parameters
    ----------
    ring / replication_factor:
        The shared key-ownership map (must match the nodes').
    transport:
        Fault-injected channel to the nodes.
    staleness_ms:
        Maximum age of the membership view that may justify a follower
        read; an older view forces leader-only routing.
    max_lag_records:
        Maximum per-origin replication lag (in WAL records, as of the
        last heartbeat) a follower may carry and still serve reads.
        ``0`` demands fully-caught-up followers.
    prefer_followers:
        Route reads to eligible followers before the leader — spreads
        query load across replicas (the deterministic choice is the
        first eligible follower in failover order).
    """

    def __init__(
        self,
        ring: HashRing,
        transport: ClusterTransport,
        clock: Clock | None = None,
        replication_factor: int | None = None,
        staleness_ms: float = 5_000.0,
        max_lag_records: int = 0,
        prefer_followers: bool = False,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if staleness_ms <= 0:
            raise InvalidValueError(
                f"staleness_ms must be > 0, got {staleness_ms!r}"
            )
        if max_lag_records < 0:
            raise InvalidValueError(
                f"max_lag_records must be >= 0, got {max_lag_records!r}"
            )
        self.ring = ring
        self.transport = transport
        self._clock = clock if clock is not None else SystemClock()
        self.replication_factor = replication_factor
        self.staleness_ms = float(staleness_ms)
        self.max_lag_records = int(max_lag_records)
        self.prefer_followers = bool(prefer_followers)
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._front = TCPFrontEnd(self, host, port)
        self._lock = threading.Lock()
        self._view: MembershipView = EMPTY_VIEW
        self._view_at_ms: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "RoutingProxy":
        self._front.start(thread_name="cluster-proxy-accept")
        return self

    def stop(self) -> None:
        self._front.stop()

    @property
    def running(self) -> bool:
        return self._front.running

    @property
    def address(self) -> tuple[str, int]:
        return self._front.address

    def __enter__(self) -> "RoutingProxy":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # View intake
    # ------------------------------------------------------------------

    def apply_view(self, view: MembershipView) -> int:
        """Adopt *view* if at least as new; returns the held epoch."""
        with self._lock:
            if view.epoch >= self._view.epoch:
                self._view = view
                self._view_at_ms = self._clock.now_ms()
            epoch = self._view.epoch
        for node_id, status in view.nodes.items():
            self.transport.set_address(node_id, *status.address)
        return epoch

    def _view_snapshot(self) -> tuple[MembershipView, float | None]:
        with self._lock:
            return self._view, self._view_at_ms

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        try:
            if op == "ping":
                return protocol.ok(pong=True)
            if op == "node_info":
                return protocol.ok(
                    node_id="proxy",
                    role="proxy",
                    wal_watermark=0,
                    frontier={},
                )
            if op == "cluster_view":
                view = MembershipView.from_wire(
                    request.get("view", {})
                )
                return protocol.ok(epoch=self.apply_view(view))
            if op == "ingest":
                return self._route_ingest(request)
            if isinstance(op, str) and op in _KEYED_READS:
                return self._route_read(request)
            if op in ("metrics", "stats", "flush", "checkpoint"):
                return self._fan_out(str(op), request)
            return protocol.error(
                "unknown_op",
                f"proxy cannot route op {op!r}",
            )
        except (InvalidValueError, KeyError, TypeError, ValueError) as exc:
            return protocol.error(
                "bad_request", f"{type(exc).__name__}: {exc}"
            )

    # ------------------------------------------------------------------
    # Routing policies
    # ------------------------------------------------------------------

    def _tenant_key(self, request: dict[str, Any]) -> str:
        name = request.get("metric")
        if not isinstance(name, str) or not name:
            raise InvalidValueError(
                "request needs a non-empty string 'metric'"
            )
        tags = request.get("tags")
        return str(MetricKey.of(name, tags))

    def _forward(
        self, node_id: str, request: dict[str, Any]
    ) -> dict[str, Any] | None:
        try:
            return self.transport.request(node_id, request, check=False)
        except (ServiceUnavailableError, ServiceError):
            self.telemetry.counter("proxy.forward_failures").inc()
            return None

    def _route_ingest(self, request: dict[str, Any]) -> dict[str, Any]:
        key = self._tenant_key(request)
        if isinstance(request.get("values"), list):
            # Forward the batch as a value-batch record; the node
            # validates it.
            request = dict(
                request, values=protocol.value_batch(request["values"])
            )
        view, _ = self._view_snapshot()
        if view.nodes:
            leader = view.leader(self.ring, key, self.replication_factor)
        else:
            leader = self.ring.primary(key)
        if leader is None:
            return protocol.error(
                "unavailable",
                f"no alive replica for {key!r} "
                f"(epoch {view.epoch})",
            )
        response = self._forward(leader, request)
        if (
            response is not None
            and not response.get("ok")
            and response.get("error") == "not_leader"
            and isinstance(response.get("leader"), str)
            and response["leader"] != leader
        ):
            # The node's view is newer than ours: follow the redirect
            # once (its belief names an address when it has one).
            hinted = response["leader"]
            hint_address = response.get("leader_address")
            if isinstance(hint_address, list) and len(hint_address) == 2:
                self.transport.set_address(
                    hinted, str(hint_address[0]), int(hint_address[1])
                )
            self.telemetry.counter("proxy.leader_redirects").inc()
            response = self._forward(hinted, request)
        if response is None:
            return protocol.error(
                "unavailable",
                f"leader {leader!r} for {key!r} is unreachable",
            )
        return response

    def _fresh_followers(
        self, key: str, view: MembershipView, view_at: float | None
    ) -> list[str]:
        """Followers of *key* eligible under the staleness bound."""
        if view_at is None:
            return []
        if self._clock.now_ms() - view_at > self.staleness_ms:
            self.telemetry.counter("proxy.stale_view_reads").inc()
            return []
        owners = self.ring.owners(key, self.replication_factor)
        eligible: list[str] = []
        for follower in owners[1:]:
            status = view.status(follower)
            if status is None or not status.alive:
                continue
            fresh = True
            for origin in owners:
                origin_status = view.status(origin)
                if (
                    origin == follower
                    or origin_status is None
                    or not origin_status.alive
                ):
                    continue
                lag = origin_status.wal_watermark - int(
                    status.frontier.get(origin, 0)
                )
                if lag > self.max_lag_records:
                    fresh = False
                    break
            if fresh:
                eligible.append(follower)
        return eligible

    def _route_read(self, request: dict[str, Any]) -> dict[str, Any]:
        key = self._tenant_key(request)
        view, view_at = self._view_snapshot()
        if not view.nodes:
            candidates: list[str] = [self.ring.primary(key)]
        else:
            leader = view.leader(self.ring, key, self.replication_factor)
            followers = self._fresh_followers(key, view, view_at)
            if leader is not None and leader in followers:
                followers.remove(leader)
            if self.prefer_followers:
                candidates = followers + (
                    [leader] if leader is not None else []
                )
            else:
                candidates = (
                    [leader] if leader is not None else []
                ) + followers
        for target in candidates:
            response = self._forward(target, request)
            if response is not None:
                if target != candidates[0]:
                    self.telemetry.counter(
                        "proxy.follower_reads"
                    ).inc()
                return response
        return protocol.error(
            "unavailable",
            f"no reachable replica for {key!r} within the staleness "
            f"bound",
        )

    # ------------------------------------------------------------------
    # Fan-out ops
    # ------------------------------------------------------------------

    def _alive_targets(self) -> list[str]:
        view, _ = self._view_snapshot()
        return view.alive_nodes()

    def _fan_out(
        self, op: str, request: dict[str, Any]
    ) -> dict[str, Any]:
        targets = self._alive_targets()
        if not targets:
            return protocol.error(
                "unavailable", "no alive nodes in the current view"
            )
        responses: list[dict[str, Any]] = []
        for target in targets:
            response = self._forward(target, request)
            if response is not None and response.get("ok"):
                responses.append(response)
        if not responses:
            return protocol.error(
                "unavailable", f"op {op!r} failed on every alive node"
            )
        if op == "metrics":
            return protocol.ok(
                metrics=_merge_metric_listings(
                    response["metrics"] for response in responses
                )
            )
        if op == "stats":
            merged: dict[str, int] = {}
            for response in responses:
                for field, value in dict(response["stats"]).items():
                    if isinstance(value, int):
                        merged[field] = merged.get(field, 0) + value
            merged["nodes_reporting"] = len(responses)
            return protocol.ok(stats=merged)
        if op == "checkpoint":
            return protocol.ok(
                checkpoint_seq=max(
                    int(response["checkpoint_seq"])
                    for response in responses
                )
            )
        return protocol.ok(flushed=True)


def _merge_metric_listings(
    listings: Iterable[list[dict[str, Any]]],
) -> list[dict[str, Any]]:
    seen: dict[tuple[str, tuple[tuple[str, str], ...]], dict[str, Any]] = {}
    for listing in listings:
        for entry in listing:
            identity = (
                str(entry["name"]),
                tuple(sorted(dict(entry.get("tags", {})).items())),
            )
            seen.setdefault(identity, entry)
    return [seen[identity] for identity in sorted(seen)]
