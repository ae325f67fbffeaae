"""Fleet-scale serving: sharded engines behind a deterministic router.

One :class:`~repro.serve.engine.ServingEngine` saturates at a fixed
offered-load knee; a city-scale fleet needs many.  A :class:`FleetEngine`
runs ``num_shards`` fully independent engine shards behind a router that
assigns every client to exactly one shard by hashing the client name
through :func:`repro.runtime.stable_hash`:

* **Deterministic** — the hash is CRC-32 of ``"fleet-route:{seed}:
  {client}"``, so the client→shard map is a pure function of
  ``(routing_seed, client, num_shards)``: identical in every process
  (no ``PYTHONHASHSEED`` dependence — the same bug class the DSRC
  channel fix removed) and across runs.
* **Sticky** — all of a client's requests land on the same shard, so a
  shard sees a coherent per-client stream (closed-loop control loops
  stay on one queue; per-client ordering is preserved).
* **Reshard-stable** — the 32-bit hash bucket is mapped to a shard by a
  jump consistent hash (:func:`route_bucket`) rather than modulo or
  range partition, so growing the fleet from N to M shards moves only
  the expected minimal ``1 - N/M`` fraction of clients, every moved
  client lands on one of the *new* shards, and the assignment
  factorizes through the bucket.

Shards share nothing at serve time — no queue, no lanes, no clock — so
the fleet result is exactly the per-shard results stitched together, and
shards can execute in parallel worker processes without any effect on
the request log.  Per-shard profiler snapshots are captured with the
same reset/merge dance the :class:`~repro.runtime.WorkerPool` uses for
chunks, so fleet profiles aggregate exactly (no double counting) while
still exposing per-shard breakdowns.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.detection.spod import SPOD
from repro.faults.serve import ShardFaultPlan
from repro.profiling import PROFILER
from repro.runtime import WorkerPool, derive_seed, resolve_workers, stable_hash
from repro.serve.engine import ServeConfig, ServeResult, ServingEngine
from repro.serve.requests import PerceptionRequest, RequestRecord, RequestStatus

__all__ = [
    "hash_bucket",
    "route_bucket",
    "route_client",
    "fallback_chain",
    "FailoverConfig",
    "FleetConfig",
    "FleetResult",
    "FleetEngine",
]

_BUCKETS = 2**32


def _avalanche(h: int) -> int:
    """Murmur3-style 32-bit finalizer (spreads every input bit)."""
    h %= _BUCKETS
    h ^= h >> 16
    h = (h * 0x85EBCA6B) % _BUCKETS
    h ^= h >> 13
    h = (h * 0xC2B2AE35) % _BUCKETS
    h ^= h >> 16
    return h


def hash_bucket(routing_seed: int, client: str) -> int:
    """The client's 32-bit routing bucket (shard-count independent).

    This is the quantity that must be process-stable: CRC-32 of a
    seed-salted string, never Python's randomized ``hash()``.  CRC-32 is
    linear — flipping one input byte XORs the output by a constant, so a
    seed change would barely move the *top* bits the range partition
    keys on — hence the murmur3-style avalanche finalizer on top, which
    spreads every input bit across the whole word while staying a pure
    integer function.
    """
    return _avalanche(stable_hash(f"fleet-route:{routing_seed}:{client}"))


def route_bucket(bucket: int, num_shards: int) -> int:
    """Jump consistent hash: bucket -> shard, reshard-minimal.

    Lamping & Veach's jump hash walks the bucket's deterministic jump
    sequence; a key's shard changes between N and M shards only when the
    sequence jumps into the newly added range, so growing the fleet
    moves the minimal expected ``1 - N/M`` of clients and every moved
    client lands on a *new* shard.  Pure integer arithmetic — stable in
    every process.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    state = bucket
    shard, candidate = 0, 0
    while candidate < num_shards:
        shard = candidate
        state = (state * 2862933555777941757 + 1) % 2**64
        candidate = int((shard + 1) * float(2**31) / float((state >> 33) + 1))
    return shard


def route_client(routing_seed: int, client: str, num_shards: int) -> int:
    """Which shard serves ``client``.

    Factorizes exactly as ``route_bucket(hash_bucket(seed, client),
    num_shards)`` — the bucket is shard-count independent, so resharding
    decisions depend on the client only through its bucket.
    """
    return route_bucket(hash_bucket(routing_seed, client), num_shards)


def fallback_chain(bucket: int, num_shards: int) -> tuple[int, ...]:
    """The bucket's failover order over the shards (a permutation).

    ``chain[0]`` is exactly :func:`route_bucket` — the healthy-fleet
    assignment is untouched.  Each further level re-avalanches the bucket
    and jump-hashes it into the shards not yet chosen, so:

    * a downed shard's clients spread roughly uniformly over the
      survivors (no thundering herd onto one neighbour), and
    * clients whose primary is healthy never move — failover moves
      *only* the downed shard's clients, and they return the moment it
      recovers (the chain is stateless, preference order is fixed).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    remaining = list(range(num_shards))
    chain: list[int] = []
    state = bucket % _BUCKETS
    while remaining:
        chain.append(remaining.pop(route_bucket(state, len(remaining))))
        state = _avalanche((state + 0x9E3779B9) % _BUCKETS)
    return tuple(chain)


@dataclass(frozen=True)
class FailoverConfig:
    """Retry / hedging / circuit-breaker knobs of the resilient router.

    Attributes:
        failure_threshold: consecutive delivery failures that open a
            shard's breaker (failed shards stop receiving first-choice
            traffic until the cooldown expires).
        cooldown_ms: how long an open breaker deflects traffic before
            the shard is probed again.
        max_retries: delivery retries per request beyond the first
            attempt (all capped by the request's deadline).
        retry_backoff_ms: base of the seeded exponential backoff —
            retry ``k`` waits ``retry_backoff_ms * 2^k`` inflated by up
            to ``retry_jitter``.
        retry_jitter: uniform jitter fraction on each backoff (seeded,
            deterministic; decorrelates retry storms).
        hedge_ms: arm a hedged duplicate this long after a request's
            first delivery failure (0 disables).  The duplicate races
            the retries; whichever delivers first wins and the loser is
            deduplicated deterministically.
    """

    failure_threshold: int = 1
    cooldown_ms: float = 1000.0
    max_retries: int = 2
    retry_backoff_ms: float = 20.0
    retry_jitter: float = 0.5
    hedge_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.cooldown_ms <= 0:
            raise ValueError("cooldown_ms must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_ms < 0:
            raise ValueError("retry_backoff_ms must be non-negative")
        if self.retry_jitter < 0:
            raise ValueError("retry_jitter must be non-negative")
        if self.hedge_ms < 0:
            raise ValueError("hedge_ms must be non-negative (0 disables)")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet topology and routing knobs.

    Attributes:
        num_shards: independent engine shards.
        routing_seed: salts the routing hash; changing it reshuffles the
            client→shard map without touching workload seeds.
        shard_config: the :class:`ServeConfig` every shard runs (shards
            are homogeneous by design — capacity scales by count, the
            per-shard knobs stay comparable across fleet sizes).
        shard_faults: injected shard-failure schedule
            (:class:`~repro.faults.serve.ShardFaultPlan`); None serves
            fair-weather and keeps the routing path byte-identical to
            the fault-free fleet.
        failover: resilient-router knobs (used when ``shard_faults`` is
            set).
    """

    num_shards: int = 2
    routing_seed: int = 0
    shard_config: ServeConfig = field(default_factory=ServeConfig)
    shard_faults: ShardFaultPlan | None = None
    failover: FailoverConfig = field(default_factory=FailoverConfig)

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")


@dataclass
class _ShardBreaker:
    """Per-shard circuit breaker on the virtual clock.

    Modeled on the session loop's per-peer ``PeerHealth`` breaker
    (:mod:`repro.fusion.agent`): consecutive delivery failures open it
    for a cooldown, during which the router prefers the next shard in
    each client's fallback chain.
    """

    consecutive_failures: int = 0
    open_until_ms: float = -1.0

    def is_open(self, t_ms: float) -> bool:
        return t_ms < self.open_until_ms

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.open_until_ms = -1.0

    def record_failure(
        self, t_ms: float, threshold: int, cooldown_ms: float
    ) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= threshold:
            self.open_until_ms = t_ms + cooldown_ms


@dataclass
class _RouteState:
    """The resilient router's in-flight view of one request."""

    request: PerceptionRequest
    chain: tuple[int, ...]
    outstanding: int = 0
    attempts_made: int = 0
    retries_scheduled: int = 0
    hedged: bool = False
    delivered: bool = False
    served_shard: int = -1
    delivered_ms: float = -1.0
    tried: set = field(default_factory=set)


@dataclass
class FleetResult:
    """Everything one :meth:`FleetEngine.serve` run produced.

    Attributes:
        shard_results: per-shard :class:`ServeResult`, shard order.
        assignments: client → shard index for every client seen.
        config: the fleet config that produced this.
        wall_seconds: real time of the whole fleet serve call.
        shard_profiles: per-shard profiler snapshots (empty dicts when
            profiling is disabled).
        unrouted_records: requests the resilient router could not place
            on any shard before their deadline (``FAILED_SHARD_DOWN``,
            decided parent-side; empty without injected faults).
        routing: resilient-router statistics — retries, failovers,
            hedges issued/cancelled, moved clients, unrouted count
            (empty without injected faults).
    """

    shard_results: list[ServeResult]
    assignments: dict[str, int]
    config: FleetConfig
    wall_seconds: float
    shard_profiles: list[dict] = field(default_factory=list)
    unrouted_records: list[RequestRecord] = field(default_factory=list)
    routing: dict = field(default_factory=dict)

    def shard_clients(self) -> list[list[str]]:
        """Clients per shard (sorted), shard order."""
        clients: list[list[str]] = [[] for _ in self.shard_results]
        for client, shard in sorted(self.assignments.items()):
            clients[shard].append(client)
        return clients

    def merged(self) -> ServeResult:
        """One synthetic :class:`ServeResult` over the whole fleet.

        Records merge in request-id order (ids are globally unique across
        shards because routing partitions clients); batches keep shard
        order.  Scalar fields aggregate the only honest way: queue depth
        and lane high-water marks take the max (they are per-shard
        resources, not fleet-wide ones), wall clocks sum.
        """
        records = sorted(
            (
                r
                for result in self.shard_results
                for r in result.records
            ),
            key=lambda record: record.request_id,
        )
        if self.unrouted_records:
            records = sorted(
                records + list(self.unrouted_records),
                key=lambda record: record.request_id,
            )
        batches = [b for result in self.shard_results for b in result.batches]
        return ServeResult(
            records=records,
            batches=batches,
            config=self.config.shard_config,
            max_queue_depth=max(
                (r.max_queue_depth for r in self.shard_results), default=0
            ),
            wall_seconds=sum(r.wall_seconds for r in self.shard_results),
            service_wall_seconds=sum(
                r.service_wall_seconds for r in self.shard_results
            ),
            lane_events=[
                event
                for result in self.shard_results
                for event in result.lane_events
            ],
            max_lanes_used=max(
                (r.max_lanes_used for r in self.shard_results), default=1
            ),
        )

    def log(self) -> list[dict]:
        """Shard-tagged determinism log of the whole fleet.

        Every shard's log entries are tagged with their shard index, so
        the fleet log pins not only each request's outcome but *where*
        it was served — a routing regression cannot hide behind
        otherwise-identical per-request outcomes.
        """
        entries: list[dict] = []
        for shard, result in enumerate(self.shard_results):
            for entry in result.log():
                entries.append(dict(entry, shard=shard))
        for record in self.unrouted_records:
            entries.append(dict(record.log_entry(), shard=-1))
        if self.routing and any(self.routing.values()):
            # Elided when every stat is zero so a quiet fault plan stays
            # byte-identical to the fault-free fleet log.
            entries.append(dict(self.routing, entry="routing", shard=-1))
        return entries

    def log_json(self) -> str:
        """Canonical JSON of :meth:`log` — the fleet bit-identity surface."""
        return json.dumps(self.log(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 of :meth:`log_json` (the determinism fingerprint)."""
        return hashlib.sha256(self.log_json().encode()).hexdigest()

    def counts(self) -> dict[str, int]:
        """Fleet-wide requests per terminal status (plus total offered)."""
        return self.merged().counts()


class FleetEngine:
    """N independent serving shards behind the deterministic router.

    Every shard gets its own :class:`ServingEngine` over the *same*
    detector object (read-only at serve time, so sharing is safe) and
    the same :class:`ServeConfig`.  ``workers`` parallelizes across
    shards — each shard engine runs single-worker inside its process, so
    the process tree stays flat and the per-shard logs are what a lone
    engine would have produced for that shard's clients.
    """

    def __init__(
        self,
        detector: SPOD | None = None,
        config: FleetConfig | None = None,
        workers: int | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        self.workers = resolve_workers(workers)
        detector = detector or SPOD.pretrained()
        self.shards = [
            ServingEngine(
                detector=detector, config=self.config.shard_config, workers=1
            )
            for _ in range(self.config.num_shards)
        ]

    def route(self, client: str) -> int:
        """Shard index serving ``client``."""
        return route_client(
            self.config.routing_seed, client, self.config.num_shards
        )

    def serve(
        self,
        requests: list[PerceptionRequest],
        lost: list[PerceptionRequest] = (),
        closed_loop: list = (),
    ) -> FleetResult:
        """Serve one workload across the fleet.

        Open-loop requests, ingress-lost requests and closed-loop clients
        are all partitioned by the router; each shard then serves its
        slice exactly as a standalone engine would.  With ``workers > 1``
        shards run in parallel processes — the request log is unaffected
        because shards share no scheduling state.

        With :attr:`FleetConfig.shard_faults` set, open-loop requests go
        through the resilient router instead of the static partition:
        health-aware failover down each client's fallback chain, seeded
        exponential-backoff retries and optional hedged duplicates, all
        decided parent-side on the virtual clock, so the shard-tagged
        log stays bit-identical at any worker count under injected
        faults.  Closed-loop clients stay pinned to their home shard (a
        control loop is a stateful conversation, not a retryable
        datagram); the engine-side fault machinery fails their requests
        fast during down windows and the loop's own backoff takes over.
        """
        wall_start = time.perf_counter()
        seed = self.config.routing_seed
        num_shards = self.config.num_shards
        plan = self.config.shard_faults
        assignments: dict[str, int] = {}

        def shard_of(client: str) -> int:
            shard = assignments.get(client)
            if shard is None:
                shard = route_client(seed, client, num_shards)
                assignments[client] = shard
            return shard

        shard_requests: list[list[PerceptionRequest]] = [
            [] for _ in range(num_shards)
        ]
        shard_lost: list[list[PerceptionRequest]] = [
            [] for _ in range(num_shards)
        ]
        shard_loops: list[list] = [[] for _ in range(num_shards)]
        unrouted_records: list[RequestRecord] = []
        routing_stats: dict = {}
        patch: dict[int, tuple[int, int, float]] = {}
        if plan is None:
            for request in requests:
                shard_requests[shard_of(request.client)].append(request)
        else:
            unrouted_records, routing_stats, patch = self._route_resilient(
                requests, shard_requests, shard_of
            )
        for request in lost:
            shard_lost[shard_of(request.client)].append(request)
        for client in closed_loop:
            shard_loops[shard_of(client.client)].append(client)

        payloads = [
            (
                self.shards[shard],
                shard_requests[shard],
                shard_lost[shard],
                shard_loops[shard],
                plan.view(shard) if plan is not None else None,
            )
            for shard in range(num_shards)
        ]
        # One shard or one worker runs the shards inline.  A process
        # pool merges each shard's profile into the parent via its chunk
        # snapshots; either way the per-shard copies are kept for the
        # breakdown.
        with WorkerPool(min(self.workers, num_shards), chunk_size=1) as pool:
            outcomes = pool.map(_serve_shard_task, payloads)
        shard_results = [result for result, _ in outcomes]
        shard_profiles = [profile for _, profile in outcomes]

        if patch:
            # Stamp the router's journey onto the delivered records —
            # parent-side, after serving, so worker layout cannot matter.
            # The arrival is restored to the client's true arrival and
            # the retry/hedge delay folded into the latency, so fleet
            # percentiles are end-to-end honest under faults.
            for result in shard_results:
                for record in result.records:
                    journey = patch.get(record.request_id)
                    if journey is None:
                        continue
                    record.attempts, record.failovers, delay = journey
                    if delay > 0:
                        record.arrival_ms -= delay
                        if record.latency_ms >= 0:
                            record.latency_ms += delay

        return FleetResult(
            shard_results=shard_results,
            assignments=assignments,
            config=self.config,
            wall_seconds=time.perf_counter() - wall_start,
            shard_profiles=shard_profiles,
            unrouted_records=unrouted_records,
            routing=routing_stats,
        )

    def _route_resilient(
        self,
        requests: list[PerceptionRequest],
        shard_requests: list[list[PerceptionRequest]],
        shard_of,
    ) -> tuple[list[RequestRecord], dict, dict[int, tuple[int, int, float]]]:
        """Place every open-loop request on a live shard (or fail it).

        A single parent-side pass over a virtual-time event heap.  Each
        request starts with one delivery attempt at its arrival; a
        failed attempt (target down, or the Gilbert-Elliott link ate it)
        opens/bumps the target's breaker, schedules a seeded
        exponential-backoff retry, and — once per request, when hedging
        is enabled — arms a hedged duplicate.  Every event re-picks the
        first shard in the client's :func:`fallback_chain` whose breaker
        is closed, so traffic drains away from failing shards after
        ``failure_threshold`` failures and returns after the cooldown.
        A request whose retries and hedge are exhausted (or deadline-
        capped) becomes a parent-side ``FAILED_SHARD_DOWN`` record.

        Everything — event order, backoff jitter, link drops — is a pure
        function of ``(plan.seed, request ids, virtual time)``; no shard
        state is read, so the pass is identical at any worker count.

        Appends delivered requests (arrival re-stamped to delivery time)
        to ``shard_requests`` in place; returns ``(unrouted_records,
        stats, {request_id: (attempts, failovers, delay_ms)})``.
        """
        plan = self.config.shard_faults
        failover = self.config.failover
        num_shards = self.config.num_shards
        breakers = [_ShardBreaker() for _ in range(num_shards)]
        chains: dict[str, tuple[int, ...]] = {}
        states: dict[int, _RouteState] = {}
        heap: list[tuple[float, int, int, str]] = []
        seq = 0
        stats = {
            "retries": 0,
            "failovers": 0,
            "hedges_issued": 0,
            "hedges_cancelled": 0,
            "unrouted": 0,
            "moved_clients": 0,
        }
        unrouted: list[RequestRecord] = []

        for request in requests:
            client = request.client
            shard_of(client)  # pin the primary assignment
            chain = chains.get(client)
            if chain is None:
                chain = fallback_chain(
                    hash_bucket(self.config.routing_seed, client), num_shards
                )
                chains[client] = chain
            state = _RouteState(request=request, chain=chain, outstanding=1)
            states[request.request_id] = state
            heapq.heappush(
                heap, (request.arrival_ms, request.request_id, seq, "attempt")
            )
            seq += 1

        while heap:
            t_ms, request_id, _, kind = heapq.heappop(heap)
            state = states[request_id]
            state.outstanding -= 1
            if state.delivered:
                if kind == "hedge":
                    stats["hedges_cancelled"] += 1
                continue
            target = next(
                (s for s in state.chain if not breakers[s].is_open(t_ms)),
                state.chain[0],
            )
            attempt = state.attempts_made
            state.attempts_made += 1
            state.tried.add(target)
            failed = plan.is_down(target, t_ms) or plan.ingress_dropped(
                target, request_id, attempt, t_ms
            )
            if not failed:
                breakers[target].record_success()
                state.delivered = True
                state.served_shard = target
                state.delivered_ms = t_ms
                request = state.request
                if t_ms != request.arrival_ms:
                    request = replace(request, arrival_ms=t_ms)
                shard_requests[target].append(request)
                if target != state.chain[0]:
                    stats["failovers"] += 1
                continue
            breakers[target].record_failure(
                t_ms, failover.failure_threshold, failover.cooldown_ms
            )
            deadline = state.request.deadline_ms
            if kind == "attempt":
                k = state.retries_scheduled
                if k < failover.max_retries:
                    jitter = float(
                        np.random.default_rng(
                            derive_seed(plan.seed, "fleet-retry", request_id, k)
                        ).random()
                    )
                    delay = (
                        failover.retry_backoff_ms
                        * (2.0**k)
                        * (1.0 + failover.retry_jitter * jitter)
                    )
                    t_next = t_ms + delay
                    if t_next < deadline - 1e-9:
                        state.retries_scheduled += 1
                        state.outstanding += 1
                        stats["retries"] += 1
                        heapq.heappush(
                            heap, (t_next, request_id, seq, "attempt")
                        )
                        seq += 1
                if failover.hedge_ms > 0 and not state.hedged:
                    t_hedge = t_ms + failover.hedge_ms
                    if t_hedge < deadline - 1e-9:
                        state.hedged = True
                        state.outstanding += 1
                        stats["hedges_issued"] += 1
                        heapq.heappush(
                            heap, (t_hedge, request_id, seq, "hedge")
                        )
                        seq += 1
            if state.outstanding == 0:
                record = RequestRecord.for_request(state.request)
                record.status = RequestStatus.FAILED_SHARD_DOWN
                record.decided_ms = t_ms
                record.attempts = state.attempts_made
                record.failovers = max(0, len(state.tried) - 1)
                unrouted.append(record)
                stats["unrouted"] += 1

        unrouted.sort(key=lambda record: record.request_id)
        moved = {
            state.request.client
            for state in states.values()
            if state.delivered and state.served_shard != state.chain[0]
        }
        stats["moved_clients"] = len(moved)
        patch = {
            request_id: (
                state.attempts_made,
                state.chain.index(state.served_shard),
                state.delivered_ms - state.request.arrival_ms,
            )
            for request_id, state in states.items()
            if state.delivered
        }
        PROFILER.count("fleet.route_retries", stats["retries"])
        PROFILER.count("fleet.route_failovers", stats["failovers"])
        PROFILER.count("fleet.route_unrouted", stats["unrouted"])
        return unrouted, stats, patch


def _serve_shard_task(payload) -> tuple[ServeResult, dict]:
    """Serve one shard's slice and capture its exact profiler delta.

    Runs in a worker process (or inline).  The dance mirrors the worker
    pool's chunk accounting: save whatever the ambient registry already
    holds, record the shard against a clean registry, then restore
    ambient + shard so the process-local registry is exactly what it
    would have been without the detour.  Inline, the parent registry ends
    up with the shard merged once; under the pool, the worker's chunk
    snapshot (which the pool merges into the parent) equals ambient +
    shard, again exactly once.
    """
    engine, shard_requests, shard_lost, shard_loops, fault_view = payload
    if not PROFILER.enabled:
        result = engine.serve(
            shard_requests, lost=shard_lost, closed_loop=shard_loops,
            faults=fault_view,
        )
        return result, {}
    ambient = PROFILER.snapshot()
    PROFILER.reset()
    try:
        result = engine.serve(
            shard_requests, lost=shard_lost, closed_loop=shard_loops,
            faults=fault_view,
        )
        shard_profile = PROFILER.snapshot()
    finally:
        PROFILER.reset()
        PROFILER.merge_snapshot(ambient)
    PROFILER.merge_snapshot(shard_profile)
    return result, shard_profile
