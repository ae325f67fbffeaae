"""The on-board Cooper agent: the full per-timestep OBU loop.

Ties every subsystem into the loop a deployed vehicle would run each
exchange period:

1. **observe** — scan the world, read GPS + IMU (``repro.sensors``),
2. **share** — ROI-extract, background-subtract, compress and serialise an
   exchange package (``repro.network.roi_policy`` / ``repro.fusion.package``),
3. **transmit** — fragment the package over the DSRC channel
   (``repro.network``),
4. **fuse + detect** — align received packages, merge, run SPOD
   (``repro.fusion`` / ``repro.detection``).

:class:`CooperSession` drives two or more agents through a timeline,
delivering each agent's package to the others — the system-level
simulation behind the paper's end-to-end claims.  Every exchange period
runs one three-phase pipeline, the same for every fusion mode and worker
count:

* **sense** — one task per agent observes, then serialises its raw
  exchange package or, in the feature modes, taps its own detector;
* **exchange** — the parent builds the feature-mode wire, runs the shared
  channel and the fault/resilience machinery, decodes each delivered
  package once and assembles every receiver's inbox from those packages;
* **perceive** — one task per agent fuses its inbox with its own data and
  runs its own detector (as each Cooper vehicle does).

The tasks run on a :class:`repro.runtime.WorkerPool`; with one worker it
runs them inline, on the session's own objects.

The session is built to *degrade*, not crash, under faults: an optional
:class:`repro.faults.FaultPlan` injects bursty channel loss, latency
spikes and sensor faults, and the resilience mechanisms configured by
:class:`ResilienceConfig` absorb them — a pre-merge sanity gate
quarantines corrupted packages, an age-bounded stale-package cache
re-aligns a peer's last delivery through the same Eq. (1)-(3) transform
when a fresh one is lost, and a per-peer circuit breaker stops burning
airtime on dark links.  When every peer is dark the loop falls back to
ego-only perception.  Every degradation event is mirrored into the
session's :attr:`CooperSession.degradation` table and the
:mod:`repro.profiling` registry, and all fault/resilience decisions run
in the parent process or as pure seeded functions, so logs stay
bit-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detection.detections import Detection
from repro.detection.spod import SPOD
from repro.faults.plan import FaultPlan, SensorFaults
from repro.fusion.align import package_intrinsically_sane, pose_delta_plausible
from repro.fusion.cooper import Cooper
from repro.fusion.feature import (
    ConfidenceRequest,
    FeatureFusionConfig,
    FeaturePackage,
    FeatureTap,
    build_feature_package,
    build_request,
    feature_package_intrinsically_sane,
    perceive_tap,
)
from repro.fusion.package import ExchangePackage
from repro.fusion.temporal import StalePackageCache
from repro.network.comm import CommRecorder
from repro.network.dsrc import DsrcChannel
from repro.network.roi_policy import RoiPolicy, extract_roi
from repro.network.scheduler import Demand, SharedChannelScheduler
from repro.profiling import PROFILER
from repro.runtime import WorkerPool, resolve_workers, stable_hash
from repro.scene.trajectories import Trajectory
from repro.scene.world import World
from repro.sensors.rig import RigObservation, SensorRig
from repro.temporal import TemporalState

__all__ = [
    "AgentStep",
    "CooperAgent",
    "CooperSession",
    "FUSION_MODES",
    "PeerHealth",
    "ResilienceConfig",
]

#: Session fusion modes: raw-cloud merge (the paper's low-level fusion;
#: ROI policies make it the "roi" point of the frontier), F-Cooper style
#: feature-map exchange, and Where2comm style confidence-gated features.
FUSION_MODES = ("raw", "feature", "gated")


def _observe_seed(session_seed: int, step_index: int, agent_index: int) -> int:
    """Per-agent sensing seed for one exchange period."""
    return session_seed + 101 * step_index + agent_index


def _channel_seed(session_seed: int, step_index: int, sender: str) -> int:
    """Per-broadcast DSRC seed, stable across processes.

    The sender's name is mixed in through :func:`repro.runtime.stable_hash`
    (CRC-32) rather than built-in ``hash``, whose value changes with
    ``PYTHONHASHSEED`` — channel losses must be identical run-to-run and
    worker-to-worker for the determinism contract to hold.
    """
    return session_seed + 7 * step_index + stable_hash(sender) % 97


@dataclass
class AgentStep:
    """One agent's record of one exchange period.

    Attributes:
        time: simulation time (seconds).
        observation: the agent's own sensing this period.
        sent_bits: size of the package it broadcast.
        received_packages: decoded packages that reached the merge (fresh
            deliveries plus any stale-cache fallbacks).  They are the
            parent's decoded packages, shared with every other receiver and
            with the fallback cache.  In the feature fusion modes these are
            :class:`FeaturePackage` instances.
        delivered: per-peer channel outcome for this period's broadcasts
            (False covers loss, deadline drops, blackouts and circuit-
            breaker skips — the fresh package did not arrive).
        stale_count: how many of ``received_packages`` were age-bounded
            stale-cache fallbacks rather than fresh deliveries.
        detections: SPOD output on the fused cloud.
    """

    time: float
    observation: RigObservation
    sent_bits: int
    received_packages: list[ExchangePackage] = field(default_factory=list)
    delivered: list[bool] = field(default_factory=list)
    stale_count: int = 0
    detections: list[Detection] = field(default_factory=list)


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the session's graceful-degradation machinery.

    Attributes:
        stale_fallback: merge a peer's last delivered package (re-aligned
            by its own recorded pose through Eq. (1)-(3)) when the fresh
            one is lost.
        max_stale_steps: oldest cache entry the fallback may use.
        breaker_threshold: consecutive delivery failures that open a
            peer's circuit breaker (0 disables the breaker).
        breaker_cooldown_steps: steps a tripped breaker skips the peer
            before probing it again.
        sanity_gate: reject corrupted packages (non-finite or implausible
            points/poses) before they reach the merge.
        max_peer_distance_m: sanity bound on the sender-receiver BEV
            distance (DSRC is a sub-kilometre radio).
        max_point_range_m: sanity bound on received point coordinates.
        max_pose_jump_m_per_step: sanity bound on how far a peer's
            claimed pose may move per step from its last delivery (50 m
            in one second is 180 km/h — anything above is a corrupted
            fix, not a vehicle).
    """

    stale_fallback: bool = True
    max_stale_steps: int = 3
    breaker_threshold: int = 3
    breaker_cooldown_steps: int = 2
    sanity_gate: bool = True
    max_peer_distance_m: float = 500.0
    max_point_range_m: float = 300.0
    max_pose_jump_m_per_step: float = 50.0

    def __post_init__(self) -> None:
        if self.max_stale_steps < 0:
            raise ValueError("max_stale_steps must be non-negative")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be non-negative")
        if self.breaker_cooldown_steps < 1:
            raise ValueError("breaker_cooldown_steps must be at least 1")
        if self.max_pose_jump_m_per_step <= 0:
            raise ValueError("max_pose_jump_m_per_step must be positive")


@dataclass
class PeerHealth:
    """Circuit-breaker state of one broadcasting peer's link.

    Attributes:
        consecutive_failures: current run of failed deliveries.
        open_until_step: the breaker skips the peer for steps strictly
            below this; the first step at or past it is the probe.
    """

    consecutive_failures: int = 0
    open_until_step: int = 0

    def is_open(self, step: int) -> bool:
        """Should this step skip the peer entirely?"""
        return step < self.open_until_step

    def record_success(self) -> None:
        """A delivery landed: close the breaker's failure run."""
        self.consecutive_failures = 0

    def record_failure(self, step: int, threshold: int, cooldown: int) -> None:
        """A delivery failed; trip the breaker once the run hits threshold."""
        self.consecutive_failures += 1
        if threshold > 0 and self.consecutive_failures >= threshold:
            self.open_until_step = step + 1 + cooldown


@dataclass
class _Broadcast:
    """Parent-side fate of one sender's per-step broadcast.

    Attributes:
        delivered: did the fresh package clear the channel?
        package: the decoded package every receiver merges (None unless
            delivered).
        intrinsically_sane: receiver-independent sanity verdict.
    """

    delivered: bool
    package: "ExchangePackage | FeaturePackage | None" = None
    intrinsically_sane: bool = True


@dataclass
class CooperAgent:
    """One connected vehicle's Cooper stack.

    Attributes:
        name: vehicle identifier.
        rig: its sensors.
        trajectory: its motion through the session.
        policy: what it shares each period.
        cooper: fusion + detection pipeline (detector shared across agents
            is fine — SPOD is stateless between calls).
    """

    name: str
    rig: SensorRig
    trajectory: Trajectory
    policy: RoiPolicy = field(default_factory=RoiPolicy)
    cooper: Cooper = field(default_factory=lambda: Cooper(SPOD.pretrained()))

    def observe(
        self,
        world: World,
        t: float,
        seed: int,
        faults: SensorFaults | None = None,
        scan_cache=None,
    ) -> RigObservation:
        """Sense the world at time ``t`` (optionally under sensor faults).

        ``scan_cache`` threads the temporal layer's per-agent raycast
        cache into the rig; scans are bit-identical with or without it.
        """
        return self.rig.observe(
            world,
            self.trajectory.pose_at(t),
            seed=seed,
            faults=faults,
            scan_cache=scan_cache,
        )

    def build_package(
        self, world: World, observation: RigObservation, t: float
    ) -> ExchangePackage:
        """Produce this period's outgoing exchange package."""
        with PROFILER.stage("agent.build_package"):
            background = [
                a.box.transformed(observation.true_pose.from_world())
                for a in world.background()
            ]
            roi = extract_roi(observation.scan.cloud, self.policy, background)
            return ExchangePackage(
                cloud=roi,
                pose=observation.measured_pose,
                sender=self.name,
                beam_count=self.rig.lidar.pattern.num_beams,
                timestamp=t,
            )

    def perceive(
        self, observation: RigObservation, packages: list[ExchangePackage]
    ) -> list[Detection]:
        """Fuse received packages with the native scan and detect."""
        result = self.cooper.perceive(
            observation.scan.cloud, observation.measured_pose, packages
        )
        return result.detections


@dataclass
class CooperSession:
    """Drives multiple agents through a shared timeline.

    Attributes:
        world: the shared environment.
        agents: the participating vehicles.
        channel: the (shared) DSRC link model.
        faults: optional seeded fault schedule injected into the channel
            and every rig (None — the clean-world behaviour).
        resilience: the graceful-degradation knobs (defaults are inert in
            a fault-free run: nothing is ever stale, insane or dark).
        temporal: carry each agent's scan geometry cache
            (``repro.temporal``) across steps, in every fusion mode.  The
            cache verifies its keys exactly, so logs are bit-identical to a
            cold run at any worker count.
        fusion_mode: what crosses the wire each period — ``"raw"``
            (exchange packages of points; an agent's :class:`RoiPolicy`
            decides how much cloud), ``"feature"`` (F-Cooper style
            :class:`FeaturePackage` broadcasts, fused by elementwise
            maxout on the receiver grid), or ``"gated"`` (Where2comm
            style: every agent additionally broadcasts a small
            :class:`ConfidenceRequest` and senders ship only foreground
            features some requester is missing).
        feature_config: gating thresholds for the feature modes.
        scheduler: optional :class:`SharedChannelScheduler` admitting
            every period's broadcasts against one shared channel budget
            before the per-link DSRC model runs.  Deferred broadcasts are
            dropped for the period (the next period's package supersedes
            them — freshest-only) and counted as ``scheduler_deferrals``.
        comm: the per-frame bandwidth ledger, re-created by every
            :meth:`run`.  Records every message actually put on the air
            (packages and confidence requests), parent-side only, so the
            ledger is bit-identical at any worker count.
        degradation: per-run degradation event counts, populated by
            :meth:`run` (also mirrored into ``PROFILER`` counters under
            ``session.*`` when profiling is enabled).
    """

    world: World
    agents: list[CooperAgent]
    channel: DsrcChannel = field(default_factory=DsrcChannel)
    faults: FaultPlan | None = None
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    temporal: bool = False
    fusion_mode: str = "raw"
    feature_config: FeatureFusionConfig = field(
        default_factory=FeatureFusionConfig
    )
    scheduler: SharedChannelScheduler | None = None
    comm: CommRecorder = field(default_factory=CommRecorder, repr=False)
    degradation: dict[str, int] = field(
        default_factory=dict, init=False, repr=False
    )
    _health: dict[str, PeerHealth] = field(
        default_factory=dict, init=False, repr=False
    )
    _stale_cache: StalePackageCache = field(
        default_factory=StalePackageCache, init=False, repr=False
    )
    _temporal: dict[str, TemporalState] = field(
        default_factory=dict, init=False, repr=False
    )

    def run(
        self,
        duration_seconds: float = 8.0,
        period_seconds: float = 1.0,
        seed: int = 0,
        workers: int | None = None,
    ) -> dict[str, list[AgentStep]]:
        """Simulate the session; returns each agent's step log.

        Every step's sense and perceive tasks run on one
        :class:`WorkerPool` of ``min(workers, len(agents))`` workers
        (``None`` defers to ``REPRO_WORKERS``, default 1); one worker runs
        them inline.  Logs are bit-identical at any worker count even with
        ``faults`` set: sensing, channel and fault seeds are derived per
        (step, agent) independently of scheduling, and all
        delivery/resilience decisions run in the parent.
        """
        if period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        if self.fusion_mode not in FUSION_MODES:
            raise ValueError(
                f"fusion_mode must be one of {FUSION_MODES}, "
                f"got {self.fusion_mode!r}"
            )
        self.comm = CommRecorder()
        self.degradation = {}
        self._health = {}
        self._stale_cache = StalePackageCache(
            max_age_steps=self.resilience.max_stale_steps
        )
        if self.temporal:
            self._temporal = {agent.name: TemporalState() for agent in self.agents}
        else:
            self._temporal = {}
        logs: dict[str, list[AgentStep]] = {a.name: [] for a in self.agents}
        times = np.arange(0.0, duration_seconds, period_seconds)
        # One pool for the whole session: workers warm up once and serve
        # both fan-out phases of every step.  Chunk size 1 keeps each
        # agent's (heavy) task a separate unit of work.
        with WorkerPool(
            min(resolve_workers(workers), len(self.agents)),
            initializer=_session_worker_init,
            initargs=(
                self.world,
                self.agents,
                [self._temporal.get(agent.name) for agent in self.agents],
                self.fusion_mode,
            ),
            chunk_size=1,
        ) as pool:
            for step_index, t in enumerate(times):
                with PROFILER.stage("session.step"):
                    self._step(pool, logs, float(t), step_index, seed)
        return logs

    # -- degradation accounting -------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        """Record a degradation event in both observability surfaces."""
        self.degradation[name] = self.degradation.get(name, 0) + value
        PROFILER.count(f"session.{name}", value)

    def _resolve_sensor_faults(
        self, step_index: int, agent_name: str
    ) -> SensorFaults | None:
        """Resolve (and count) one agent's sensor faults for one step."""
        if self.faults is None:
            return None
        faults = self.faults.sensor_faults(step_index, agent_name)
        if faults.lidar_blackout:
            self._count("lidar_blackouts")
        if faults.gps_dropout:
            self._count("gps_dropouts")
        if faults.imu_yaw_offset_deg != 0.0:
            self._count("imu_glitches")
        if faults.gps_bias != (0.0, 0.0, 0.0):
            self._count("gps_bias_steps")
        return faults if faults.any else None

    # -- temporal state ---------------------------------------------------
    def temporal_states(self) -> dict[str, TemporalState]:
        """The per-agent temporal states of the last run.

        Inline (one worker) the steps ran on exactly these states; forked
        workers run on copy-on-fork copies of them, which — the caches
        being exactly verified — can only change speed.
        """
        return dict(self._temporal)

    # -- exchange (phase 2, parent-side) -----------------------------------
    def _deserialize_package(self, data: bytes):
        """Decode one wire payload per the session's fusion mode."""
        if self.fusion_mode == "raw":
            return ExchangePackage.deserialize(data)
        return FeaturePackage.deserialize(data)

    def _package_intrinsically_sane(self, package) -> bool:
        """The receiver-independent sanity verdict for either wire format."""
        if isinstance(package, FeaturePackage):
            return feature_package_intrinsically_sane(package)
        return package_intrinsically_sane(
            package, self.resilience.max_point_range_m
        )

    def _admitted_senders(
        self, wire: dict[str, tuple[bytes, int]], step_index: int
    ) -> set[str] | None:
        """Shared-channel admission for this step's broadcasts (or None).

        Senders whose circuit breaker is open never reach the channel and
        therefore never compete for capacity.  Deferred demands are
        dropped rather than retransmitted later: the sender's next-period
        package supersedes this one (freshest-only), so the scheduler's
        backlog is cleared after each admission round.
        """
        if self.scheduler is None:
            return None
        resilience = self.resilience
        demands = [
            Demand(sender=agent.name, bits=wire[agent.name][1])
            for agent in self.agents
            if not (
                resilience.breaker_threshold > 0
                and self._health.setdefault(
                    agent.name, PeerHealth()
                ).is_open(step_index)
            )
        ]
        report = self.scheduler.schedule_second(demands)
        self.scheduler.drop_backlog()
        if report.deferred:
            self._count("scheduler_deferrals", len(report.deferred))
        return {demand.sender for demand in report.delivered}

    def _broadcast_outcomes(
        self,
        wire: dict[str, tuple[bytes, int]],
        step_index: int,
        seed: int,
    ) -> dict[str, _Broadcast]:
        """Decide every sender's broadcast fate for one step.

        The shared DSRC channel, the optional shared-channel scheduler,
        the fault plan's per-link conditions and the circuit breaker all
        act here, in the parent, in agent order, which is what keeps
        fault schedules and health state identical at any worker count.
        Each delivered package is decoded once: that package feeds the
        sanity gate, the fallback cache and every receiver's merge.  Every
        transmission that reaches the air is entered into the :attr:`comm`
        ledger.
        """
        resilience = self.resilience
        self.comm.note_frame(step_index)
        kind = "cloud" if self.fusion_mode == "raw" else "features"
        admitted = self._admitted_senders(wire, step_index)
        outcomes: dict[str, _Broadcast] = {}
        for agent in self.agents:
            sender = agent.name
            payload, bits = wire[sender]
            health = self._health.setdefault(sender, PeerHealth())
            conditions = (
                self.faults.channel_conditions(step_index, sender)
                if self.faults is not None
                else None
            )
            if resilience.breaker_threshold > 0 and health.is_open(step_index):
                self._count("breaker_skips")
                outcomes[sender] = _Broadcast(delivered=False)
                continue
            if admitted is not None and sender not in admitted:
                # Deferred by the shared-channel scheduler: never reached
                # the air this period, so nothing enters the ledger.
                health.record_failure(
                    step_index,
                    resilience.breaker_threshold,
                    resilience.breaker_cooldown_steps,
                )
                outcomes[sender] = _Broadcast(delivered=False)
                continue
            if conditions is not None and conditions.blackout:
                self._count("channel_blackouts")
                health.record_failure(
                    step_index,
                    resilience.breaker_threshold,
                    resilience.breaker_cooldown_steps,
                )
                outcomes[sender] = _Broadcast(delivered=False)
                continue
            report = self.channel.transmit(
                bits,
                seed=_channel_seed(seed, step_index, sender),
                loss_rate=conditions.loss_rate if conditions else None,
                extra_latency_ms=(
                    conditions.extra_latency_ms if conditions else 0.0
                ),
            )
            self.comm.record(
                step_index, sender, kind, len(payload),
                delivered=report.delivered,
            )
            if report.timed_out:
                self._count("deadline_drops")
            if not report.delivered:
                health.record_failure(
                    step_index,
                    resilience.breaker_threshold,
                    resilience.breaker_cooldown_steps,
                )
                outcomes[sender] = _Broadcast(delivered=False)
                continue
            health.record_success()
            package = self._deserialize_package(payload)
            sane = (
                not resilience.sanity_gate
                or self._package_intrinsically_sane(package)
            )
            if sane and resilience.sanity_gate:
                # Pose-jump check against the peer's own last delivery: a
                # physically impossible move marks a corrupted fix and
                # must not poison the fallback cache.
                prev = self._stale_cache.last(sender)
                if prev is not None:
                    jump = np.hypot(
                        *(package.pose.position[:2] - prev.package.pose.position[:2])
                    )
                    limit = resilience.max_pose_jump_m_per_step * max(
                        1, step_index - prev.step
                    )
                    sane = bool(jump <= limit)
            if sane:
                self._stale_cache.store(sender, package, step_index)
            else:
                self._count("sanity_rejects")
            outcomes[sender] = _Broadcast(
                delivered=True, package=package, intrinsically_sane=sane
            )
        return outcomes

    def _receiver_inbox(
        self,
        receiver: str,
        receiver_pose,
        outcomes: dict[str, _Broadcast],
        step_index: int,
    ) -> tuple[list[ExchangePackage | FeaturePackage], list[bool], int]:
        """Assemble one receiver's merge inbox from the broadcast fates.

        Returns ``(packages, delivered_flags, stale_count)``: the decoded
        packages to merge (fresh deliveries that passed the sanity gate,
        then stale-cache fallbacks for peers that went dark), the per-peer
        channel outcome flags, and how many packages came from the cache.
        """
        resilience = self.resilience
        packages: list[ExchangePackage | FeaturePackage] = []
        flags: list[bool] = []
        stale = 0
        for agent in self.agents:
            sender = agent.name
            if sender == receiver:
                continue
            outcome = outcomes[sender]
            flags.append(outcome.delivered)
            usable = outcome.delivered and outcome.intrinsically_sane
            if (
                usable
                and resilience.sanity_gate
                and not pose_delta_plausible(
                    outcome.package,
                    receiver_pose,
                    resilience.max_peer_distance_m,
                )
            ):
                self._count("sanity_rejects")
                usable = False
            if usable:
                packages.append(outcome.package)
                continue
            if not resilience.stale_fallback:
                continue
            entry = self._stale_cache.recall(sender, step_index)
            # A same-step entry is the very package just rejected for
            # this receiver — only genuinely older deliveries qualify.
            if (
                entry is not None
                and entry.step < step_index
                and (
                    not resilience.sanity_gate
                    or pose_delta_plausible(
                        entry.package,
                        receiver_pose,
                        resilience.max_peer_distance_m,
                    )
                )
            ):
                packages.append(entry.package)
                stale += 1
                self._count("stale_fallbacks")
        if flags and not packages:
            self._count("ego_only_steps")
        return packages, flags, stale

    # -- the step pipeline ------------------------------------------------
    def _step(
        self,
        pool: WorkerPool,
        logs: dict[str, list[AgentStep]],
        t: float,
        step_index: int,
        seed: int,
    ) -> None:
        """Run one exchange period for every agent.

        Phase 1 (one task per agent): observe, then serialise the raw
        package or tap the agent's features.  Phase 2 (parent): the
        feature wire, the shared channel, the fault plan and the
        resilience state decide each receiver's inbox of decoded
        packages.  Phase 3 (one task per agent): fuse and detect.  A
        task's result is a pure function of its payload (seeds, faults
        and inbox included; the scan cache changes only speed), so logs
        are bit-identical at any worker count.
        """
        sensed = pool.map(
            _sense_task,
            [
                (
                    i,
                    t,
                    _observe_seed(seed, step_index, i),
                    self._resolve_sensor_faults(step_index, agent.name),
                )
                for i, agent in enumerate(self.agents)
            ],
        )
        observations: dict[str, RigObservation] = {}
        # Raw mode: each agent's serialised package; feature modes: its tap.
        prepared: dict[str, bytes | FeatureTap] = {}
        for agent, (observation, out) in zip(self.agents, sensed):
            observations[agent.name] = observation
            prepared[agent.name] = out

        raw = self.fusion_mode == "raw"
        if raw:
            wire = {
                name: (payload, len(payload) * 8)
                for name, payload in prepared.items()
            }
        else:
            wire = self._build_feature_wire(
                observations, prepared, t, step_index
            )
        outcomes = self._broadcast_outcomes(wire, step_index, seed)
        inboxes: dict[
            str, tuple[list[ExchangePackage | FeaturePackage], list[bool], int]
        ] = {
            agent.name: self._receiver_inbox(
                agent.name,
                observations[agent.name].measured_pose,
                outcomes,
                step_index,
            )
            for agent in self.agents
        }

        perceived = pool.map(
            _perceive_task,
            [
                (
                    i,
                    observations[agent.name],
                    None if raw else prepared[agent.name],
                    inboxes[agent.name][0],
                )
                for i, agent in enumerate(self.agents)
            ],
        )
        for agent, detections in zip(self.agents, perceived):
            received, delivered_flags, stale = inboxes[agent.name]
            fresh = len(received) - stale
            PROFILER.count("session.packages_received", fresh)
            PROFILER.count(
                "session.packages_lost", len(delivered_flags) - fresh
            )
            logs[agent.name].append(
                AgentStep(
                    time=t,
                    observation=observations[agent.name],
                    sent_bits=wire[agent.name][1],
                    received_packages=received,
                    delivered=delivered_flags,
                    stale_count=stale,
                    detections=detections,
                )
            )

    def _build_feature_wire(
        self,
        observations: dict[str, RigObservation],
        taps: dict[str, FeatureTap],
        t: float,
        step_index: int,
    ) -> dict[str, tuple[bytes, int]]:
        """Phase-2 packaging: confidence requests, then one package each.

        Runs in the parent in agent order.  In gated mode every agent
        first broadcasts its confidence request (a tiny control message,
        entered into the ledger but exempt from scheduler admission the
        way safety beacons are), then each sender packages the union of
        what the other requesters still want.
        """
        gated = self.fusion_mode == "gated"
        requests: dict[str, ConfidenceRequest] = {}
        if gated:
            for agent in self.agents:
                name = agent.name
                request = build_request(
                    taps[name].heat,
                    observations[name].measured_pose,
                    name,
                    timestamp=t,
                    config=self.feature_config,
                )
                requests[name] = request
                self.comm.record(
                    step_index, name, "request", request.size_bytes()
                )
        wire: dict[str, tuple[bytes, int]] = {}
        for agent in self.agents:
            name = agent.name
            tap = taps[name]
            package = build_feature_package(
                agent.cooper.detector.config.voxel_spec,
                tap.coords,
                tap.features,
                observations[name].measured_pose,
                name,
                timestamp=t,
                heat=tap.heat,
                requests=(
                    tuple(
                        requests[peer.name]
                        for peer in self.agents
                        if peer.name != name
                    )
                    if gated
                    else ()
                ),
                config=self.feature_config,
            )
            payload = package.serialize()
            wire[name] = (payload, len(payload) * 8)
        return wire


#: Session state installed by :func:`_session_worker_init` — in each
#: forked worker, or in the parent when the pool runs inline — so the
#: world, agent stacks and temporal states ship once per worker, not per
#: task.
_WORKER_WORLD: World | None = None
_WORKER_AGENTS: list[CooperAgent] = []
_WORKER_STATES: list[TemporalState | None] = []
_WORKER_MODE: str = "raw"


def _session_worker_init(
    world: World,
    agents: list[CooperAgent],
    temporal: list[TemporalState | None],
    fusion_mode: str,
) -> None:
    """Install the session's world, agents, temporal states and mode.

    Inline these are the session's own objects, so tasks update the very
    states :meth:`CooperSession.temporal_states` reports.  A forked worker
    holds copy-on-fork copies; which worker runs an agent's task depends
    on scheduling, but every temporal cache verifies its content exactly,
    so a worker's copy changes only speed, never results.
    """
    global _WORKER_WORLD, _WORKER_AGENTS, _WORKER_STATES, _WORKER_MODE
    _WORKER_WORLD = world
    _WORKER_AGENTS = agents
    _WORKER_STATES = temporal
    _WORKER_MODE = fusion_mode


def _sense_task(
    payload: tuple[int, float, int, SensorFaults | None],
) -> tuple[RigObservation, bytes | FeatureTap]:
    """Phase-1 task: one agent senses and prepares its broadcast.

    Returns the observation plus, in raw mode, the serialised exchange
    package or, in the feature modes, the agent's :class:`FeatureTap`.
    """
    agent_index, t, obs_seed, faults = payload
    agent = _WORKER_AGENTS[agent_index]
    state = _WORKER_STATES[agent_index]
    observation = agent.observe(
        _WORKER_WORLD,
        t,
        seed=obs_seed,
        faults=faults,
        scan_cache=None if state is None else state.scan,
    )
    if _WORKER_MODE == "raw":
        package = agent.build_package(_WORKER_WORLD, observation, t)
        return observation, package.serialize()
    return observation, FeatureTap.of(
        agent.cooper.detector,
        observation.scan.cloud,
        want_heat=_WORKER_MODE == "gated",
    )


def _perceive_task(
    payload: tuple[
        int,
        RigObservation,
        FeatureTap | None,
        list[ExchangePackage] | list[FeaturePackage],
    ],
) -> list[Detection]:
    """Phase-3 task: one agent fuses its decoded inbox and detects."""
    agent_index, observation, tap, packages = payload
    agent = _WORKER_AGENTS[agent_index]
    if _WORKER_MODE == "raw":
        return agent.perceive(observation, packages)
    return perceive_tap(
        agent.cooper.detector, observation.measured_pose, tap, packages
    )
