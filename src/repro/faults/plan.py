"""The :class:`FaultPlan`: a seeded, deterministic fault schedule.

A plan combines *stochastic* fault processes (Gilbert-Elliott burst
loss, latency jitter, per-step sensor fault probabilities) with
*scripted* :class:`FaultEvent`\\ s pinned to exact (step, agent) pairs.
Everything is resolved through pure functions of
``(plan.seed, step, agent)`` via CRC-32 seed derivation
(:func:`repro.runtime.derive_seed`), so the same plan produces the same
fault schedule in every process and at every worker count — the
precondition for the session determinism contract to survive fault
injection.

The plan never touches simulation objects itself; it only *answers
questions*: :meth:`FaultPlan.channel_conditions` for the network layer
and :meth:`FaultPlan.sensor_faults` for the sensor rig boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults.models import BurstLossModel, ChannelState, LatencyJitterModel
from repro.runtime import derive_seed

__all__ = [
    "FaultKind",
    "FaultEvent",
    "ChannelConditions",
    "SensorFaults",
    "NO_SENSOR_FAULTS",
    "FaultPlan",
    "IMU_GLITCH_DEG",
    "parse_fault_spec",
]

#: Bound (degrees) of a stochastic IMU yaw glitch's magnitude.
IMU_GLITCH_DEG = 5.0


def parse_fault_spec(
    spec: str, valid_keys: tuple[str, ...], presets: tuple[str, ...] = ()
) -> tuple[str | None, list[tuple[str, str]]]:
    """Parse a CLI fault spec into ``(preset, [(key, raw_value), ...])``.

    Shared by every fault-plan parser (:meth:`FaultPlan.from_spec`,
    :meth:`repro.faults.serve.ShardFaultPlan.from_spec`) so the spec
    grammar — an optional leading preset name followed by comma-separated
    ``key=value`` entries — and its error messages stay uniform.  Unknown
    keys and presets are rejected with an error that lists the valid
    choices, so a typo on the command line points straight at the fix.
    """
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    preset = None
    if parts and "=" not in parts[0]:
        preset = parts.pop(0)
        if preset not in presets:
            raise ValueError(
                f"unknown fault preset {preset!r} "
                f"(expected one of {sorted(presets)})"
            )
    entries: list[tuple[str, str]] = []
    for part in parts:
        key, _, raw = part.partition("=")
        if not raw:
            raise ValueError(f"malformed fault spec entry {part!r}")
        if key not in valid_keys:
            raise ValueError(
                f"unknown fault spec key {key!r} "
                f"(valid keys: {', '.join(sorted(valid_keys))})"
            )
        entries.append((key, raw))
    return preset, entries


class FaultKind(enum.Enum):
    """Scriptable fault types."""

    CHANNEL_BLACKOUT = "channel_blackout"
    LATENCY_SPIKE = "latency_spike"
    GPS_DROPOUT = "gps_dropout"
    GPS_BIAS = "gps_bias"
    IMU_YAW_GLITCH = "imu_yaw_glitch"
    LIDAR_BLACKOUT = "lidar_blackout"


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: ``kind`` hits ``agent`` at ``step``.

    Attributes:
        kind: what fails.
        step: the session step index it fires at.
        agent: vehicle name, or ``"*"`` for every agent.
        magnitude: fault-specific size (metres for GPS_BIAS, degrees for
            IMU_YAW_GLITCH, milliseconds for LATENCY_SPIKE; unused
            otherwise).
    """

    kind: FaultKind
    step: int
    agent: str = "*"
    magnitude: float = 0.0

    def applies(self, step: int, agent: str) -> bool:
        """Does this event fire for ``agent`` at ``step``?"""
        return self.step == step and self.agent in ("*", agent)


@dataclass(frozen=True)
class ChannelConditions:
    """Resolved channel faults for one (step, sender) broadcast.

    Attributes:
        loss_rate: effective per-attempt loss probability, or None for a
            clean link (the channel loses nothing of its own).
        extra_latency_ms: jitter/spike latency added to every attempt.
        blackout: scripted total outage — the broadcast is lost outright.
        state: the Gilbert-Elliott state behind ``loss_rate`` (or None
            when no burst model is configured).
    """

    loss_rate: float | None = None
    extra_latency_ms: float = 0.0
    blackout: bool = False
    state: ChannelState | None = None


@dataclass(frozen=True)
class SensorFaults:
    """Resolved sensor faults for one (step, agent) observation.

    Injected at the :meth:`repro.sensors.rig.SensorRig.observe` boundary.

    Attributes:
        gps_dropout: GPS fix lost — position degrades to a dead-reckoned
            estimate with error up to ``gps_error_m``.
        gps_error_m: magnitude bound of the dropout position error.
        gps_bias: additive (x, y, z) position bias in metres (drift).
        imu_yaw_offset_deg: additive yaw glitch in degrees.
        lidar_blackout: the scan returns zero points this step.
    """

    gps_dropout: bool = False
    gps_error_m: float = 3.0
    gps_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    imu_yaw_offset_deg: float = 0.0
    lidar_blackout: bool = False

    @property
    def any(self) -> bool:
        """True when at least one fault is active."""
        return (
            self.gps_dropout
            or self.lidar_blackout
            or self.imu_yaw_offset_deg != 0.0
            or self.gps_bias != (0.0, 0.0, 0.0)
        )


#: Shared "no faults" value returned for fault-free (step, agent) pairs.
NO_SENSOR_FAULTS = SensorFaults()

#: Preset plans for the CLI's ``--faults`` flag.
_PRESETS = {
    "none": {},
    "mild": {
        "burst": BurstLossModel(p_good_to_bad=0.1, loss_bad=0.6),
        "jitter": LatencyJitterModel(jitter_ms=2.0, spike_prob=0.05),
        "gps_dropout_prob": 0.05,
        "lidar_blackout_prob": 0.02,
    },
    "heavy": {
        "burst": BurstLossModel(p_good_to_bad=0.3, p_bad_to_good=0.3,
                                loss_bad=0.9),
        "jitter": LatencyJitterModel(jitter_ms=4.0, spike_prob=0.15,
                                     spike_ms=80.0),
        "gps_dropout_prob": 0.2,
        "gps_bias_drift_m_per_step": 0.05,
        "imu_glitch_prob": 0.1,
        "lidar_blackout_prob": 0.1,
    },
}


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule for one session.

    Attributes:
        seed: base seed every stochastic fault derives from.
        burst: bursty channel loss model (None — a clean link).
        jitter: latency jitter model (None — no extra latency).
        gps_dropout_prob: per-(step, agent) GPS fix-loss probability.
        gps_dropout_error_m: position error bound during a dropout.
        gps_bias_drift_m_per_step: linear GPS bias growth per step, in a
            per-agent fixed random direction (slow drift).
        imu_glitch_prob: per-(step, agent) yaw glitch probability; a
            glitch is uniform within :data:`IMU_GLITCH_DEG`.
        lidar_blackout_prob: per-(step, agent) blackout-frame probability.
        events: scripted faults on top of the stochastic processes.
    """

    seed: int = 0
    burst: BurstLossModel | None = None
    jitter: LatencyJitterModel | None = None
    gps_dropout_prob: float = 0.0
    gps_dropout_error_m: float = 3.0
    gps_bias_drift_m_per_step: float = 0.0
    imu_glitch_prob: float = 0.0
    lidar_blackout_prob: float = 0.0
    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("gps_dropout_prob", "imu_glitch_prob",
                     "lidar_blackout_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.gps_dropout_error_m < 0 or self.gps_bias_drift_m_per_step < 0:
            raise ValueError("GPS fault magnitudes must be non-negative")
        object.__setattr__(self, "events", tuple(self.events))

    # -- channel side -----------------------------------------------------
    def channel_conditions(self, step: int, sender: str) -> ChannelConditions:
        """Resolve the channel faults of one broadcast.

        Pure in ``(seed, step, sender)``: the Gilbert-Elliott state comes
        from the per-link chain, jitter from a per-(link, step) stream,
        scripted blackouts/spikes from :attr:`events`.
        """
        blackout = any(
            e.kind is FaultKind.CHANNEL_BLACKOUT and e.applies(step, sender)
            for e in self.events
        )
        state = None
        loss_rate = None
        if self.burst is not None:
            state = self.burst.state_at(
                derive_seed(self.seed, "link", sender), step
            )
            loss_rate = self.burst.loss_rate(state)
        extra_ms = 0.0
        if self.jitter is not None:
            rng = np.random.default_rng(
                derive_seed(self.seed, "jitter", sender, step)
            )
            extra_ms = self.jitter.sample_ms(rng)
        for event in self.events:
            if event.kind is FaultKind.LATENCY_SPIKE and event.applies(
                step, sender
            ):
                extra_ms += event.magnitude
        return ChannelConditions(
            loss_rate=loss_rate,
            extra_latency_ms=extra_ms,
            blackout=blackout,
            state=state,
        )

    # -- sensor side ------------------------------------------------------
    def sensor_faults(self, step: int, agent: str) -> SensorFaults:
        """Resolve the sensor faults of one observation.

        Pure in ``(seed, step, agent)``; returns the shared
        :data:`NO_SENSOR_FAULTS` when nothing fires, so the fault-free
        path allocates nothing.
        """
        rng = np.random.default_rng(
            derive_seed(self.seed, "sensor", agent, step)
        )
        # One draw per fault class, always consumed, so adding a fault
        # type never reshuffles the schedule of the others.
        draws = rng.random(3)
        gps_dropout = bool(draws[0] < self.gps_dropout_prob)
        imu_glitch = bool(draws[1] < self.imu_glitch_prob)
        lidar_blackout = bool(draws[2] < self.lidar_blackout_prob)

        bias = np.zeros(3)
        if self.gps_bias_drift_m_per_step > 0 and step > 0:
            direction_rng = np.random.default_rng(
                derive_seed(self.seed, "gps-bias-direction", agent)
            )
            angle = direction_rng.uniform(0.0, 2.0 * np.pi)
            magnitude = self.gps_bias_drift_m_per_step * step
            bias[:2] = magnitude * np.array([np.cos(angle), np.sin(angle)])

        imu_offset_deg = 0.0
        if imu_glitch:
            imu_offset_deg = float(
                rng.uniform(-IMU_GLITCH_DEG, IMU_GLITCH_DEG)
            )

        for event in self.events:
            if not event.applies(step, agent):
                continue
            if event.kind is FaultKind.GPS_DROPOUT:
                gps_dropout = True
            elif event.kind is FaultKind.GPS_BIAS:
                bias[0] += event.magnitude
            elif event.kind is FaultKind.IMU_YAW_GLITCH:
                imu_offset_deg += event.magnitude
            elif event.kind is FaultKind.LIDAR_BLACKOUT:
                lidar_blackout = True

        if not (
            gps_dropout
            or lidar_blackout
            or imu_offset_deg != 0.0
            or bias.any()
        ):
            return NO_SENSOR_FAULTS
        return SensorFaults(
            gps_dropout=gps_dropout,
            gps_error_m=self.gps_dropout_error_m,
            gps_bias=(float(bias[0]), float(bias[1]), float(bias[2])),
            imu_yaw_offset_deg=imu_offset_deg,
            lidar_blackout=lidar_blackout,
        )

    # -- constructors -----------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: no faults ever fire."""
        return cls()

    @classmethod
    def lossy(cls, target_loss: float, seed: int = 0) -> "FaultPlan":
        """A pure channel-loss plan whose long-run loss is ~``target_loss``."""
        if target_loss <= 0:
            return cls(seed=seed)
        return cls(seed=seed, burst=BurstLossModel.for_target_loss(target_loss))

    @classmethod
    def chaos(cls, seed: int) -> "FaultPlan":
        """A randomized everything-at-once plan for property-style tests.

        Fault intensities are drawn from the seed itself (burst loss up
        to 0.9 in the BAD state, GPS dropouts, LiDAR blackouts, latency
        spikes), so sweeping seeds sweeps fault schedules.
        """
        rng = np.random.default_rng(derive_seed(seed, "chaos-plan"))
        return cls(
            seed=seed,
            burst=BurstLossModel(
                p_good_to_bad=float(rng.uniform(0.05, 0.6)),
                p_bad_to_good=float(rng.uniform(0.2, 0.7)),
                loss_good=float(rng.uniform(0.0, 0.1)),
                loss_bad=float(rng.uniform(0.5, 0.9)),
            ),
            jitter=LatencyJitterModel(
                jitter_ms=float(rng.uniform(0.0, 5.0)),
                spike_prob=float(rng.uniform(0.0, 0.3)),
                spike_ms=float(rng.uniform(20.0, 120.0)),
            ),
            gps_dropout_prob=float(rng.uniform(0.0, 0.4)),
            gps_bias_drift_m_per_step=float(rng.uniform(0.0, 0.1)),
            imu_glitch_prob=float(rng.uniform(0.0, 0.2)),
            lidar_blackout_prob=float(rng.uniform(0.0, 0.3)),
        )

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI fault spec.

        A spec is a preset name (``none``, ``mild``, ``heavy``) optionally
        followed by comma-separated ``key=value`` overrides, e.g.
        ``"heavy,loss=0.5,gps-dropout=0.3"`` or just ``"loss=0.4"``.

        Keys: ``loss`` (target long-run channel loss), ``jitter`` (ms),
        ``spike`` (probability), ``gps-dropout``, ``gps-drift`` (m/step),
        ``imu-glitch`` (probability), ``lidar-blackout`` (probability),
        ``seed``.  Unknown keys are rejected with the valid set listed.
        """
        valid_keys = (
            "loss", "jitter", "spike", "gps-dropout", "gps-drift",
            "imu-glitch", "lidar-blackout", "seed",
        )
        preset, entries = parse_fault_spec(
            spec, valid_keys, presets=tuple(_PRESETS)
        )
        kwargs: dict = {"seed": seed}
        if preset is not None:
            kwargs.update(_PRESETS[preset])
        for key, raw in entries:
            value = float(raw)
            if key == "loss":
                kwargs["burst"] = BurstLossModel.for_target_loss(value)
            elif key == "jitter":
                jitter = kwargs.get("jitter") or LatencyJitterModel()
                kwargs["jitter"] = replace(jitter, jitter_ms=value)
            elif key == "spike":
                jitter = kwargs.get("jitter") or LatencyJitterModel()
                kwargs["jitter"] = replace(jitter, spike_prob=value)
            elif key == "gps-dropout":
                kwargs["gps_dropout_prob"] = value
            elif key == "gps-drift":
                kwargs["gps_bias_drift_m_per_step"] = value
            elif key == "imu-glitch":
                kwargs["imu_glitch_prob"] = value
            elif key == "lidar-blackout":
                kwargs["lidar_blackout_prob"] = value
            elif key == "seed":
                kwargs["seed"] = int(value)
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        bits = []
        if self.burst is not None:
            bits.append(f"burst loss ~{self.burst.expected_loss_rate:.2f}")
        if self.jitter is not None:
            bits.append(
                f"jitter {self.jitter.jitter_ms:g}ms"
                + (
                    f" (spikes p={self.jitter.spike_prob:g})"
                    if self.jitter.spike_prob > 0
                    else ""
                )
            )
        if self.gps_dropout_prob > 0:
            bits.append(f"gps-dropout p={self.gps_dropout_prob:g}")
        if self.gps_bias_drift_m_per_step > 0:
            bits.append(f"gps-drift {self.gps_bias_drift_m_per_step:g}m/step")
        if self.imu_glitch_prob > 0:
            bits.append(f"imu-glitch p={self.imu_glitch_prob:g}")
        if self.lidar_blackout_prob > 0:
            bits.append(f"lidar-blackout p={self.lidar_blackout_prob:g}")
        if self.events:
            bits.append(f"{len(self.events)} scripted event(s)")
        return "; ".join(bits) if bits else "no faults"
