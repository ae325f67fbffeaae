"""Chaos-sweep experiment: cooperative recall under escalating faults.

The paper evaluates Cooper on clean channels; a deployable system has to
keep perceiving when the channel and the sensors misbehave.  This module
runs the full :class:`~repro.fusion.agent.CooperSession` loop under
seeded :class:`~repro.faults.FaultPlan` schedules of increasing severity
and reports how recall degrades:

* :func:`loss_sweep` — recall vs Gilbert-Elliott channel loss rate,
* :func:`gps_error_sweep` — recall vs GPS dead-reckoning error,
* :func:`stale_fallback_comparison` — the stale-package fallback against
  plain drop-to-ego at moderate loss (the graceful-degradation claim),
* :func:`chaos_sweep` — all of the above as one JSON-ready report
  (``benchmarks/bench_robustness_chaos.py`` writes it to
  ``results/BENCH_robustness.json``).

Every sweep point is deterministic: the fault schedule is a pure
function of its plan seed, so reports are bit-identical at any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.spod import SPOD
from repro.eval.matching import in_eval_area, match_detections
from repro.faults import FaultPlan
from repro.fusion.agent import AgentStep, CooperAgent, CooperSession
from repro.fusion.cooper import Cooper
from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.scene.layouts import parking_lot
from repro.scene.trajectories import StationaryTrajectory, StraightTrajectory
from repro.sensors.lidar import BeamPattern, LidarModel
from repro.sensors.rig import SensorRig

__all__ = [
    "ChaosRunResult",
    "build_chaos_session",
    "session_recall",
    "loss_sweep",
    "gps_error_sweep",
    "stale_fallback_comparison",
    "chaos_sweep",
]

#: The sweeps' sensing pattern: the paper's 16-beam class, pruned for speed.
CHAOS_16 = BeamPattern("chaos-16", tuple(np.linspace(-15.0, 15.0, 16)), 0.8)


@dataclass
class ChaosRunResult:
    """One faulted session run, reduced to its robustness numbers.

    Attributes:
        recall: matched fraction of visible ground-truth cars, pooled
            over every agent and step.
        matched: pooled matched ground-truth count.
        visible: pooled visible ground-truth count.
        mean_received: mean merged packages per agent-step (fresh+stale).
        degradation: the session's degradation event counts.
        steps: session length in exchange periods.
    """

    recall: float
    matched: int
    visible: int
    mean_received: float
    degradation: dict[str, int]
    steps: int

    def as_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "recall": self.recall,
            "matched": self.matched,
            "visible": self.visible,
            "mean_received": self.mean_received,
            "degradation": self.degradation,
            "steps": self.steps,
        }


def build_chaos_session(
    detector: SPOD | None = None,
    faults: FaultPlan | None = None,
    stale_fallback: bool = True,
) -> CooperSession:
    """The sweeps' scenario: a two-agent parking lot, one mover.

    Mirrors the pipeline bench session so robustness numbers are read
    against the same workload the perf numbers come from.
    """
    layout = parking_lot(seed=51, rows=3, cols=6, occupancy=0.8)
    cooper = Cooper(detector=detector or SPOD.pretrained())

    def make_agent(name: str, viewpoint: str, speed: float = 0.0) -> CooperAgent:
        pose = layout.viewpoint(viewpoint)
        trajectory = (
            StraightTrajectory(pose, speed=speed)
            if speed
            else StationaryTrajectory(pose)
        )
        return CooperAgent(
            name=name,
            rig=SensorRig(lidar=LidarModel(pattern=CHAOS_16), name=name),
            trajectory=trajectory,
            policy=RoiPolicy(category=RoiCategory.FULL_FRAME),
            cooper=cooper,
        )

    agents = [
        make_agent("alpha", "car1", speed=2.0),
        make_agent("beta", "car2"),
    ]
    return CooperSession(
        world=layout.world,
        agents=agents,
        faults=faults,
        stale_fallback=stale_fallback,
    )


def _step_recall_counts(
    session: CooperSession,
    step: AgentStep,
    detector: SPOD,
    gate_distance: float,
    max_eval_range: float,
) -> tuple[int, int]:
    """(matched, visible) ground-truth cars for one agent-step."""
    to_sensor = step.observation.true_pose.from_world()
    gt_boxes = [b.transformed(to_sensor) for b in session.world.target_boxes()]
    r = detector.config.voxel_spec.point_range
    visible = [b for b in gt_boxes if in_eval_area(b, r, max_eval_range)]
    if not visible:
        return 0, 0
    threshold = detector.config.detection_threshold
    reported = [d for d in step.detections if d.score >= threshold]
    match = match_detections(reported, visible, gate_distance)
    return match.num_matched, len(visible)


def session_recall(
    session: CooperSession,
    logs: dict[str, list[AgentStep]],
    gate_distance: float = 2.5,
    max_eval_range: float = 60.0,
) -> ChaosRunResult:
    """Reduce one finished session run to its robustness numbers.

    Recall pools every (agent, step) pair: each agent's per-step
    detections are matched against the ground-truth cars visible from its
    *true* pose at that step, so channel faults show up exactly as the
    perception they cost.
    """
    detector = session.agents[0].cooper.detector
    matched = 0
    visible = 0
    received = 0
    agent_steps = 0
    for steps in logs.values():
        for step in steps:
            m, v = _step_recall_counts(
                session, step, detector, gate_distance, max_eval_range
            )
            matched += m
            visible += v
            received += len(step.received_packages)
            agent_steps += 1
    return ChaosRunResult(
        recall=matched / visible if visible else 0.0,
        matched=matched,
        visible=visible,
        mean_received=received / agent_steps if agent_steps else 0.0,
        degradation=dict(session.degradation),
        steps=len(next(iter(logs.values()))) if logs else 0,
    )


def _run_point(
    faults: FaultPlan | None,
    detector: SPOD | None,
    duration_seconds: float,
    seed: int,
    workers: int | None,
    stale_fallback: bool = True,
) -> ChaosRunResult:
    session = build_chaos_session(
        detector=detector, faults=faults, stale_fallback=stale_fallback
    )
    logs = session.run(
        duration_seconds=duration_seconds, period_seconds=1.0, seed=seed,
        workers=workers,
    )
    return session_recall(session, logs)


def loss_sweep(
    loss_rates: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9),
    duration_seconds: float = 6.0,
    seed: int = 0,
    detector: SPOD | None = None,
    workers: int | None = None,
) -> list[dict]:
    """Recall vs Gilbert-Elliott target loss rate (bursty, not i.i.d.).

    ``loss_rate`` 0.0 runs fault-free (the clean baseline the degradation
    curve is read against).
    """
    points = []
    for loss in loss_rates:
        plan = (
            None
            if loss <= 0.0
            else FaultPlan.lossy(loss, seed=seed + int(round(loss * 1000)))
        )
        result = _run_point(plan, detector, duration_seconds, seed, workers)
        points.append({"loss_rate": loss, **result.as_dict()})
    return points


def gps_error_sweep(
    errors_m: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0),
    duration_seconds: float = 6.0,
    seed: int = 0,
    detector: SPOD | None = None,
    workers: int | None = None,
) -> list[dict]:
    """Recall vs GPS dead-reckoning error under permanent GPS dropout.

    Every agent's fix degrades to truth plus up to ``error_m`` of
    seed-determined offset each step — the Fig. 10 drift study pushed
    through the full resilient session loop.
    """
    points = []
    for error in errors_m:
        plan = (
            None
            if error <= 0.0
            else FaultPlan(
                seed=seed + int(round(error * 100)),
                gps_dropout_prob=1.0,
                gps_dropout_error_m=error,
            )
        )
        result = _run_point(plan, detector, duration_seconds, seed, workers)
        points.append({"gps_error_m": error, **result.as_dict()})
    return points


def stale_fallback_comparison(
    loss_rate: float = 0.5,
    duration_seconds: float = 6.0,
    seed: int = 0,
    detector: SPOD | None = None,
    workers: int | None = None,
) -> dict:
    """Stale-package fallback vs drop-to-ego at moderate bursty loss.

    Both runs see the *identical* fault schedule (same plan seed); the
    only difference is whether a lost peer's last delivery is re-aligned
    into the merge or the receiver falls back to its own scan.
    """
    plan = FaultPlan.lossy(loss_rate, seed=seed + 77)
    with_stale = _run_point(plan, detector, duration_seconds, seed, workers)
    drop_to_ego = _run_point(
        plan, detector, duration_seconds, seed, workers, stale_fallback=False
    )
    return {
        "loss_rate": loss_rate,
        "stale_fallback": with_stale.as_dict(),
        "drop_to_ego": drop_to_ego.as_dict(),
        "recall_gain": with_stale.recall - drop_to_ego.recall,
    }


def chaos_sweep(
    smoke: bool = False,
    seed: int = 0,
    detector: SPOD | None = None,
    workers: int | None = None,
) -> dict:
    """The full robustness report (the ``BENCH_robustness.json`` payload).

    ``smoke`` shrinks the session and the sweep grids for CI: three loss
    rates, two GPS errors, four exchange periods.
    """
    detector = detector or SPOD.pretrained()
    duration = 4.0 if smoke else 6.0
    loss_rates = (0.0, 0.5, 0.9) if smoke else (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
    gps_errors = (0.0, 4.0) if smoke else (0.0, 1.0, 2.0, 4.0, 8.0)
    return {
        "bench": "robustness_chaos",
        "mode": "smoke" if smoke else "full",
        "seed": seed,
        "duration_seconds": duration,
        "scenario": "parking_lot(seed=51, rows=3, cols=6) / 2 agents",
        "loss_sweep": loss_sweep(
            loss_rates, duration, seed, detector, workers=workers
        ),
        "gps_error_sweep": gps_error_sweep(
            gps_errors, duration, seed, detector, workers=workers
        ),
        "stale_vs_ego": stale_fallback_comparison(
            0.5, duration, seed, detector, workers=workers
        ),
    }
