"""Experiment runners regenerating the paper's evaluation figures.

``run_case`` produces everything one column-triple of Fig. 3/6 contains:
per-car raw scores for each single shot and for the cooperative cloud,
distance bands, detection counts and accuracies.  The aggregators on top
of it produce Figs. 4/7 (summaries), Fig. 8 (improvement CDF by
difficulty), Fig. 9 (timing) and Fig. 10 (GPS drift).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import CooperativeCase, make_case
from repro.detection.spod import SPOD
from repro.eval.cdf import improvement_percent
from repro.eval.difficulty import Difficulty, classify_difficulty
from repro.eval.matching import in_eval_area, match_detections
from repro.fusion.align import merge_packages
from repro.geometry.boxes import Box3D
from repro.runtime import parallel_map, resolve_workers

__all__ = [
    "CarRecord",
    "CaseResult",
    "run_case",
    "run_cases",
    "improvement_samples",
    "timing_experiment",
    "gps_drift_experiment",
]

#: Distance bands of the Fig. 3/6 cell shading.
NEAR_LIMIT = 10.0
MEDIUM_LIMIT = 25.0


@dataclass
class CarRecord:
    """Everything the grids report about one ground-truth car in one case.

    Attributes:
        car_name: actor name in the world.
        single_scores: observer -> raw score (None when out of that
            observer's detection area).
        single_detected: observer -> True when at/above the reporting
            threshold (a score cell in the figure; False is the X).
        cooper_score / cooper_detected: same for the cooperative cloud.
        bands: observer -> "near" / "medium" / "far" / "out".
        difficulty: easy / moderate / hard per Section IV-E.
    """

    car_name: str
    single_scores: dict[str, float | None]
    single_detected: dict[str, bool]
    cooper_score: float | None
    cooper_detected: bool
    bands: dict[str, str]
    difficulty: Difficulty


@dataclass
class CaseResult:
    """One cooperative case fully evaluated (one column-triple of Fig. 3/6)."""

    case_name: str
    scenario: str
    delta_d: float
    records: list[CarRecord]
    counts: dict[str, int]
    accuracies: dict[str, float]
    false_positives: dict[str, int]
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def cooper_superset(self) -> bool:
        """True when cooperation missed nothing any single shot found."""
        for record in self.records:
            if any(record.single_detected.values()) and not record.cooper_detected:
                return False
        return True


def _band(distance: float) -> str:
    if distance < NEAR_LIMIT:
        return "near"
    if distance <= MEDIUM_LIMIT:
        return "medium"
    return "far"


def run_case(
    case: CooperativeCase,
    detector: SPOD | None = None,
    gate_distance: float = 2.5,
    max_eval_range: float = 60.0,
) -> CaseResult:
    """Evaluate one cooperative case: every single shot plus the merge.

    ``timings`` on the returned result is always populated (per-observer
    and cooperative detection seconds) — it is wall-clock data and the
    only field excluded from the determinism contract of
    :func:`run_cases`.
    """
    detector = detector or SPOD.pretrained()
    threshold = detector.config.detection_threshold
    gt_names = case.ground_truth_names()
    columns: dict[str, tuple[list, list[Box3D]]] = {}
    timings: dict[str, float] = {}

    for observer in case.observer_names:
        gt_boxes = case.ground_truth_in(observer)
        start = time.perf_counter()
        detections = detector.detect_all(case.cloud_of(observer))
        timings[observer] = time.perf_counter() - start
        columns[observer] = (detections, gt_boxes)

    receiver_obs = case.observations[case.receiver]
    packages = case.packages_for_receiver()
    merged = merge_packages(
        case.cloud_of(case.receiver), packages, case.receiver_measured_pose()
    )
    gt_cooper = case.ground_truth_in(case.receiver)
    start = time.perf_counter()
    cooper_detections = detector.detect_all(merged)
    timings["cooper"] = time.perf_counter() - start
    columns["cooper"] = (cooper_detections, gt_cooper)

    matches = {
        name: match_detections(dets, gts, gate_distance)
        for name, (dets, gts) in columns.items()
    }
    point_range = detector.config.voxel_spec.point_range
    in_area = {
        name: [in_eval_area(b, point_range, max_eval_range) for b in gts]
        for name, (_dets, gts) in columns.items()
    }

    records: list[CarRecord] = []
    for gt_idx, car_name in enumerate(gt_names):
        single_scores: dict[str, float | None] = {}
        single_detected: dict[str, bool] = {}
        bands: dict[str, str] = {}
        for observer in case.observer_names:
            _dets, gts = columns[observer]
            visible = in_area[observer][gt_idx]
            score = float(matches[observer].gt_scores[gt_idx])
            single_scores[observer] = score if visible else None
            single_detected[observer] = visible and score >= threshold
            distance = float(np.hypot(*gts[gt_idx].center[:2]))
            bands[observer] = _band(distance) if visible else "out"
        cooper_visible = in_area["cooper"][gt_idx]
        cooper_score = (
            float(matches["cooper"].gt_scores[gt_idx]) if cooper_visible else None
        )
        cooper_detected = bool(
            cooper_visible and cooper_score is not None and cooper_score >= threshold
        )
        records.append(
            CarRecord(
                car_name=car_name,
                single_scores=single_scores,
                single_detected=single_detected,
                cooper_score=cooper_score,
                cooper_detected=cooper_detected,
                bands=bands,
                difficulty=classify_difficulty(list(single_detected.values())),
            )
        )

    counts: dict[str, int] = {}
    accuracies: dict[str, float] = {}
    false_positives: dict[str, int] = {}
    for name in list(case.observer_names) + ["cooper"]:
        if name == "cooper":
            detected = [r.cooper_detected for r in records]
            scores = [
                (r.cooper_score or 0.0) if r.cooper_score is not None else None
                for r in records
            ]
        else:
            detected = [r.single_detected[name] for r in records]
            scores = [r.single_scores[name] for r in records]
        visible_scores = [
            (s if d else 0.0)
            for s, d in zip(scores, detected)
            if s is not None
        ]
        counts[name] = int(sum(detected))
        accuracies[name] = (
            100.0 * float(np.mean(visible_scores)) if visible_scores else 0.0
        )
        dets, _gts = columns[name]
        reported = [d for d in dets if d.score >= threshold]
        fp_match = match_detections(reported, columns[name][1], gate_distance)
        false_positives[name] = len(fp_match.false_positives)

    return CaseResult(
        case_name=case.name,
        scenario=case.scenario,
        delta_d=case.delta_d,
        records=records,
        counts=counts,
        accuracies=accuracies,
        false_positives=false_positives,
        timings=timings,
    )


#: Per-worker detector built once by :func:`_case_worker_init` (the pool
#: warm-up hook), so parallel evaluation does not rebuild SPOD per case.
_CASE_DETECTOR: SPOD | None = None

#: Case list published by :func:`run_cases` just before the pool forks;
#: workers inherit it through copy-on-write memory, so tasks ship a bare
#: index instead of a multi-megabyte pickled case.
_CASE_SET: list[CooperativeCase] | None = None


def _case_worker_init(detector: SPOD | None) -> None:
    """Worker warm-up: install the shared per-process detector."""
    global _CASE_DETECTOR
    _CASE_DETECTOR = detector if detector is not None else SPOD.pretrained()


def _case_task(payload: tuple[int, dict]) -> CaseResult:
    """Evaluate one fork-inherited case using the warmed-up detector."""
    index, kwargs = payload
    return run_case(_CASE_SET[index], _CASE_DETECTOR, **kwargs)


def run_cases(
    cases: list[CooperativeCase],
    detector: SPOD | None = None,
    workers: int | None = None,
    **kwargs,
) -> list[CaseResult]:
    """Evaluate a list of cases with a shared detector.

    ``workers`` > 1 fans the (independent) cases out over a forked
    process pool — ``None`` defers to the ``REPRO_WORKERS`` environment
    variable, default 1.  Results keep the input order and are
    bit-identical to a ``workers=1`` run apart from the wall-clock
    ``timings`` field; per-worker profiler snapshots are merged back into
    the parent so ``--profile`` stays exact.
    """
    global _CASE_SET
    _CASE_SET = list(cases)
    try:
        return parallel_map(
            _case_task,
            [(index, dict(kwargs)) for index in range(len(cases))],
            workers=min(resolve_workers(workers), len(cases)),
            initializer=_case_worker_init,
            initargs=(detector,),
        )
    finally:
        _CASE_SET = None


def improvement_samples(
    results: list[CaseResult],
) -> dict[Difficulty, list[float]]:
    """Fig. 8 inputs: per-difficulty score-improvement percentages.

    For every ground-truth car the cooperative cloud detected, the
    improvement is measured against the best raw score any single shot
    achieved (sub-threshold candidates included).
    """
    samples: dict[Difficulty, list[float]] = {d: [] for d in Difficulty}
    for result in results:
        for record in result.records:
            if not record.cooper_detected or record.cooper_score is None:
                continue
            singles = [s for s in record.single_scores.values() if s is not None]
            best_single = max(singles) if singles else 0.0
            samples[record.difficulty].append(
                improvement_percent(best_single, record.cooper_score)
            )
    return samples


def timing_experiment(
    cases: list[CooperativeCase],
    detector: SPOD | None = None,
    repeats: int = 5,
) -> dict[str, dict]:
    """Fig. 9: detection time, single shot vs cooperative, per case.

    Each case runs one untimed warm-up of both clouds, then ``repeats``
    (at least 5) timed rounds that alternate single and merged, so host
    speed drift hits both alike.  Returns ``{case_name: {"single": s,
    "cooper": s, "single_runs": [s, ...], "cooper_runs": [s, ...]}}`` —
    the medians and every round's seconds, in round order; aggregating
    over cases (and datasets) is left to the caller.
    """
    if repeats < 5:
        raise ValueError("timing needs at least 5 repeats")
    detector = detector or SPOD.pretrained()
    timings: dict[str, dict] = {}
    for case in cases:
        single_cloud = case.cloud_of(case.receiver)
        merged = merge_packages(
            single_cloud,
            case.packages_for_receiver(),
            case.receiver_measured_pose(),
        )
        detector.detect(single_cloud)
        detector.detect(merged)
        runs: dict[str, list[float]] = {"single": [], "cooper": []}
        for _ in range(repeats):
            for kind, cloud in (("single", single_cloud), ("cooper", merged)):
                start = time.perf_counter()
                detector.detect(cloud)
                runs[kind].append(time.perf_counter() - start)
        timings[case.name] = {
            "single": float(np.median(runs["single"])),
            "cooper": float(np.median(runs["cooper"])),
            "single_runs": runs["single"],
            "cooper_runs": runs["cooper"],
        }
    return timings


def gps_drift_experiment(
    scenario_builder,
    observers: tuple[str, str],
    pattern,
    skews,
    seed: int = 0,
    detector: SPOD | None = None,
) -> dict[str, dict[str, float]]:
    """Fig. 10: cooperative per-car scores under GPS skew protocols.

    ``scenario_builder`` is a layout factory (e.g. ``parking_lot``);
    ``skews`` maps protocol label -> :class:`~repro.sensors.gps.GpsSkew`
    applied to the *transmitting* observer.  Returns
    ``{protocol: {car_name: cooper_score}}`` (0.0 for misses).
    """
    detector = detector or SPOD.pretrained()
    results: dict[str, dict[str, float]] = {}
    for label, skew in skews.items():
        layout = scenario_builder()
        poses = {name: layout.viewpoint(name) for name in observers}
        case = make_case(
            name=f"gps-drift/{label}",
            scenario="gps-drift",
            world=layout.world,
            poses=poses,
            receiver=observers[0],
            pattern=pattern,
            seed=seed,
            gps_skew={observers[1]: skew},
        )
        result = run_case(case, detector)
        results[label] = {
            r.car_name: (r.cooper_score or 0.0) if r.cooper_detected else 0.0
            for r in result.records
        }
    return results
