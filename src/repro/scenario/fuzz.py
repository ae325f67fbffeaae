"""Seeded mass scenario fuzzing with per-family recall contracts.

The harness fans thousands of compiled scenarios over the
:mod:`repro.runtime` worker pool and checks property-based contracts per
family:

* ``fusion_never_hurts`` — on occlusion-by-construction families, the
  cooperative cloud's detection count is at least the receiver's own on
  every sampled scenario (AutoCast's promise, fuzzed instead of curated).
* ``monotone_beam`` — pooled over the sampled scenarios, a 64-beam fleet
  detects at least as many targets as a 16-beam fleet on identical scenes
  (the paper's Fig. 4 vs Fig. 7 contrast as an inequality).
* ``no_crash`` — compile, scan, fuse and detect survive a randomized
  :meth:`~repro.faults.plan.FaultPlan.chaos` schedule (blackouts, GPS
  dropouts, IMU glitches) without raising.

Every scenario is a pure function of ``(family, base_seed, index)`` via
:func:`scenario_seed`, so sweeps are reproducible, bit-identical at any
worker count (the compile sweep digest is asserted at workers 1 vs N),
and every violation names a replayable seed.  When a contract fails, the
harness greedily shrinks the offending world (:func:`shrink_world`) and
reports the minimal failing seed and actor set.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import CooperativeCase
from repro.detection.spod import SPOD
from repro.eval.experiments import run_case
from repro.faults.plan import FaultPlan
from repro.runtime import derive_seed, parallel_map, resolve_workers
from repro.scenario.dsl import (
    CompiledScenario,
    ScenarioSpec,
    beam_pattern,
    compile_scenario,
    scenario_fingerprint,
)
from repro.scenario.families import FAMILY_CONTRACTS, family
from repro.scene.world import World
from repro.sensors.gps import GpsSkew
from repro.sensors.lidar import LidarModel
from repro.sensors.rig import SensorRig

__all__ = [
    "CONTRACT_NAMES",
    "scenario_seed",
    "build_case",
    "compile_sweep",
    "sweep_digest",
    "determinism_digests",
    "shrink_world",
    "ContractResult",
    "FamilyReport",
    "fuzz_family",
    "fuzz_report",
]

#: Every contract the harness knows how to evaluate.
CONTRACT_NAMES: tuple[str, ...] = (
    "fusion_never_hurts",
    "monotone_beam",
    "no_crash",
)


def scenario_seed(base_seed: int, family_name: str, index: int) -> int:
    """The compile seed of scenario ``index`` in one family sweep.

    Derived (CRC-32, process-stable) rather than sequential, so two
    families fuzzed from the same base seed explore unrelated scenarios.
    """
    return derive_seed(base_seed, "fuzz", family_name, index)


def build_case(
    compiled: CompiledScenario,
    pattern_override: str | None = None,
    fault_plan: FaultPlan | None = None,
    dropout: float = 0.05,
) -> CooperativeCase:
    """Scan a compiled scenario into a :class:`CooperativeCase`.

    Unlike :func:`repro.datasets.base.make_case` (one shared beam
    pattern), each observer scans through its *own* sampled rig — the
    mixed-fleet case the DSL models.  ``pattern_override`` forces every
    observer onto one named pattern (the monotone-beam contract's matched
    16- vs 64-beam pair); ``fault_plan`` resolves per-observer sensor
    faults at step 0 (the no-crash contract's chaos input).  All noise
    seeds derive from the compile seed, so the case is as replayable as
    the world.
    """
    observations = {}
    for name in compiled.viewpoints:
        pattern = (
            beam_pattern(pattern_override)
            if pattern_override is not None
            else compiled.rigs[name]
        )
        rig = SensorRig(
            lidar=LidarModel(pattern=pattern, dropout=dropout), name=name
        )
        faults = (
            fault_plan.sensor_faults(step=0, agent=name)
            if fault_plan is not None
            else None
        )
        observations[name] = rig.observe(
            compiled.world,
            compiled.viewpoints[name],
            seed=derive_seed(compiled.seed, "scan", name),
            gps_skew=GpsSkew.NONE,
            faults=faults,
        )
    names = list(compiled.viewpoints)
    positions = [compiled.viewpoints[n].position for n in names]
    delta_d = (
        float(np.linalg.norm(positions[0] - positions[1]))
        if len(names) >= 2
        else 0.0
    )
    return CooperativeCase(
        name=f"{compiled.name}/{compiled.seed}",
        scenario=compiled.name,
        world=compiled.world,
        observations=observations,
        receiver=compiled.receiver,
        delta_d=delta_d,
    )


# ---------------------------------------------------------------------------
# Compile sweep (structural pass over every scenario)
# ---------------------------------------------------------------------------

#: Sweep state installed by :func:`_sweep_worker_init` in every worker (in
#: the parent when the pool runs inline), so tasks ship a bare index.
_FUZZ_SPEC: ScenarioSpec | None = None
_FUZZ_DETECTOR: SPOD | None = None
_FUZZ_CONTRACTS: tuple[str, ...] = ()
_FUZZ_BASE_SEED: int = 0


def _sweep_worker_init(
    spec: ScenarioSpec,
    base_seed: int,
    detector: SPOD | None = None,
    contracts: tuple[str, ...] = (),
) -> None:
    """Worker warm-up: install the sweep's spec (and detector)."""
    global _FUZZ_SPEC, _FUZZ_BASE_SEED, _FUZZ_DETECTOR, _FUZZ_CONTRACTS
    _FUZZ_SPEC = spec
    _FUZZ_BASE_SEED = base_seed
    _FUZZ_CONTRACTS = contracts
    if contracts:
        _FUZZ_DETECTOR = detector if detector is not None else SPOD.pretrained()


def _compile_task(index: int) -> dict:
    """Compile one scenario and return its structural summary."""
    seed = scenario_seed(_FUZZ_BASE_SEED, _FUZZ_SPEC.name, index)
    compiled = compile_scenario(_FUZZ_SPEC, seed)
    return {
        "index": index,
        "seed": seed,
        "fingerprint": scenario_fingerprint(compiled),
        "actors": len(compiled.world.actors),
        "targets": len(compiled.world.targets()),
        "dropped": int(sum(compiled.dropped.values())),
    }


def compile_sweep(
    spec: ScenarioSpec,
    count: int,
    base_seed: int = 0,
    workers: int | None = None,
) -> list[dict]:
    """Compile ``count`` seeded scenarios, fanned over the worker pool.

    This is the structural pass: every scenario is compiled (placement
    constraints exercised, fingerprint taken) with no sensor or detector
    work, so thousands of scenarios cost seconds.  Results keep index
    order and are bit-identical at any worker count.
    """
    return parallel_map(
        _compile_task,
        list(range(count)),
        workers=min(resolve_workers(workers), count),
        initializer=_sweep_worker_init,
        initargs=(spec, base_seed),
    )


def sweep_digest(summaries: list[dict]) -> str:
    """One digest over a sweep's ordered scenario fingerprints."""
    h = hashlib.sha256()
    for summary in summaries:
        h.update(summary["fingerprint"].encode("ascii"))
    return h.hexdigest()


def determinism_digests(
    spec: ScenarioSpec,
    count: int,
    base_seed: int = 0,
    worker_counts: tuple[int, ...] = (1, 4),
) -> dict[str, str]:
    """The sweep digest at each worker count (they must all agree)."""
    return {
        str(workers): sweep_digest(
            compile_sweep(spec, count, base_seed, workers=workers)
        )
        for workers in worker_counts
    }


# ---------------------------------------------------------------------------
# Contracts (detection pass over a sampled subset)
# ---------------------------------------------------------------------------


def _contract_task(index: int) -> dict:
    """Measure every requested contract on one compiled scenario."""
    seed = scenario_seed(_FUZZ_BASE_SEED, _FUZZ_SPEC.name, index)
    compiled = compile_scenario(_FUZZ_SPEC, seed)
    out: dict = {"index": index, "seed": seed}
    if "fusion_never_hurts" in _FUZZ_CONTRACTS:
        result = run_case(build_case(compiled), _FUZZ_DETECTOR)
        out["fusion"] = {
            "receiver": result.counts[compiled.receiver],
            "cooper": result.counts["cooper"],
        }
    if "monotone_beam" in _FUZZ_CONTRACTS:
        sparse = run_case(
            build_case(compiled, pattern_override="fuzz16"), _FUZZ_DETECTOR
        )
        dense = run_case(
            build_case(compiled, pattern_override="fuzz64"), _FUZZ_DETECTOR
        )
        out["beam"] = {
            "cooper16": sparse.counts["cooper"],
            "cooper64": dense.counts["cooper"],
        }
    if "no_crash" in _FUZZ_CONTRACTS:
        try:
            run_case(
                build_case(
                    compiled,
                    fault_plan=FaultPlan.chaos(derive_seed(seed, "chaos")),
                ),
                _FUZZ_DETECTOR,
            )
            out["crash"] = None
        except Exception as exc:  # noqa: BLE001 - the contract IS "no raise"
            out["crash"] = f"{type(exc).__name__}: {exc}"
    return out


def sample_indices(count: int, sample: int) -> list[int]:
    """Evenly spaced scenario indices for the detection pass.

    Deterministic (no RNG): the same ``(count, sample)`` always probes
    the same scenarios, so contract verdicts are replayable.
    """
    if sample >= count:
        return list(range(count))
    positions = np.linspace(0, count - 1, sample)
    return sorted({int(round(p)) for p in positions})


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def shrink_world(world: World, failing, protect: tuple[str, ...] = ()) -> World:
    """Greedily remove actors while ``failing(world)`` stays true.

    Classic delta-debugging at actor granularity: try deleting each actor
    in turn (skipping ``protect``); keep any deletion that preserves the
    failure, and repeat until a full pass removes nothing.  Deterministic
    — actors are tried in world order — and the result is 1-minimal: no
    single remaining actor can be removed without losing the failure.
    """
    if not failing(world):
        raise ValueError("shrink_world needs a failing world to start from")
    current = world
    changed = True
    while changed:
        changed = False
        for actor in list(current.actors):
            if actor.name in protect:
                continue
            candidate = World(
                tuple(a for a in current.actors if a.name != actor.name)
            )
            if failing(candidate):
                current = candidate
                changed = True
    return current


def _shrink_fusion_violation(
    compiled: CompiledScenario, detector: SPOD | None
) -> dict:
    """Shrink one fusion violation to its minimal failing actor set."""

    def failing(world: World) -> bool:
        if not world.actors:
            return False
        candidate = dataclasses.replace(compiled, world=world)
        result = run_case(build_case(candidate), detector)
        return result.counts["cooper"] < result.counts[compiled.receiver]

    minimal = shrink_world(compiled.world, failing)
    return {
        "seed": compiled.seed,
        "actors": [a.name for a in minimal.actors],
    }


# ---------------------------------------------------------------------------
# Family reports
# ---------------------------------------------------------------------------


@dataclass
class ContractResult:
    """One contract's verdict over a family's sampled scenarios.

    Attributes:
        name: contract identifier (see :data:`CONTRACT_NAMES`).
        checked: scenarios the contract evaluated.
        violations: per-violation detail (seed, index, measurements).
        minimal: shrunk reproduction of the worst violation (minimal
            failing seed + actor names), when one exists.
    """

    name: str
    checked: int
    violations: list[dict] = field(default_factory=list)
    minimal: dict | None = None

    @property
    def passed(self) -> bool:
        """True when no sampled scenario violated the contract."""
        return not self.violations

    def to_json(self) -> dict:
        """Serialize the verdict for the bench report."""
        return {
            "checked": self.checked,
            "violations": len(self.violations),
            "passed": self.passed,
            "detail": self.violations,
            "minimal": self.minimal,
        }


@dataclass
class FamilyReport:
    """One family fully fuzzed: structural sweep plus contract verdicts."""

    family: str
    count: int
    base_seed: int
    digest: str
    actors_mean: float
    targets_mean: float
    dropped_total: int
    sampled: list[int]
    contracts: list[ContractResult]

    @property
    def passed(self) -> bool:
        """True when every contract passed."""
        return all(c.passed for c in self.contracts)

    def to_json(self) -> dict:
        """Serialize the family report for the bench report."""
        return {
            "count": self.count,
            "seed": self.base_seed,
            "digest": self.digest,
            "actors_mean": round(self.actors_mean, 3),
            "targets_mean": round(self.targets_mean, 3),
            "dropped_total": self.dropped_total,
            "sampled": self.sampled,
            "passed": self.passed,
            "contracts": {c.name: c.to_json() for c in self.contracts},
        }


def _evaluate_contracts(
    spec: ScenarioSpec,
    measurements: list[dict],
    contracts: tuple[str, ...],
    detector: SPOD | None,
    shrink: bool,
) -> list[ContractResult]:
    """Turn per-scenario measurements into per-contract verdicts."""
    results: list[ContractResult] = []
    for name in contracts:
        result = ContractResult(name=name, checked=len(measurements))
        if name == "fusion_never_hurts":
            for m in measurements:
                if m["fusion"]["cooper"] < m["fusion"]["receiver"]:
                    result.violations.append(
                        {"index": m["index"], "seed": m["seed"], **m["fusion"]}
                    )
            if result.violations and shrink:
                worst = min(result.violations, key=lambda v: v["seed"])
                compiled = compile_scenario(spec, worst["seed"])
                result.minimal = _shrink_fusion_violation(compiled, detector)
        elif name == "monotone_beam":
            # Pooled over the sample: per-scenario beam comparisons are
            # noisy near the detection threshold, the family aggregate is
            # the paper's actual claim (Fig. 4 vs Fig. 7).
            total16 = sum(m["beam"]["cooper16"] for m in measurements)
            total64 = sum(m["beam"]["cooper64"] for m in measurements)
            if total64 < total16:
                result.violations.append(
                    {
                        "cooper16_total": total16,
                        "cooper64_total": total64,
                        "seeds": [m["seed"] for m in measurements],
                    }
                )
        elif name == "no_crash":
            for m in measurements:
                if m["crash"] is not None:
                    result.violations.append(
                        {
                            "index": m["index"],
                            "seed": m["seed"],
                            "error": m["crash"],
                        }
                    )
        else:
            raise ValueError(
                f"unknown contract {name!r} "
                f"(valid contracts: {', '.join(sorted(CONTRACT_NAMES))})"
            )
        results.append(result)
    return results


def fuzz_family(
    family_name: str,
    count: int,
    base_seed: int = 0,
    workers: int | None = None,
    detector: SPOD | None = None,
    contracts: tuple[str, ...] | None = None,
    sample: int = 6,
    shrink: bool = True,
) -> FamilyReport:
    """Fuzz one family: compile ``count`` scenarios, contract-check a sample.

    The structural pass compiles every scenario (cheap, fully parallel);
    the detection pass evaluates ``contracts`` (default: the family's
    entry in :data:`FAMILY_CONTRACTS`) on ``sample`` evenly spaced
    scenarios.  ``shrink=True`` delta-debugs the first fusion violation
    down to its minimal failing actor set.
    """
    spec = family(family_name)
    workers = resolve_workers(workers)
    summaries = compile_sweep(spec, count, base_seed, workers=workers)
    if contracts is None:
        contracts = FAMILY_CONTRACTS.get(family_name, ("no_crash",))
    contracts = tuple(contracts)
    indices = sample_indices(count, sample) if contracts else []
    measurements = (
        parallel_map(
            _contract_task,
            indices,
            workers=min(workers, len(indices)),
            initializer=_sweep_worker_init,
            initargs=(spec, base_seed, detector, contracts),
        )
        if indices
        else []
    )
    contract_results = _evaluate_contracts(
        spec, measurements, contracts, detector, shrink
    )
    return FamilyReport(
        family=family_name,
        count=count,
        base_seed=base_seed,
        digest=sweep_digest(summaries),
        actors_mean=float(np.mean([s["actors"] for s in summaries])),
        targets_mean=float(np.mean([s["targets"] for s in summaries])),
        dropped_total=int(sum(s["dropped"] for s in summaries)),
        sampled=indices,
        contracts=contract_results,
    )


def fuzz_report(
    families: tuple[str, ...],
    count: int,
    base_seed: int = 0,
    workers: int | None = None,
    detector: SPOD | None = None,
    contracts: tuple[str, ...] | None = None,
    sample: int = 6,
    worker_counts: tuple[int, ...] = (1, 4),
) -> dict:
    """Fuzz several families and assemble the ``BENCH_scenarios`` payload.

    Includes the per-family reports plus the worker-count determinism
    digests (the compile sweep re-run at each count in ``worker_counts``
    — every digest must match the family's own).
    """
    report: dict = {"count": count, "seed": base_seed, "families": {}}
    for family_name in families:
        family_report = fuzz_family(
            family_name,
            count,
            base_seed,
            workers=workers,
            detector=detector,
            contracts=contracts,
            sample=sample,
        )
        payload = family_report.to_json()
        digests = determinism_digests(
            family(family_name),
            min(count, 32),
            base_seed,
            worker_counts=worker_counts,
        )
        payload["determinism"] = {
            "digests": digests,
            "bit_identical": len(set(digests.values())) == 1,
        }
        report["families"][family_name] = payload
    report["passed"] = all(
        f["passed"] and f["determinism"]["bit_identical"]
        for f in report["families"].values()
    )
    return report
