"""Declarative scenario DSL, family library, and seeded mass fuzzing.

The ROADMAP's "as many scenarios as you can imagine" item as a generator,
not a file: :mod:`repro.scenario.dsl` is a small Scenic-style grammar
(distributions over actor counts, placements, occluders and sensor rigs)
whose :func:`~repro.scenario.dsl.compile_scenario` collapses a spec + seed
into a concrete :class:`~repro.scene.world.World` with observer poses and
beam patterns — a pure, process-stable function of ``(spec, seed)``.
:mod:`repro.scenario.families` ships five generative families, and
:mod:`repro.scenario.fuzz` fans seeded sweeps over the worker pool with
per-family recall contracts and violation shrinking.

Exports resolve lazily (PEP 562) from one name-to-module table: each
name is written once, where eager imports would list it twice (import
and ``__all__``), and a submodule loads only when one of its names is
first used.  Within :mod:`repro` only the CLI imports this package, so
``import repro`` loads none of it.
"""

import importlib

_EXPORTS = {
    # dsl
    "ActorDist": "repro.scenario.dsl",
    "BEAM_PATTERNS": "repro.scenario.dsl",
    "Choice": "repro.scenario.dsl",
    "CompiledScenario": "repro.scenario.dsl",
    "Constant": "repro.scenario.dsl",
    "Convoy": "repro.scenario.dsl",
    "Dist": "repro.scenario.dsl",
    "FixedActors": "repro.scenario.dsl",
    "LaneRegion": "repro.scenario.dsl",
    "OccludedGroup": "repro.scenario.dsl",
    "RectRegion": "repro.scenario.dsl",
    "RigDist": "repro.scenario.dsl",
    "RingRegion": "repro.scenario.dsl",
    "ScenarioSpec": "repro.scenario.dsl",
    "TruncNormal": "repro.scenario.dsl",
    "Uniform": "repro.scenario.dsl",
    "UniformInt": "repro.scenario.dsl",
    "ViewpointSpec": "repro.scenario.dsl",
    "beam_pattern": "repro.scenario.dsl",
    "compile_scenario": "repro.scenario.dsl",
    "scenario_fingerprint": "repro.scenario.dsl",
    "world_fingerprint": "repro.scenario.dsl",
    # families
    "FAMILIES": "repro.scenario.families",
    "FAMILY_CONTRACTS": "repro.scenario.families",
    "family": "repro.scenario.families",
    # fuzz
    "CONTRACT_NAMES": "repro.scenario.fuzz",
    "ContractResult": "repro.scenario.fuzz",
    "FamilyReport": "repro.scenario.fuzz",
    "build_case": "repro.scenario.fuzz",
    "compile_sweep": "repro.scenario.fuzz",
    "determinism_digests": "repro.scenario.fuzz",
    "fuzz_family": "repro.scenario.fuzz",
    "fuzz_report": "repro.scenario.fuzz",
    "scenario_seed": "repro.scenario.fuzz",
    "shrink_world": "repro.scenario.fuzz",
    "sweep_digest": "repro.scenario.fuzz",
    # placement
    "ClearanceIndex": "repro.scenario.placement",
    "PlacementError": "repro.scenario.placement",
    "bev_radius": "repro.scenario.placement",
    "place_with_clearance": "repro.scenario.placement",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.scenario' has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
