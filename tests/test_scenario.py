"""Tests for repro.scenario: grammar, placement, fuzzing, shrinking; layouts."""

import subprocess
import sys

import numpy as np
import pytest

from repro.scenario.dsl import (
    ActorDist,
    BEAM_PATTERNS,
    Choice,
    Constant,
    OccludedGroup,
    RectRegion,
    RigDist,
    ScenarioSpec,
    TruncNormal,
    Uniform,
    UniformInt,
    ViewpointSpec,
    beam_pattern,
    compile_scenario,
    scenario_fingerprint,
    world_fingerprint,
)
from repro.scenario.families import FAMILIES, FAMILY_CONTRACTS, family
from repro.scenario.fuzz import (
    build_case,
    compile_sweep,
    determinism_digests,
    fuzz_family,
    sample_indices,
    scenario_seed,
    shrink_world,
    sweep_digest,
)
from repro.scenario.placement import (
    ClearanceIndex,
    PlacementError,
    bev_radius,
    place_with_clearance,
)
from repro.scene import layouts
from repro.scene.objects import make_car
from repro.scene.world import World


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


class TestDistributions:
    def test_constant_never_consumes_randomness(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert Constant(3.5).sample(rng) == 3.5
        assert rng.bit_generator.state == before

    def test_uniform_bounds_and_validation(self):
        rng = np.random.default_rng(1)
        draws = [Uniform(2.0, 5.0).sample(rng) for _ in range(200)]
        assert all(2.0 <= d <= 5.0 for d in draws)
        with pytest.raises(ValueError, match="lo <= hi"):
            Uniform(5.0, 2.0)

    def test_uniform_int_inclusive(self):
        rng = np.random.default_rng(2)
        draws = {UniformInt(1, 3).sample_int(rng) for _ in range(300)}
        assert draws == {1, 2, 3}

    def test_trunc_normal_clips(self):
        rng = np.random.default_rng(3)
        dist = TruncNormal(0.0, 10.0, -1.0, 1.0)
        draws = [dist.sample(rng) for _ in range(200)]
        assert all(-1.0 <= d <= 1.0 for d in draws)

    def test_choice_weights_validation(self):
        with pytest.raises(ValueError):
            Choice(())
        with pytest.raises(ValueError, match="weights"):
            Choice((1, 2), weights=(1.0,))
        rng = np.random.default_rng(4)
        picks = {Choice(("a", "b")).pick(rng) for _ in range(100)}
        assert picks == {"a", "b"}


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


class TestPlacement:
    def test_clearance_index_rejects_overlap(self):
        index = ClearanceIndex()
        index.reserve(0.0, 0.0, 2.0)
        assert not index.fits(1.0, 0.0, 1.5)
        assert index.fits(4.1, 0.0, 2.0)
        index.reserve_actor(make_car(10.0, 0.0, 0.0, name="c"), margin=0.5)
        assert not index.fits(10.0, 1.0, 0.5)

    def test_place_with_clearance_drop_and_raise(self):
        index = ClearanceIndex()
        index.reserve(0.0, 0.0, 50.0)  # everything is blocked
        rng = np.random.default_rng(0)

        def candidate(r):
            return r.uniform(-5, 5), r.uniform(-5, 5), 0.0

        assert (
            place_with_clearance(rng, candidate, index, 1.0, 0.5, 5) is None
        )
        with pytest.raises(PlacementError, match="after 5 attempts"):
            place_with_clearance(
                rng, candidate, index, 1.0, 0.5, 5, on_exhausted="raise"
            )

    def test_place_with_clearance_reserves_accepted(self):
        index = ClearanceIndex()
        rng = np.random.default_rng(0)
        placed = place_with_clearance(
            rng, lambda r: (0.0, 0.0, 1.0), index, 2.0, 0.5, 1
        )
        assert placed == (0.0, 0.0, 1.0)
        assert len(index) == 1
        assert not index.fits(0.0, 0.0, 0.1)

    def test_generative_actors_respect_clearance(self):
        compiled = compile_scenario(family("roundabout"), seed=7)
        cars = [a for a in compiled.world.actors if a.name.startswith(("ring", "west", "east"))]
        for i, a in enumerate(cars):
            for b in cars[i + 1:]:
                distance = float(
                    np.hypot(*(a.box.center[:2] - b.box.center[:2]))
                )
                min_gap = bev_radius(a.box.length, a.box.width) + bev_radius(
                    b.box.length, b.box.width
                )
                assert distance >= min_gap * 0.99, (a.name, b.name)


# ---------------------------------------------------------------------------
# Spec validation and compile semantics
# ---------------------------------------------------------------------------


def _tiny_spec(**overrides):
    fields = dict(
        name="tiny",
        constructs=(
            ActorDist(
                kind="car",
                count=Constant(2),
                region=RectRegion(10.0, 30.0, -5.0, 5.0),
                prefix="car",
            ),
        ),
        viewpoints=(ViewpointSpec.fixed("ego", 0.0, 0.0),),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestSpecValidation:
    def test_requires_viewpoints(self):
        with pytest.raises(ValueError, match="at least one viewpoint"):
            _tiny_spec(viewpoints=())

    def test_duplicate_viewpoints_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            _tiny_spec(
                viewpoints=(
                    ViewpointSpec.fixed("ego", 0.0, 0.0),
                    ViewpointSpec.fixed("ego", 1.0, 0.0),
                )
            )

    def test_unknown_receiver_lists_valid_set(self):
        with pytest.raises(ValueError, match="valid viewpoints: ego"):
            _tiny_spec(receiver="nope")

    def test_bad_bailout_mode_rejected(self):
        with pytest.raises(ValueError, match="drop"):
            _tiny_spec(on_exhausted="explode")

    def test_unknown_beam_pattern_lists_valid_set(self):
        with pytest.raises(KeyError, match="valid patterns"):
            beam_pattern("hdl-one-million")
        with pytest.raises(KeyError, match="valid patterns"):
            RigDist("nope")

    def test_unknown_family_lists_valid_set(self):
        with pytest.raises(KeyError, match="valid families"):
            family("freeway_pileup")


class TestCompile:
    def test_pure_function_of_spec_and_seed(self):
        spec = family("convoy")
        a = compile_scenario(spec, 42)
        b = compile_scenario(spec, 42)
        assert scenario_fingerprint(a) == scenario_fingerprint(b)
        c = compile_scenario(spec, 43)
        assert scenario_fingerprint(a) != scenario_fingerprint(c)

    def test_construct_streams_are_isolated(self):
        # Appending a construct must not reshuffle earlier constructs'
        # draws — each construct owns a derived seed stream.
        base = _tiny_spec()
        extended = _tiny_spec(
            constructs=base.constructs
            + (
                ActorDist(
                    kind="car",
                    count=Constant(1),
                    region=RectRegion(40.0, 50.0, -5.0, 5.0),
                    prefix="extra",
                ),
            )
        )
        w1 = compile_scenario(base, 5).world
        w2 = compile_scenario(extended, 5).world
        first = [a for a in w2.actors if a.name.startswith("car-")]
        assert world_fingerprint(w1) == world_fingerprint(World(tuple(first)))

    def test_exhausted_raise_mode_raises(self):
        spec = _tiny_spec(
            constructs=(
                ActorDist(
                    kind="car",
                    count=Constant(50),
                    region=RectRegion(10.0, 14.0, -2.0, 2.0),
                    prefix="jam",
                ),
            ),
            on_exhausted="raise",
            max_attempts=3,
        )
        with pytest.raises(PlacementError):
            compile_scenario(spec, 0)

    def test_exhausted_drop_mode_records(self):
        spec = _tiny_spec(
            constructs=(
                ActorDist(
                    kind="car",
                    count=Constant(50),
                    region=RectRegion(10.0, 14.0, -2.0, 2.0),
                    prefix="jam",
                ),
            ),
            max_attempts=3,
        )
        compiled = compile_scenario(spec, 0)
        assert compiled.dropped.get("jam", 0) > 0
        assert len(compiled.world.actors) + compiled.dropped["jam"] == 50

    def test_viewpoint_keepout_respected(self):
        compiled = compile_scenario(_tiny_spec(), 3)
        for actor in compiled.world.actors:
            for pose in compiled.viewpoints.values():
                distance = float(
                    np.hypot(*(actor.box.center[:2] - pose.position[:2]))
                )
                assert distance >= 3.0 - 1e-9

    def test_mixed_rig_sampling(self):
        spec = _tiny_spec(
            viewpoints=tuple(
                ViewpointSpec.fixed(f"v{i}", 0.0, float(i) * 5) for i in range(6)
            ),
            rig=RigDist(Choice(("fuzz16", "fuzz64"))),
        )
        seen = set()
        for seed in range(8):
            compiled = compile_scenario(spec, seed)
            seen |= {p.name for p in compiled.rigs.values()}
        assert seen == {"fuzz-16", "fuzz-64"}

    def test_layout_bridge(self):
        compiled = compile_scenario(family("roundabout"), 0)
        layout = compiled.layout()
        assert layout.name == "roundabout"
        assert set(layout.viewpoints) == {"west-arm", "east-arm"}


class TestOccludedGroup:
    def test_occluder_sits_on_the_sight_line(self):
        spec = ScenarioSpec(
            name="occl",
            constructs=(
                OccludedGroup(
                    viewpoint="ego",
                    region=RectRegion(18.0, 28.0, -6.0, -3.0, yaw=Constant(0.0)),
                    count=Constant(2),
                    prefix="hidden",
                ),
            ),
            viewpoints=(ViewpointSpec.fixed("ego", 0.0, -1.5),),
        )
        for seed in range(5):
            compiled = compile_scenario(spec, seed)
            occluders = [
                a for a in compiled.world.actors if a.name == "hidden-occluder"
            ]
            hidden = [
                a
                for a in compiled.world.actors
                if a.name.startswith("hidden-") and a.name != "hidden-occluder"
            ]
            if not occluders:
                continue
            eye = compiled.viewpoints["ego"].position[:2]
            occ = occluders[0].box.center[:2]
            assert hidden, "occluder placed but nothing hidden behind it"
            for person in hidden:
                target = person.box.center[:2]
                # The occluder lies between the eye and the huddle, close
                # to the eye->anchor segment.
                along = np.dot(occ - eye, target - eye) / (
                    np.linalg.norm(target - eye) ** 2
                )
                assert 0.1 <= along <= 1.0
                sight = (target - eye) / np.linalg.norm(target - eye)
                offset = occ - eye
                lateral = abs(
                    float(sight[0] * offset[1] - sight[1] * offset[0])
                )
                assert lateral <= 4.0

    def test_unknown_viewpoint_lists_valid_set(self):
        spec = ScenarioSpec(
            name="occl",
            constructs=(
                OccludedGroup(
                    viewpoint="ghost",
                    region=RectRegion(18.0, 28.0, -6.0, -3.0),
                    count=Constant(1),
                ),
            ),
            viewpoints=(ViewpointSpec.fixed("ego", 0.0, -1.5),),
        )
        with pytest.raises(KeyError, match="valid viewpoints: ego"):
            compile_scenario(spec, 0)


# ---------------------------------------------------------------------------
# Layouts (each paper scene defined once, its world pinned by fingerprint)
# ---------------------------------------------------------------------------

#: ``world_fingerprint`` of each hand-coded layout at its default seed.  A
#: layout's world depends only on numpy ``Generator`` draws, exact
#: arithmetic and clips (and, for the curve arc, ``np.sin``/``np.cos`` of
#: fixed angles, which equal libm's), so the digests are expected to hold
#: in every environment.  Should one ever differ, key the table by
#: environment; never loosen the comparison.
LAYOUT_WORLDS = {
    "t_junction":
        "70b089786fc5f490d9f48f648b137c1f2bff41c0b9cb5920a5bd53cf5b8b63d0",
    "stop_sign":
        "f73c69008ae702b43a5d6bc4ecb1ea9bd1529ea335a6bc0987dce074198c16f9",
    "left_turn":
        "42b5a3f7efd272a551d5df40fc229af167e3faa763968d063398748740ec3abd",
    "curve":
        "c8f51f483d278a1e53d60922b35ca3469bddcbba83f6f45ee2e4c2c111f3db68",
    "parking_lot":
        "6c6b06e715db992638ea7fee29c53225c6b9d6af54ba522edc02216020ac631e",
    "two_lane_road":
        "38735c724e3680e071221f40828159bc322f9f5f687a4445daae11aff8735309",
    "highway_overtake":
        "018b299b14c9e759e267865d568350b62cfb4f7886ebc50cfe5d7bafcc74a2ef",
    "crosswalk":
        "57eb21f78bf9e9336bfdb6112a022c5ce6ea7d87233195939b33c0ee5549da55",
}

#: The parking lot the repo benchmark scans, and its world's fingerprint.
PERFBENCH_LOT = {"seed": 51, "rows": 3, "cols": 6, "occupancy": 0.8}
PERFBENCH_LOT_WORLD = (
    "8929dbbaf6be7af7e87157e8cf0b54fe9c6dc41e351a8b02c027c2d894ff6726"
)


class TestLayoutParity:
    @pytest.mark.parametrize("name", sorted(LAYOUT_WORLDS))
    def test_layout_world_is_pinned(self, name):
        layout = getattr(layouts, name)()
        assert world_fingerprint(layout.world) == LAYOUT_WORLDS[name]

    def test_perfbench_lot_world_is_pinned(self):
        layout = layouts.parking_lot(**PERFBENCH_LOT)
        assert world_fingerprint(layout.world) == PERFBENCH_LOT_WORLD

    def test_every_layout_is_pinned(self):
        assert set(LAYOUT_WORLDS) == set(layouts.__all__) - {"Layout"}

    def test_layout_viewpoint_lists_valid_names_on_typo(self):
        layout = layouts.t_junction()
        with pytest.raises(KeyError, match="valid viewpoints: t1, t2"):
            layout.viewpoint("t9")


# ---------------------------------------------------------------------------
# Determinism (cross-process, cross-worker-count)
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_fingerprints_stable_across_hash_seeds(self):
        # Same pattern as the fleet router test: anything built on
        # Python's hash() changes per process under PYTHONHASHSEED
        # randomization.  Scenario compilation must not.
        script = (
            "from repro.scenario.dsl import compile_scenario, "
            "scenario_fingerprint\n"
            "from repro.scenario.families import family\n"
            "prints = [scenario_fingerprint(compile_scenario("
            "family('roundabout'), s)) for s in (0, 1, 2)]\n"
            "print(prints)\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1

    def test_compile_sweep_bit_identical_across_worker_counts(self):
        digests = determinism_digests(
            family("occluded_pedestrian"), 24, base_seed=0, worker_counts=(1, 4)
        )
        assert len(set(digests.values())) == 1

    def test_scenario_seed_is_derived_not_sequential(self):
        a = scenario_seed(0, "convoy", 1)
        b = scenario_seed(0, "roundabout", 1)
        assert a != b
        assert scenario_seed(0, "convoy", 1) == a


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class TestFamilies:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_compiles_with_targets(self, name):
        for seed in (0, 1, 2):
            compiled = compile_scenario(family(name), seed)
            assert len(compiled.world.targets()) >= 2
            assert compiled.receiver in compiled.viewpoints
            assert set(compiled.rigs) == set(compiled.viewpoints)
            for actor in compiled.world.actors:
                x, y = actor.box.center[:2]
                assert -10.0 <= x <= 72.0 and -40.0 <= y <= 40.0

    def test_every_family_has_contracts(self):
        assert set(FAMILY_CONTRACTS) == set(FAMILIES)
        for contracts in FAMILY_CONTRACTS.values():
            assert contracts


# ---------------------------------------------------------------------------
# Fuzz harness
# ---------------------------------------------------------------------------


class TestFuzzHarness:
    def test_sample_indices_even_and_deterministic(self):
        assert sample_indices(10, 20) == list(range(10))
        picked = sample_indices(100, 5)
        assert picked == [0, 25, 50, 74, 99]
        assert sample_indices(100, 5) == picked

    def test_structural_fuzz_needs_no_detector(self):
        report = fuzz_family(
            "highway_merge", count=12, base_seed=0, workers=1, contracts=()
        )
        assert report.count == 12
        assert report.contracts == []
        assert report.targets_mean > 0
        assert len(report.digest) == 64

    def test_sweep_digest_orders_matter(self):
        spec = family("convoy")
        summaries = compile_sweep(spec, 6, base_seed=0, workers=1)
        assert sweep_digest(summaries) != sweep_digest(summaries[::-1])

    def test_build_case_uses_sampled_rigs_and_override(self):
        compiled = compile_scenario(family("mixed_fleet_intersection"), 2)
        case = build_case(compiled)
        assert set(case.observer_names) == set(compiled.viewpoints)
        assert case.receiver == "ego"
        forced = build_case(compiled, pattern_override="fuzz64")
        for name in forced.observer_names:
            dense = forced.observations[name].scan.cloud.data
            assert dense.shape[0] > 0

    def test_fuzz_contracts_on_occlusion_family(self, detector):
        report = fuzz_family(
            "occluded_pedestrian",
            count=6,
            base_seed=0,
            workers=1,
            detector=detector,
            sample=2,
            shrink=False,
        )
        names = {c.name for c in report.contracts}
        assert names == {"fusion_never_hurts", "no_crash"}
        assert report.passed, [c.violations for c in report.contracts]


class TestShrinking:
    def test_shrink_world_finds_minimal_actor_set(self):
        actors = tuple(
            make_car(float(i) * 10, 0.0, 0.0, name=f"car-{i}") for i in range(6)
        )
        world = World(actors)

        def failing(candidate: World) -> bool:
            names = {a.name for a in candidate.actors}
            return {"car-1", "car-4"} <= names

        minimal = shrink_world(world, failing)
        assert sorted(a.name for a in minimal.actors) == ["car-1", "car-4"]

    def test_shrink_world_respects_protect(self):
        world = World(
            tuple(make_car(float(i) * 10, 0.0, 0.0, name=f"car-{i}") for i in range(3))
        )
        minimal = shrink_world(
            world, lambda w: "car-0" in {a.name for a in w.actors},
            protect=("car-2",),
        )
        assert sorted(a.name for a in minimal.actors) == ["car-0", "car-2"]

    def test_shrink_world_requires_failing_start(self):
        world = World((make_car(0.0, 0.0, 0.0, name="c"),))
        with pytest.raises(ValueError, match="failing world"):
            shrink_world(world, lambda w: False)


class TestBeamPatternRegistry:
    def test_fuzz_patterns_halve_azimuth_resolution(self):
        assert BEAM_PATTERNS["fuzz16"].azimuth_resolution_deg == 0.8
        assert BEAM_PATTERNS["fuzz64"].azimuth_resolution_deg == 0.8
        assert len(BEAM_PATTERNS["fuzz16"].elevations_deg) == 16
        assert len(BEAM_PATTERNS["fuzz64"].elevations_deg) == 64
        assert BEAM_PATTERNS["vlp16"].azimuth_resolution_deg == 0.4
