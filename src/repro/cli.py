"""Command-line interface for the Cooper reproduction.

``python -m repro.cli <command>`` (or the ``cooper-repro`` console script)
regenerates the paper's experiments from a terminal:

* ``kitti``    — Figs. 2-4: the four 64-beam road scenarios.
* ``tj``       — Figs. 5-7: the fifteen 16-beam parking-lot cases.
* ``cdf``      — Fig. 8: the improvement CDF over all 19 cases.
* ``timing``   — Fig. 9: single vs cooperative detection time.
* ``drift``    — Fig. 10: GPS skew robustness.
* ``network``  — Figs. 11-12: ROI volumes vs DSRC capacity.
* ``chaos``    — beyond-paper: recall under injected channel/sensor faults.
* ``frontier`` — beyond-paper: recall-vs-bandwidth frontier across fusion
  levels (raw / ROI / feature / confidence-gated).
* ``serve``    — beyond-paper: the deterministic perception serving engine
  under a seeded open-loop workload.
* ``scenarios`` — beyond-paper: seeded scenario-family sweeps from the
  declarative DSL, with per-family recall contracts.
"""

from __future__ import annotations

import argparse
import sys


def _detector(args: argparse.Namespace):
    """Build the shared SPOD detector honouring the global ``--dtype`` flag.

    Default (None) keeps :meth:`SPOD.pretrained`'s float32 inference path;
    ``--dtype float64`` reproduces the seed's double-precision numerics.
    """
    from repro import SPOD
    from repro.detection.spod import SPODConfig

    if args.dtype is None:
        return SPOD.pretrained()
    return SPOD.pretrained(SPODConfig(dtype=args.dtype))


def _cmd_kitti(args: argparse.Namespace) -> int:
    from repro import kitti_cases
    from repro.eval import render_case_summary, render_detection_grid, run_cases

    results = run_cases(
        kitti_cases(seed=args.seed), _detector(args), workers=args.workers
    )
    for result in results:
        print(render_detection_grid(result))
        print()
    print(render_case_summary(results))
    return 0


def _cmd_tj(args: argparse.Namespace) -> int:
    from repro import tj_cases
    from repro.eval import render_case_summary, render_detection_grid, run_cases

    results = run_cases(
        tj_cases(seed=args.seed), _detector(args), workers=args.workers
    )
    if args.grids:
        for result in results:
            print(render_detection_grid(result))
            print()
    print(render_case_summary(results))
    return 0


def _cmd_cdf(args: argparse.Namespace) -> int:
    from repro import kitti_cases, tj_cases
    from repro.eval import improvement_samples, render_cdf_table, run_cases

    detector = _detector(args)
    results = run_cases(kitti_cases(seed=args.seed), detector, workers=args.workers)
    results += run_cases(tj_cases(seed=args.seed), detector, workers=args.workers)
    print(render_cdf_table(improvement_samples(results)))
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import kitti_cases, tj_cases
    from repro.eval.experiments import timing_experiment

    detector = _detector(args)
    for label, cases in (
        ("KITTI (64-beam)", kitti_cases(seed=args.seed)),
        ("T&J (16-beam)", tj_cases(seed=args.seed)[:4]),
    ):
        timings = timing_experiment(cases, detector, repeats=args.repeats)
        single = np.mean([t["single"] for t in timings.values()])
        cooper = np.mean([t["cooper"] for t in timings.values()])
        print(
            f"{label}: single {single * 1e3:7.1f} ms   "
            f"cooper {cooper * 1e3:7.1f} ms"
        )
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    from repro.eval.experiments import gps_drift_experiment
    from repro.scene.layouts import parking_lot
    from repro.sensors.gps import GpsSkew
    from repro.sensors.lidar import VLP_16

    skews = {
        "baseline": GpsSkew.NONE,
        "both-axes": GpsSkew.BOTH_AXES_MAX,
        "one-axis": GpsSkew.ONE_AXIS_MAX,
        "double": GpsSkew.DOUBLE_MAX,
    }
    results = gps_drift_experiment(
        parking_lot, ("car1", "car2"), VLP_16, skews,
        seed=args.seed, detector=_detector(args),
    )
    cars = sorted(results["baseline"], key=lambda c: -results["baseline"][c])
    print("car".ljust(12) + "".join(k.rjust(12) for k in skews))
    for car in cars:
        if all(results[k].get(car, 0.0) == 0.0 for k in skews):
            continue
        print(
            car.ljust(12)
            + "".join(
                (f"{results[k].get(car, 0.0):.2f}"
                 if results[k].get(car, 0.0) > 0 else "miss").rjust(12)
                for k in skews
            )
        )
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    from repro.network.dsrc import DsrcChannel
    from repro.network.roi_policy import RoiCategory, RoiPolicy
    from repro.network.simulator import ExchangeSimulator
    from repro.scene.layouts import two_lane_road
    from repro.scene.trajectories import StationaryTrajectory
    from repro.sensors.lidar import VLP_16, LidarModel
    from repro.sensors.rig import SensorRig

    layout = two_lane_road()
    simulator = ExchangeSimulator(
        world=layout.world,
        rig_a=SensorRig(lidar=LidarModel(pattern=VLP_16), name="a"),
        rig_b=SensorRig(lidar=LidarModel(pattern=VLP_16), name="b"),
    )
    ego = StationaryTrajectory(layout.viewpoint("ego"))
    other = StationaryTrajectory(layout.viewpoint("oncoming"))
    channel = DsrcChannel(bandwidth_mbps=6.0)
    for category in RoiCategory:
        subtract = category is not RoiCategory.FULL_FRAME
        policy = RoiPolicy(category=category, subtract_known_background=subtract)
        trace = simulator.run(ego, other, policy, duration_seconds=args.seconds)
        print(
            f"{category.name:17s}: mean {trace.mean_volume_megabits:5.2f} Mbit/s, "
            f"peak {trace.peak_volume_megabits:5.2f}, "
            f"within DSRC: {'yes' if trace.within_capacity(channel) else 'NO'}"
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.eval.chaos import (
        build_chaos_session,
        chaos_sweep,
        session_recall,
    )
    from repro.faults import FaultPlan

    detector = _detector(args)
    if args.faults:
        # One session under an explicit fault spec; print what happened.
        plan = FaultPlan.from_spec(args.faults, seed=args.seed)
        session = build_chaos_session(detector=detector, faults=plan)
        session.temporal = args.temporal
        logs = session.run(
            duration_seconds=args.seconds, seed=args.seed, workers=args.workers
        )
        result = session_recall(session, logs)
        print(f"fault plan : {plan.describe()}")
        print(f"steps      : {result.steps}")
        print(
            f"recall     : {result.recall:.3f} "
            f"({result.matched}/{result.visible} visible cars matched)"
        )
        print(f"packages   : {result.mean_received:.2f} merged per agent-step")
        if result.degradation:
            print("degradation:")
            for name, count in sorted(result.degradation.items()):
                print(f"  {name:20s} {count}")
        else:
            print("degradation: none")
        return 0

    report = chaos_sweep(smoke=args.smoke, seed=args.seed, workers=args.workers)
    print("loss sweep (Gilbert-Elliott bursty channel):")
    print(f"{'loss':>6s} {'recall':>8s} {'pkgs/step':>10s}  degradation")
    for point in report["loss_sweep"]:
        events = sum(point["degradation"].values())
        print(
            f"{point['loss_rate']:6.2f} {point['recall']:8.3f} "
            f"{point['mean_received']:10.2f}  {events} events"
        )
    print("\ngps error sweep (permanent dropout, dead-reckoned fix):")
    print(f"{'err m':>6s} {'recall':>8s}")
    for point in report["gps_error_sweep"]:
        print(f"{point['gps_error_m']:6.1f} {point['recall']:8.3f}")
    stale = report["stale_vs_ego"]
    print(
        f"\nstale fallback vs drop-to-ego at loss {stale['loss_rate']:.1f}: "
        f"{stale['stale_fallback']['recall']:.3f} vs "
        f"{stale['drop_to_ego']['recall']:.3f} "
        f"(gain {stale['recall_gain']:+.3f})"
    )
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from repro.eval.frontier import fusion_frontier

    report = fusion_frontier(
        smoke=args.smoke, seed=args.seed, detector=_detector(args)
    )
    print("recall-vs-bandwidth frontier (Fig. 4 KITTI cases):")
    print(f"{'mode':>8s} {'bytes/frame':>12s} {'recall':>8s}")
    for mode, stats in report["frontier"].items():
        print(
            f"{mode:>8s} {stats['mean_bytes_per_frame']:12.0f} "
            f"{stats['mean_recall']:8.3f}"
        )
    contract = report["contract"]
    print(
        f"\nfeature vs raw: {contract['feature_vs_raw_bytes_ratio']:.1f}x "
        f"fewer bytes/frame, recall drop "
        f"{contract['feature_recall_drop_points']:+.2f} points"
    )
    print(
        "gated < feature bytes: "
        f"{'yes' if contract['gated_below_feature_every_case'] else 'NO'}"
    )
    print("\nsession determinism + bandwidth ledger (chaos scenario):")
    for section, tag in (
        ("determinism", "clean"),
        ("determinism_chaos", "chaos"),
    ):
        for mode, entry in report[section].items():
            print(
                f"  [{tag}] {mode:8s} workers {entry['worker_counts']} "
                f"identical={'yes' if entry['identical'] else 'NO'} "
                f"bytes/frame={entry['comm']['bytes_per_frame']:.0f} "
                f"recall={entry['recall']:.3f}"
            )
    print(
        "\ncontract: "
        f"{'OK' if contract['all_modes_deterministic'] else 'VIOLATED'}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        ClosedLoopSpec,
        FleetConfig,
        FleetEngine,
        ScenarioPool,
        ServeConfig,
        ServingEngine,
        WorkloadSpec,
        apply_ingress_loss,
        build_fleet_report,
        build_report,
        generate_workload,
        make_closed_loop_clients,
        render_fleet_report,
        render_report,
    )

    seconds = min(args.seconds, 1.5) if args.smoke else args.seconds
    rate = min(args.rate, 30.0) if args.smoke else args.rate
    pool = ScenarioPool.build(
        seed=args.seed, variants=1 if args.smoke else args.variants
    )
    spec = WorkloadSpec(
        duration_ms=seconds * 1000.0,
        rate_rps=rate,
        num_clients=args.clients,
        burst_factor=args.burst,
        seed=args.seed,
    )
    requests = generate_workload(spec, pool)
    delivered, lost = apply_ingress_loss(
        requests, loss_rate=args.ingress_loss, seed=args.seed
    )
    closed_loop = []
    if args.closed_loop > 0:
        closed_loop = make_closed_loop_clients(
            ClosedLoopSpec(
                duration_ms=spec.duration_ms,
                num_clients=args.closed_loop,
                seed=args.seed,
            ),
            pool,
        )
    config = ServeConfig(
        max_batch_size=1 if args.per_request else args.batch_size,
        max_wait_ms=0.0 if args.per_request else args.max_wait_ms,
        queue_capacity=args.queue_capacity,
        lanes=args.lanes,
        max_lanes=args.autoscale_max_lanes,
    )
    shard_faults = None
    if args.shard_faults is not None:
        from repro.faults.serve import ShardFaultPlan

        shard_faults = ShardFaultPlan.from_spec(args.shard_faults, seed=args.seed)
    mode = "per-request" if args.per_request else f"batch<= {config.max_batch_size}"
    print(
        f"workload   : {rate:.0f} req/s x {seconds:.1f}s over "
        f"{args.clients} open + {args.closed_loop} closed-loop clients "
        f"(seed {args.seed}, {mode})"
    )
    if shard_faults is not None:
        print(f"faults     : {shard_faults.describe()}")
    if args.shards > 1 or shard_faults is not None:
        # Injected shard faults always go through the fleet path — the
        # resilient router is what absorbs them, even at one shard.
        fleet = FleetEngine(
            detector=_detector(args),
            config=FleetConfig(
                num_shards=args.shards,
                routing_seed=args.routing_seed,
                shard_config=config,
                shard_faults=shard_faults,
            ),
            workers=args.workers,
        )
        fleet_result = fleet.serve(delivered, lost=lost, closed_loop=closed_loop)
        print(render_fleet_report(build_fleet_report(fleet_result, spec.duration_ms)))
        print(f"digest     : {fleet_result.digest()[:16]}")
        return 0
    engine = ServingEngine(
        detector=_detector(args), config=config, workers=args.workers
    )
    result = engine.serve(delivered, lost=lost, closed_loop=closed_loop)
    print(render_report(build_report(result, spec.duration_ms)))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenario.families import FAMILIES, family
    from repro.scenario.fuzz import fuzz_family

    if args.family is not None:
        family(args.family)  # fail fast with the valid set on a typo
        names = (args.family,)
    else:
        names = tuple(sorted(FAMILIES))
    count = args.count if args.count is not None else (25 if args.smoke else 200)
    sample = args.sample if args.sample is not None else (4 if args.smoke else 12)
    detector = _detector(args) if args.contracts else None
    contracts = None if args.contracts else ()
    failed = False
    for name in names:
        report = fuzz_family(
            name,
            count,
            base_seed=args.seed,
            workers=args.workers,
            detector=detector,
            contracts=contracts,
            sample=sample,
        )
        print(
            f"{name:26s} {report.count:5d} scenarios  "
            f"digest {report.digest[:12]}  "
            f"targets/scene {report.targets_mean:.1f}  "
            f"dropped {report.dropped_total}"
        )
        for contract in report.contracts:
            verdict = "OK" if contract.passed else "VIOLATED"
            print(
                f"  {contract.name:20s} checked {contract.checked:3d}  "
                f"{verdict}"
            )
            for violation in contract.violations[:3]:
                print(f"    {violation}")
            if contract.minimal is not None:
                print(
                    f"    minimal failing seed {contract.minimal['seed']}: "
                    f"{contract.minimal['actors']}"
                )
        failed = failed or not report.passed
    if failed:
        print("\ncontract VIOLATED (see details above)")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="cooper-repro",
        description="Regenerate the Cooper (ICDCS 2019) experiments.",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for case evaluation (default: $REPRO_WORKERS "
        "or 1; results are bit-identical at any worker count)",
    )
    parser.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default=None,
        help="detector compute precision (default: the pretrained "
        "detector's float32 inference path; float64 reproduces the "
        "seed's double-precision numerics bit for bit)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-stage wall-clock timings and print the stage table",
    )
    parser.add_argument(
        "--profile-json",
        metavar="PATH",
        default=None,
        help="export the stage stats as JSON (implies --profile)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kitti", help="Figs. 2-4 on the synthetic KITTI cases")
    tj = sub.add_parser("tj", help="Figs. 5-7 on the synthetic T&J cases")
    tj.add_argument("--grids", action="store_true", help="print all 15 grids")
    sub.add_parser("cdf", help="Fig. 8 improvement CDF")
    timing = sub.add_parser("timing", help="Fig. 9 detection timing")
    timing.add_argument(
        "--repeats", type=int, default=5,
        help="timed rounds per case after one warm-up (at least 5)",
    )
    sub.add_parser("drift", help="Fig. 10 GPS drift robustness")
    network = sub.add_parser("network", help="Figs. 11-12 ROI volumes")
    network.add_argument("--seconds", type=float, default=8.0)
    chaos = sub.add_parser(
        "chaos", help="recall under injected channel/sensor faults"
    )
    chaos.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="run one session under a fault spec instead of the sweep: a "
        "preset (none/mild/heavy) and/or comma-separated key=value "
        "overrides, e.g. 'loss=0.5,jitter=10' or 'heavy,gps-dropout=1.0'",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the sweep grids and session length (CI smoke run)",
    )
    chaos.add_argument(
        "--temporal",
        action="store_true",
        help="carry each agent's scan geometry cache across steps "
        "(repro.temporal); results are bit-identical, and a stationary "
        "agent reuses its raycast geometry",
    )
    chaos.add_argument(
        "--seconds",
        type=float,
        default=6.0,
        help="session length for --faults runs (default 6.0)",
    )
    frontier = sub.add_parser(
        "frontier",
        help="recall-vs-bandwidth frontier across fusion levels "
        "(raw / roi / feature / confidence-gated)",
    )
    frontier.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the case set and session length (CI smoke run)",
    )
    serve = sub.add_parser(
        "serve",
        help="run the deterministic perception serving engine under a "
        "seeded open-loop workload",
    )
    serve.add_argument(
        "--rate", type=float, default=40.0, help="offered load, requests/s"
    )
    serve.add_argument(
        "--seconds", type=float, default=4.0, help="arrival window length"
    )
    serve.add_argument(
        "--clients", type=int, default=4, help="independent client vehicles"
    )
    serve.add_argument(
        "--batch-size", type=int, default=8, help="dynamic batch cap"
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=25.0,
        help="longest wait for co-batchers before a partial dispatch",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64, help="bounded queue depth"
    )
    serve.add_argument(
        "--lanes", type=int, default=1, help="parallel virtual service lanes"
    )
    serve.add_argument(
        "--per-request",
        action="store_true",
        help="disable batching (batch size 1, zero wait) — the baseline",
    )
    serve.add_argument(
        "--ingress-loss",
        type=float,
        default=0.0,
        help="flat request-loss probability on the ingress channel",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=1.0,
        help="arrival-rate multiplier inside burst windows (1 = smooth)",
    )
    serve.add_argument(
        "--variants",
        type=int,
        default=2,
        help="scenario-pool re-scans per layout",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="fleet shards behind the deterministic client router "
        "(1 = single engine)",
    )
    serve.add_argument(
        "--routing-seed",
        type=int,
        default=0,
        help="salt of the client->shard routing hash",
    )
    serve.add_argument(
        "--closed-loop",
        type=int,
        default=0,
        metavar="N",
        help="add N closed-loop (platooning) clients that wait for a "
        "reply before re-issuing",
    )
    serve.add_argument(
        "--autoscale-max-lanes",
        type=int,
        default=0,
        metavar="L",
        help="enable per-shard lane autoscaling up to L lanes (0 = off)",
    )
    serve.add_argument(
        "--shard-faults",
        metavar="SPEC",
        default=None,
        help="inject seeded shard failures and serve through the "
        "resilient fleet router: comma-separated key=value entries, "
        "e.g. 'crash-rate=4,crash-ms=400,ingress-loss=0.1' "
        "(keys: crash-rate, crash-ms, brownout-rate, brownout-ms, "
        "brownout-factor, ingress-loss, horizon, seed; the *-ms keys "
        "take a fixed value or a lo:hi range)",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the workload and pool (CI smoke run)",
    )
    scenarios = sub.add_parser(
        "scenarios",
        help="compile seeded scenario-family sweeps (repro.scenario) and "
        "optionally assert the per-family recall contracts",
    )
    scenarios.add_argument(
        "--family",
        default=None,
        help="one scenario family (default: every family in "
        "repro.scenario.families.FAMILIES)",
    )
    scenarios.add_argument(
        "--count",
        type=int,
        default=None,
        help="scenarios per family (default: 200, or 25 with --smoke)",
    )
    scenarios.add_argument(
        "--contracts",
        action="store_true",
        help="run each family's recall contracts (fusion-never-hurts, "
        "monotone-beam, no-crash-under-chaos) on a sampled subset; "
        "exit 1 on any violation",
    )
    scenarios.add_argument(
        "--sample",
        type=int,
        default=None,
        help="scenarios per family to run detection contracts on "
        "(default: 12, or 4 with --smoke)",
    )
    scenarios.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the sweep and contract sample (CI smoke run)",
    )
    return parser


_HANDLERS = {
    "kitti": _cmd_kitti,
    "tj": _cmd_tj,
    "cdf": _cmd_cdf,
    "timing": _cmd_timing,
    "drift": _cmd_drift,
    "network": _cmd_network,
    "chaos": _cmd_chaos,
    "frontier": _cmd_frontier,
    "serve": _cmd_serve,
    "scenarios": _cmd_scenarios,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.profile_json:
        args.profile = True
    if not args.profile:
        return _HANDLERS[args.command](args)

    from repro.profiling import PROFILER

    PROFILER.reset()
    PROFILER.enable()
    try:
        status = _HANDLERS[args.command](args)
    finally:
        PROFILER.disable()
    print("\n=== stage profile ===")
    print(PROFILER.render_table())
    if args.profile_json:
        path = PROFILER.export_json(args.profile_json)
        print(f"(stage stats written to {path})")
    return status


if __name__ == "__main__":
    sys.exit(main())
