"""Alternating parent/change runs of one perfbench workload, judged by the claim rule.

    python3 benchmarks/perfbench_pairs.py --parent ../parent \\
        --workload raw64_static_temporal --seed 1 --pairs 10

Runs ``perfbench/run.py --trace 0`` in the parent checkout (for example a
``git worktree`` of the parent commit) and in the change's checkout (by
default the one holding this file), ``--pairs`` times each, alternating
which side runs first.  It reads the last JSON line and the printed
``digest`` of every run.  For each end-to-end metric that ``BENCHMARK.json``
declares it prints the change's wins, each side's median and quartiles,
whether the claim rule holds — the change wins at least nine tenths of the
pairs (ties count for neither side) and its median beats the parent's by
more than the parent's interquartile range (IQR) — and a no-regression
verdict against the metric's ``bound``:

* ``ok``: the change's median is worse than the parent's by at most
  ``bound`` (a share of the parent's median), or every change run beats
  every parent run;
* ``worse``: it is worse by more than ``bound``;
* ``unresolved``: either side's IQR exceeds ``bound`` times its median,
  so the runs spread too widely to tell (unless every change run beats
  every parent run).

A last line says whether every run of both sides printed the same digest.

The script only invokes ``perfbench/run.py``; it changes nothing in either
checkout beyond what that runner writes to its own ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Share of pairs the change must win for a claimed gain.
WIN_SHARE = 0.9


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its metric values, digest and verdict.

    A run that reports ``"correct": false`` is kept (the summary shows it);
    one that prints no result line raises.
    """
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    digests = [line.split()[-1] for line in lines if line.split()[1:2] == ["digest"]]
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "digest": digests[-1] if digests else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation, as perfbench reports them."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str) -> dict:
    """Wins, spreads and the claim-rule verdict for one metric's pairs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gain = sign * (p_median - c_median)
    return {
        "wins": wins,
        "pairs": len(parent),
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "gain": gain,
        "parent_iqr": p_q3 - p_q1,
        "holds": wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1,
    }


def _relative(value: float, base: float) -> float:
    """``value`` as a share of ``|base|``; a nonzero share of 0 is infinite."""
    if base:
        return value / abs(base)
    return 0.0 if value == 0 else float("inf")


def regression(
    parent: list[float], change: list[float], better: str, bound: float
) -> str:
    """No-regression verdict for one metric: ``ok``, ``worse`` or ``unresolved``."""
    if better == "lower":
        beats_all = max(change) < min(parent)
    else:
        beats_all = min(change) > max(parent)
    if beats_all:
        return "ok"
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    if max(_relative(p_q3 - p_q1, p_median), _relative(c_q3 - c_q1, c_median)) > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worsening = _relative(sign * (c_median - p_median), p_median)
    return "worse" if worsening > bound else "ok"


def parse_args(argv=None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=pathlib.Path, default=ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write every run and verdict here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to have quartiles")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args.workload, args.seed, args.seconds)
            runs[side].append(run)
            print(
                f"pair {i + 1}/{args.pairs} {side:<6s} "
                f"frame_ms_p90 {run['metrics']['frame_ms_p90']:.1f} "
                f"correct {run['correct']} failed {run['failed']}",
                file=sys.stderr,
            )

    verdicts = {}
    print(f"{args.workload} seed {args.seed}: "
          f"{args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<20s} {'unit':<6s} {'wins':>6s}  "
          f"{'parent median [q1, q3]':<28s} {'change median [q1, q3]':<28s} "
          f"claim regression")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        verdict = judge(parent, change, metric["better"])
        verdict["regression"] = regression(
            parent, change, metric["better"], metric["bound"]
        )
        verdicts[name] = verdict
        p_q1, p_med, p_q3 = verdict["parent"]
        c_q1, c_med, c_q3 = verdict["change"]
        print(
            f"{name:<20s} {metric['unit']:<6s} "
            f"{verdict['wins']:>3d}/{verdict['pairs']:<2d}  "
            f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':<28s} "
            f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':<28s} "
            f"{'holds' if verdict['holds'] else 'no':<5s} {verdict['regression']}"
        )
    for side in sides:
        digests = sorted({str(r["digest"]) for r in runs[side]})
        all_correct = all(r["correct"] and r["failed"] == 0 for r in runs[side])
        print(f"{side:<6s} digest {', '.join(digests)}  all correct: {all_correct}")
    digests = {r["digest"] for side in sides for r in runs[side]}
    equal = len(digests) == 1 and None not in digests
    print(f"digests equal: {'yes' if equal else 'no'}")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "runs": runs, "verdicts": verdicts},
            indent=1,
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
