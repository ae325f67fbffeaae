"""Fig. 10 — cooperative detection scores under GPS reading drift.

The transmitting vehicle's GPS is skewed per the paper's protocols: both
axes to the drift bound, one axis to the bound, and double the bound
("abnormal instances").

Paper shape: skewed scores cluster around the baseline — "the overwhelming
majority achieving successful detection" — with occasional scores that
*improve* under skew (masking inherent drift) and, at double drift, a
couple of lost detections.
"""

import numpy as np

from benchmarks.conftest import publish
from repro.eval.experiments import gps_drift_experiment
from repro.scene.layouts import parking_lot
from repro.sensors.gps import GpsSkew
from repro.sensors.lidar import VLP_16

SKEWS = {
    "baseline": GpsSkew.NONE,
    "both-axes-max": GpsSkew.BOTH_AXES_MAX,
    "one-axis-max": GpsSkew.ONE_AXIS_MAX,
    "double-max": GpsSkew.DOUBLE_MAX,
}


def test_fig10_gps_drift(benchmark, detector, results_dir):
    results = benchmark.pedantic(
        gps_drift_experiment,
        args=(parking_lot, ("car1", "car2"), VLP_16, SKEWS),
        kwargs={"detector": detector},
        rounds=1,
        iterations=1,
    )

    # Ties on the baseline score (two misses, say) print by name, so the
    # table does not depend on set order.
    cars = sorted(
        {car for scores in results.values() for car in scores},
        key=lambda name: (-results["baseline"].get(name, 0.0), name),
    )
    header = "car".ljust(12) + "".join(label.rjust(15) for label in SKEWS)
    lines = ["Fig. 10 analogue — cooperative scores under GPS skew", header]
    for car in cars:
        row = car.ljust(12)
        for label in SKEWS:
            score = results[label].get(car, 0.0)
            row += (f"{score:.2f}" if score > 0 else "miss").rjust(15)
        lines.append(row)
    publish(results_dir, "fig10_gps_drift.txt", "\n".join(lines))

    baseline = results["baseline"]
    detected_baseline = {c for c, s in baseline.items() if s > 0}
    for label in ("both-axes-max", "one-axis-max"):
        skewed = results[label]
        still_detected = {c for c in detected_baseline if skewed.get(c, 0.0) > 0}
        # Within-bound skews keep the overwhelming majority of detections.
        assert len(still_detected) >= 0.8 * len(detected_baseline)
        deltas = [
            abs(skewed[c] - baseline[c]) for c in still_detected
        ]
        assert float(np.mean(deltas)) < 0.12  # clustered near the baseline

    benchmark.extra_info["baseline_detected"] = len(detected_baseline)
