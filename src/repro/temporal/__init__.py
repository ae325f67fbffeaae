"""Frame-delta (temporal) state — a warm scan path with cold-path bits.

Cooper's OBU loop runs at sensor frame rate, and consecutive frames of a
static scene repeat work.  The one repeat that measures as worth skipping
is the LiDAR raycast: :class:`TemporalState` carries each agent's
:class:`repro.sensors.lidar.ScanGeometryCache`, which reuses the
per-actor raycast matrix across frames for a repeated pose and
re-raycasts only actors whose geometry changed.  Everything after the
scan runs cold every frame.

**Determinism contract.**  The cache is keyed by the true pose and the
beam pattern, and every hit is verified against the stored key text and
actor geometry, so every warm output (scans, detections, logs) is
bit-identical to a cold run at any worker count.  The state can only
change *when* work is done, never *what* is computed, so nothing ever
needs to invalidate it.

Profiler surfaces: ``temporal.scan_*`` counters, mirrored from the
per-state totals in :meth:`TemporalState.stats`.
"""

from __future__ import annotations

from repro.sensors.lidar import ScanGeometryCache

__all__ = ["SCAN_CACHE_ENTRIES", "TemporalState"]

#: Pose cells each agent's scan geometry cache retains.
SCAN_CACHE_ENTRIES = 4


class TemporalState:
    """Per-agent frame-delta state: the scan geometry cache.

    One instance belongs to one agent's stream of frames; the session
    keeps one per agent and hands its :attr:`scan` cache to ``observe``.
    Dropping the object at any moment changes nothing but speed.
    """

    def __init__(self) -> None:
        self.scan = ScanGeometryCache(maxsize=SCAN_CACHE_ENTRIES)

    def stats(self) -> dict:
        """Counter snapshot of the scan cache (for benchmarks)."""
        return {
            "scan": self.scan.stats(),
            # Constant: perfbench/run.py reads these three blocks.
            "voxel": {"hits": 0, "rescatters": 0, "patched": 0, "misses": 0},
            "detect": {"hits": 0, "misses": 0},
            "invalidations": {},
        }
