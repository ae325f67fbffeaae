"""Temporal self-fusion: one vehicle merging its own consecutive scans.

The paper's Fig. 2 does exactly this — "by merging t1 and t2's point
clouds, we emulate the cooperative sensing process between two vehicles" —
and the left-turn scenario (delta-d = 0) is pure temporal redundancy.  The
machinery is the same Eq. (1)-(3) alignment, with the vehicle's *own*
earlier pose playing the transmitter.

In a real system this runs on dead-reckoned ego-motion; here the measured
GPS+IMU poses of the rig observations serve, so alignment error matches
the cooperative case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.fusion.align import alignment_transform
from repro.fusion.package import ExchangePackage
from repro.pointcloud.cloud import PointCloud, merge_clouds
from repro.sensors.rig import RigObservation

__all__ = ["merge_timeline", "StaleEntry", "StalePackageCache"]


def merge_timeline(
    observations: Sequence[RigObservation],
    reference_index: int = -1,
) -> PointCloud:
    """Merge a vehicle's scan history into one reference frame.

    Args:
        observations: the vehicle's rig observations in time order.
        reference_index: which observation's frame hosts the result
            (default: the latest — the frame the vehicle plans in).

    Static structure accumulates density across the timeline exactly like a
    cooperator's contribution; moving objects smear, which is why the paper
    evaluates static scenes for this emulation.
    """
    observations = list(observations)
    if not observations:
        return PointCloud.empty(frame_id="timeline")
    reference = observations[reference_index]
    aligned = []
    for obs in observations:
        if obs is reference:
            aligned.append(obs.scan.cloud)
            continue
        transform = alignment_transform(
            obs.measured_pose, reference.measured_pose
        )
        aligned.append(obs.scan.cloud.transformed(transform))
    return merge_clouds(aligned, frame_id="timeline")


@dataclass(frozen=True)
class StaleEntry:
    """One cached delivery: the decoded package and its age.

    Attributes:
        package: the decoded package, the very object the receivers of
            its step merged (so a fallback takes the fresh path).
        step: the session step the package was delivered at.
    """

    package: ExchangePackage
    step: int


@dataclass
class StalePackageCache:
    """Per-peer cache of the last delivered package, age-bounded.

    This is the Fig. 2 temporal-emulation argument turned into a
    resilience mechanism: a peer's *earlier* package still carries its
    capture pose, so the Eq. (1)-(3) transform re-aligns it into the
    receiver's current frame exactly as :func:`merge_timeline` re-aligns
    a vehicle's own scan history.  Static structure stays valid; only
    movers smear — which is why the fallback is bounded by
    ``max_age_steps`` rather than kept forever.

    Attributes:
        max_age_steps: oldest usable entry, in session steps (an entry
            from step ``s`` serves requests up to ``s + max_age_steps``).
    """

    max_age_steps: int = 3
    _entries: dict[str, StaleEntry] = field(default_factory=dict)

    def store(self, sender: str, package: ExchangePackage, step: int) -> None:
        """Remember the latest delivered package of one peer."""
        self._entries[sender] = StaleEntry(package, step)

    def last(self, sender: str) -> StaleEntry | None:
        """The peer's most recent delivery, regardless of age.

        The session's sanity gate uses this for its pose-jump check — a
        physically impossible jump from the last known pose marks a
        corrupted package even when the cached entry is too old to merge.
        """
        return self._entries.get(sender)

    def recall(self, sender: str, step: int) -> StaleEntry | None:
        """The peer's last delivery, if it is still young enough."""
        entry = self._entries.get(sender)
        if entry is None or step - entry.step > self.max_age_steps:
            return None
        return entry
