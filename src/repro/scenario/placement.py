"""Collision-checked actor placement for the scenario DSL.

:class:`ClearanceIndex` + :func:`place_with_clearance` do rejection
sampling for the scenario grammar: a candidate position is accepted only
when its clearance disc does not intersect any already-placed actor's
disc, and the sampler bails out deterministically after a bounded number
of attempts (drop the actor and count it, or raise
:class:`PlacementError` — never an unbounded loop).

Clearance uses a conservative BEV disc per actor (half the box diagonal
plus the requested clearance margin).  Discs slightly over-reject versus
exact oriented-box tests, which is the right bias for scene generation:
no accepted scene ever contains interpenetrating actors, and the check is
a couple of flops per candidate so rejection sampling stays cheap at
thousands of scenarios.
"""

from __future__ import annotations

import numpy as np

from repro.scene.objects import Actor

__all__ = [
    "PlacementError",
    "ClearanceIndex",
    "place_with_clearance",
    "bev_radius",
]


class PlacementError(RuntimeError):
    """Rejection sampling exhausted its attempt budget for one actor."""


def bev_radius(length: float, width: float) -> float:
    """Radius of the conservative BEV disc covering an oriented box."""
    return float(np.hypot(length, width)) / 2.0


class ClearanceIndex:
    """Occupied BEV discs of a scene under construction.

    Tracks ``(x, y, radius)`` per placed actor (plus any reserved keep-out
    discs, e.g. around observer viewpoints) and answers whether a candidate
    disc fits.  Purely geometric — it never touches an RNG — so the
    accept/reject pattern is a deterministic function of the candidate
    sequence.
    """

    def __init__(self) -> None:
        self._centers: list[tuple[float, float]] = []
        self._radii: list[float] = []

    def __len__(self) -> int:
        return len(self._centers)

    def reserve(self, x: float, y: float, radius: float) -> None:
        """Mark a disc occupied (an actor footprint or a keep-out zone)."""
        self._centers.append((float(x), float(y)))
        self._radii.append(float(radius))

    def reserve_actor(self, actor: Actor, margin: float = 0.0) -> None:
        """Mark an actor's BEV disc (plus ``margin``) occupied."""
        self.reserve(
            actor.box.center[0],
            actor.box.center[1],
            bev_radius(actor.box.length, actor.box.width) + margin,
        )

    def fits(self, x: float, y: float, radius: float) -> bool:
        """True when a disc at ``(x, y)`` overlaps nothing reserved."""
        if not self._centers:
            return True
        centers = np.asarray(self._centers)
        radii = np.asarray(self._radii)
        distances = np.hypot(centers[:, 0] - x, centers[:, 1] - y)
        return bool(np.all(distances >= radii + radius))


def place_with_clearance(
    rng: np.random.Generator,
    sample_candidate,
    index: ClearanceIndex,
    radius: float,
    clearance: float,
    max_attempts: int,
    on_exhausted: str = "drop",
    what: str = "actor",
):
    """Rejection-sample one position whose clearance disc fits the scene.

    ``sample_candidate(rng) -> (x, y, yaw)`` draws a fresh candidate each
    attempt; the accepted position is reserved in ``index`` (footprint
    ``radius`` plus ``clearance``) and returned.  After ``max_attempts``
    rejections the bail-out is deterministic: ``on_exhausted="drop"``
    returns ``None`` (the caller records the drop), ``"raise"`` raises
    :class:`PlacementError` naming the actor — no retry loop ever spins
    forever on an over-constrained spec.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if on_exhausted not in ("drop", "raise"):
        raise ValueError(
            f"on_exhausted must be 'drop' or 'raise', got {on_exhausted!r}"
        )
    for _ in range(max_attempts):
        x, y, yaw = sample_candidate(rng)
        if index.fits(x, y, radius + clearance):
            index.reserve(x, y, radius + clearance)
            return float(x), float(y), float(yaw)
    if on_exhausted == "raise":
        raise PlacementError(
            f"could not place {what} after {max_attempts} attempts "
            f"(footprint radius {radius:.2f} m + clearance {clearance:.2f} m)"
        )
    return None
