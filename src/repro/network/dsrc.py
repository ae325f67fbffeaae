"""DSRC channel model.

IEEE 802.11p / DSRC [12] offers 3-27 Mbit/s per channel with a practical
sustained throughput around 6 Mbit/s and single-hop latencies of a few
milliseconds at vehicular ranges.  The model here answers the questions the
paper's Section IV-G asks: how long does a payload take to transmit, and
what fraction of channel capacity does an exchange policy consume?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.profiling import PROFILER

__all__ = [
    "BANDWIDTH_MBPS",
    "BASE_LATENCY_MS",
    "MAX_RETRIES",
    "DsrcChannel",
    "TransmissionReport",
]

#: Sustained throughput (Mbit/s): paper-era practical DSRC; the
#: standard's channels peak at 27.
BANDWIDTH_MBPS = 6.0

#: Fixed per-message overhead (ms): MAC plus propagation.
BASE_LATENCY_MS = 2.0

#: Retransmissions after the first attempt before a send is reported lost.
MAX_RETRIES = 3


@dataclass
class TransmissionReport:
    """Outcome of transmitting one payload.

    Attributes:
        payload_bits: size of the payload itself (one copy — retransmitted
            bits are accounted for by :attr:`total_bits`).
        seconds: total latency (propagation + serialisation + retries).
        delivered: False if loss persisted beyond the retry budget.
        attempts: transmission attempts used.
    """

    payload_bits: int
    seconds: float
    delivered: bool
    attempts: int

    @property
    def total_bits(self) -> int:
        """Bits clocked onto the air, including retransmissions' payloads.

        Every attempt re-sends the full payload, so this is
        ``payload_bits * attempts``.
        """
        return self.payload_bits * self.attempts


class DsrcChannel:
    """The point-to-point DSRC link: :data:`BANDWIDTH_MBPS`,
    :data:`BASE_LATENCY_MS` per attempt and up to :data:`MAX_RETRIES`
    retransmissions.  The link loses nothing of its own; loss comes from
    the caller (a fault plan's burst state)."""

    def serialization_seconds(self, payload_bits: int) -> float:
        """Time to clock the payload onto the air."""
        return payload_bits / (BANDWIDTH_MBPS * 1e6)

    def transmit(
        self,
        payload_bits: int,
        seed: int = 0,
        *,
        loss_rate: float | None = None,
        extra_latency_ms: float = 0.0,
    ) -> TransmissionReport:
        """Transmit a payload, retrying on (seeded) random loss.

        ``loss_rate`` is the per-attempt loss probability of this call (a
        fault plan's Gilbert-Elliott state supplies it; None is a clean
        link); ``extra_latency_ms`` adds per-attempt jitter/spike latency.
        """
        if payload_bits < 0:
            raise ValueError("payload_bits must be non-negative")
        if extra_latency_ms < 0:
            raise ValueError("extra_latency_ms must be non-negative")
        effective_loss = 0.0 if loss_rate is None else loss_rate
        effective_loss = min(max(effective_loss, 0.0), 1.0)
        attempt_cost = (
            (BASE_LATENCY_MS + extra_latency_ms) / 1e3
            + self.serialization_seconds(payload_bits)
        )
        with PROFILER.stage("dsrc.transmit"):
            rng = np.random.default_rng(seed)
            elapsed = 0.0
            attempts = 0
            delivered = False
            while attempts <= MAX_RETRIES:
                attempts += 1
                elapsed += attempt_cost
                if rng.random() >= effective_loss:
                    delivered = True
                    break
            report = TransmissionReport(payload_bits, elapsed, delivered, attempts)
        PROFILER.count("dsrc.payload_bits", payload_bits)
        PROFILER.count("dsrc.total_bits", report.total_bits)
        PROFILER.count("dsrc.attempts", attempts)
        return report

    def utilization(self, bits_per_second: float) -> float:
        """Fraction of channel capacity a sustained bit-rate consumes."""
        return bits_per_second / (BANDWIDTH_MBPS * 1e6)
