"""Vehicular networking substrate (paper Section IV-G).

Models what the paper's feasibility study measures: one DSRC channel with
finite throughput and per-hop latency, the three ROI exchange categories
of Fig. 11, and a frame-by-frame exchange simulator that regenerates the
Fig. 12 data-volume traces and checks them against channel capacity.
"""

from repro.network.dsrc import DsrcChannel, TransmissionReport
from repro.network.roi_policy import RoiCategory, RoiPolicy, extract_roi
from repro.network.simulator import ExchangeSimulator, ExchangeTrace
from repro.network.demand import RoiRequest, answer_request, fuse_reply, weak_regions
from repro.network.scheduler import Demand, ScheduleReport, SharedChannelScheduler
from repro.network.comm import CommRecord, CommRecorder

__all__ = [
    "DsrcChannel",
    "TransmissionReport",
    "RoiCategory",
    "RoiPolicy",
    "extract_roi",
    "ExchangeSimulator",
    "ExchangeTrace",
    "RoiRequest",
    "answer_request",
    "fuse_reply",
    "weak_regions",
    "Demand",
    "ScheduleReport",
    "SharedChannelScheduler",
    "CommRecord",
    "CommRecorder",
]
