"""Tests for the shared-channel scheduler (multi-pair congestion)."""

import pytest

from repro.network.scheduler import (
    AGING_BOOST_SECONDS,
    Demand,
    SharedChannelScheduler,
)


class TestDemand:
    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            Demand("a", -1)


class TestScheduler:
    def test_under_capacity_all_delivered(self):
        scheduler = SharedChannelScheduler()
        demands = [Demand("a", 1_000_000), Demand("b", 2_000_000)]
        report = scheduler.schedule_second(demands)
        assert len(report.delivered) == 2
        assert not report.deferred
        assert report.utilization == pytest.approx(0.5)

    def test_over_capacity_defers(self):
        scheduler = SharedChannelScheduler()
        demands = [Demand(f"v{i}", 2_000_000) for i in range(5)]  # 10 Mbit
        report = scheduler.schedule_second(demands)
        assert len(report.delivered) == 3
        assert len(report.deferred) == 2
        assert report.utilization == pytest.approx(1.0)

    def test_priority_wins_under_saturation(self):
        scheduler = SharedChannelScheduler()
        bulk = [Demand(f"bulk{i}", 3_000_000, priority=0) for i in range(3)]
        safety = Demand("safety", 100_000, priority=10)
        report = scheduler.schedule_second(bulk + [safety])
        assert safety in report.delivered

    def test_small_first_within_priority(self):
        scheduler = SharedChannelScheduler()
        big = Demand("big", 5_000_000)
        small = Demand("small", 1_500_000)
        report = scheduler.schedule_second([big, small])
        assert small in report.delivered  # small fits alongside

    def test_backlog_carries_over(self):
        scheduler = SharedChannelScheduler()
        overload = [Demand(f"v{i}", 2_500_000) for i in range(4)]  # 10 Mbit
        first = scheduler.schedule_second(overload)
        assert first.deferred
        second = scheduler.schedule_second([])
        assert len(second.delivered) == len(first.deferred)
        assert not scheduler.backlog

    def test_run_trace(self):
        scheduler = SharedChannelScheduler()
        trace = scheduler.run([[Demand("a", 1_000_000)], [], [Demand("b", 500)]])
        assert len(trace) == 3
        assert trace[0].delivered == [Demand("a", 1_000_000)]

    def test_saturation_point(self):
        # 1.8 Mbit/frame (the paper's worst case), both directions, 1 Hz.
        pairs = SharedChannelScheduler.saturation_point(
            bits_per_pair=1_800_000, bidirectional=True
        )
        assert pairs == 1  # full-frame exchange: one pair per 6 Mbps channel
        pairs_roi = SharedChannelScheduler.saturation_point(
            bits_per_pair=200_000, bidirectional=True
        )
        assert pairs_roi == 15  # ROI trimming buys an order of magnitude

    def test_saturation_point_invalid(self):
        with pytest.raises(ValueError):
            SharedChannelScheduler.saturation_point(0.0)

    def test_empty_second_is_noop(self):
        scheduler = SharedChannelScheduler()
        report = scheduler.schedule_second([])
        assert not report.delivered
        assert not report.deferred
        assert report.utilization == 0.0
        assert not scheduler.backlog

    def test_tie_break_is_sender_order(self):
        # Equal (priority, bits) demands are served in sender order, so
        # the delivered/deferred split never depends on arrival order.
        scheduler = SharedChannelScheduler()
        demands = [Demand(s, 2_500_000) for s in ("d", "b", "c", "a")]
        report = scheduler.schedule_second(demands)
        assert [d.sender for d in report.delivered] == ["a", "b"]
        assert [d.sender for d in report.deferred] == ["c", "d"]
        rerun = SharedChannelScheduler()
        assert (
            rerun.schedule_second(list(reversed(demands))).delivered
            == report.delivered
        )

    def test_low_priority_not_starved_forever(self):
        # A backlogged low-priority demand must be served as soon as a
        # later run() second has headroom for it — deferral is delay,
        # not permanent starvation.
        scheduler = SharedChannelScheduler()
        bulk = Demand("bulk", 2_500_000, priority=0)
        per_second = [
            [  # second 0: safety traffic fills the channel exactly
                Demand("safetyA", 3_000_000, priority=5),
                Demand("safetyB", 3_000_000, priority=5),
                bulk,
            ],
            [Demand("safetyC", 3_000_000, priority=5)],
            [Demand("safetyD", 3_000_000, priority=5)],
        ]
        trace = scheduler.run(per_second)
        assert bulk in trace[0].deferred  # loses its first second
        delivered_bulk = [
            s for s, report in enumerate(trace) if bulk in report.delivered
        ]
        assert delivered_bulk == [1]  # served in the first second with room
        assert not scheduler.backlog

    def test_large_demand_not_leapfrogged_forever(self):
        # Regression: a large low-priority demand used to re-enter every
        # second with its original (priority, bits, sender) key, so a
        # steady trickle of small same-priority demands sorted ahead of
        # it and consumed just enough capacity that it never fit — a
        # permanent starvation, not a delay.  Backlog aging must get it
        # onto the air in bounded time.
        scheduler = SharedChannelScheduler()
        big = Demand("big", 5_000_000, priority=0)
        smalls = lambda t: [  # noqa: E731
            Demand(f"s{t}a", 2_000_000, priority=0),
            Demand(f"s{t}b", 2_000_000, priority=0),
        ]
        per_second = [[big] + smalls(0)] + [smalls(t) for t in range(1, 6)]
        trace = scheduler.run(per_second)
        assert big in trace[0].deferred  # smalls rightly go first when fresh
        delivered_big = [
            s for s, report in enumerate(trace) if big in report.delivered
        ]
        # One deferred second is enough: the aged demand outranks fresh
        # equal-priority arrivals and gets the budget first.
        assert delivered_big == [1]

    def test_aging_escalates_past_higher_priority(self):
        # A demand starved behind persistent higher-priority traffic gains
        # one effective priority level per AGING_BOOST_SECONDS deferred
        # seconds, bounding its starvation even across priority classes.
        assert AGING_BOOST_SECONDS == 4
        scheduler = SharedChannelScheduler()
        low = Demand("low", 1_000_000, priority=0)
        safety = lambda t: [  # noqa: E731
            Demand(f"p{t}a", 3_000_000, priority=1),
            Demand(f"p{t}b", 3_000_000, priority=1),
        ]
        per_second = [[low] + safety(0)] + [safety(t) for t in range(1, 8)]
        trace = scheduler.run(per_second)
        delivered_low = [
            s for s, report in enumerate(trace) if low in report.delivered
        ]
        # Deferred at ages 0-3 (priority 1 fills the channel exactly);
        # at age 4 its effective priority reaches 1 and age breaks the tie.
        assert delivered_low == [4]

    def test_fresh_demands_keep_documented_order(self):
        # Same-second (age 0) demands must still follow the documented
        # (-priority, bits, sender) stable key exactly.
        scheduler = SharedChannelScheduler()
        demands = [
            Demand("z", 1_000_000, priority=0),
            Demand("a", 1_000_000, priority=0),
            Demand("big", 2_000_000, priority=0),
            Demand("vip", 2_000_000, priority=3),
        ]
        report = scheduler.schedule_second(demands)
        assert [d.sender for d in report.delivered] == ["vip", "a", "z", "big"]
