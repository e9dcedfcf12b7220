"""The tail rule, the open-loop scheduler and max_rps."""

import math
import random
import statistics

import measure
import pytest
import workloads


@pytest.mark.parametrize("n, pct", [(1000, 99), (100, 90), (50, 80), (21, 52), (20, 50),
                                    (5, 50)])
def test_tail_picks_the_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    value, got_pct, count = measure.tail(values)
    assert (got_pct, count) == (pct, n)
    rank = math.ceil(pct / 100 * n)
    if pct > 50:
        assert n - rank >= measure.TAIL_BEYOND
        assert n - math.ceil((pct + 1) / 100 * n) < measure.TAIL_BEYOND
    # the band is symmetric around the rank, so on 1..n its mean is the rank
    assert value == pytest.approx(rank if pct > 50 else measure.median(values))


def test_band_mean_damps_a_swap_across_a_gap():
    low = [1.0] * 10 + [2.0] + [10.0] * 10
    high = [1.0] * 10 + [9.0] + [10.0] * 10
    assert statistics.median(high) - statistics.median(low) == 7.0
    assert measure.median(high) - measure.median(low) == pytest.approx(7.0 / 5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_from_due_and_reports_lag():
    clock = FakeClock()

    def send(index):
        clock.now += 0.5 if index == 1 else 0.01  # request 1 stalls
        return index

    records = measure.run_open_loop([1.0, 1.1, 1.2, 3.0], send, clock=clock,
                                    sleep=clock.sleep)
    due, sent, done, reply = zip(*records)
    assert reply == (0, 1, 2, 3)
    assert sent[0] == due[0] == 1.0
    # request 2 was due at 1.2 but could only go out when 1 finished
    assert sent[2] == pytest.approx(1.6)
    assert sent[2] - due[2] == pytest.approx(0.4)
    assert done[2] - due[2] == pytest.approx(0.41)
    # the stall is over by request 3: no lag
    assert sent[3] == due[3]


def test_open_loop_give_up_stops_the_stream():
    clock = FakeClock()

    def send(index):
        clock.now += 1.0
        return index

    records = measure.run_open_loop([0.0, 0.1, 0.2, 0.3], send, clock=clock,
                                    sleep=clock.sleep, give_up=lambda i, lag: lag > 1.5)
    assert len(records) == 2


def _records(rate, latency_ms, count, start=0.0):
    return [(start + i / rate, start + i / rate, start + i / rate + latency_ms / 1000.0,
             (200, {})) for i in range(count)]


def test_max_rps_interpolates_between_the_last_pass_and_the_first_fail():
    limit = workloads.HIT_TAIL_LIMIT_MS
    records = _records(10, limit / 2, 40) + _records(15, limit * 2, 40, start=10)
    steps = [(10.0, 0, 40), (15.0, 40, 80)]
    # in log latency the tail crosses the limit halfway between the steps
    assert workloads.max_rps(records, steps) == pytest.approx(12.5)


def test_max_rps_stops_at_a_growing_backlog():
    limit = workloads.HIT_TAIL_LIMIT_MS
    late = [(due, due + 2 * limit / 1000.0, done, reply)
            for due, _sent, done, reply in _records(15, limit / 2, 40, start=10)]
    records = _records(10, limit / 2, 40) + late
    assert workloads.max_rps(records, [(10.0, 0, 40), (15.0, 40, 80)]) == 10.0


def test_max_rps_skips_a_single_failing_step_between_passing_ones():
    limit = workloads.HIT_TAIL_LIMIT_MS
    records = (_records(10, limit / 2, 40) + _records(15, limit * 2, 40, start=10)
               + _records(20, limit / 2, 40, start=20) + _records(30, limit * 2, 40, start=30)
               + _records(40, limit * 4, 40, start=40))
    steps = [(10.0, 0, 40), (15.0, 40, 80), (20.0, 80, 120), (30.0, 120, 160),
             (40.0, 160, 200)]
    assert workloads.max_rps(records, steps) == pytest.approx(25.0)


def test_max_rps_scales_down_when_the_steady_rate_fails():
    limit = workloads.HIT_TAIL_LIMIT_MS
    records = _records(10, limit * 2, 40)
    assert workloads.max_rps(records, [(10.0, 0, 40)]) == pytest.approx(5.0)
