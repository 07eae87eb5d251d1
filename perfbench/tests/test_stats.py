import pytest

from stats import percentile, quartiles, tail, tail_percentile


@pytest.mark.parametrize(
    "n, pct",
    [
        (0, None),
        (9, None),
        (19, None),  # p50 would leave 9.5 beyond
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (200, 95.0),
        (399, 95.0),
        (400, 97.5),
        (999, 97.5),
        (1000, 99.0),
        (1800, 99.0),
        (2000, 99.5),
        (10000, 99.9),
        (100000, 99.99),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_tail_of_a_small_sample_is_its_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tail_percentile_follows_the_sample_count():
    xs = [float(i) for i in range(1, 101)]
    value, pct = tail(xs)
    assert pct == 90.0 and value == pytest.approx(percentile(xs, 90.0))


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([5.0], 99.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_speed_probes_at_most_every_interval_and_scales_by_nearby_probes():
    from speed import EVERY_S, NOMINAL_S, SPAN_S, Speed, factor

    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = Clock()
    kernel_times = iter([2 * NOMINAL_S, NOMINAL_S, 4 * NOMINAL_S])

    def kernel():
        clock.now += next(kernel_times)

    sp = Speed(clock, kernel)
    assert sp.maybe_probe() == pytest.approx(2 * NOMINAL_S)  # the first call always probes
    assert sp.maybe_probe() == 0.0                           # too soon after the last probe
    clock.now += EVERY_S
    sp.maybe_probe()
    clock.now += 10.0
    sp.probe()
    times, samples = sp.times, sp.samples
    assert len(times) == 3
    # a time measured around the first two probes: median of 2 and 1 nominal
    assert factor(times, samples, 0.0, times[1]) == pytest.approx(1 / 1.5)
    # one measured between probes, far from all: the next probe speaks for it
    assert factor(times, samples, times[1] + 2 * SPAN_S, times[1] + 3 * SPAN_S) == pytest.approx(0.25)
    # one measured after the last probe: the last probe speaks for it
    assert factor(times, samples, times[2] + 5.0, times[2] + 6.0) == pytest.approx(0.25)
