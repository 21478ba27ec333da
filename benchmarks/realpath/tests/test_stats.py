import pytest

import stats


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1000)]
    assert stats.percentile(values, 0.50) == 500.0
    assert stats.percentile(values, 0.95) == 950.0


def test_percentile_refuses_a_tail_of_fewer_than_ten_samples():
    # p95 of 220 samples: rank 209, ten samples beyond it; of 200: nine.
    assert stats.percentile(list(range(220)), 0.95) == 209
    with pytest.raises(ValueError, match="9 samples beyond"):
        stats.percentile(list(range(200)), 0.95)
    with pytest.raises(ValueError):
        stats.percentile(list(range(1000)), 0.99)
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_percentile_rejects_q_outside_the_open_interval():
    with pytest.raises(ValueError):
        stats.percentile(list(range(100)), 1.0)


def test_setup_s_is_the_median_of_the_five_set_ups():
    # One cold bring-up and one slow outlier do not move it.
    assert stats.median_setup([0.78, 0.36, 0.37, 0.35, 0.90]) == 0.37
    with pytest.raises(ValueError):
        stats.median_setup([])


def test_quartile_spread_is_the_drivers_rule():
    values = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.3, 9.7]
    import statistics

    first, middle, third = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (third - first) / middle


def test_worsening_follows_the_direction_of_the_metric():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
