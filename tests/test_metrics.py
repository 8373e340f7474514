"""Service level formulas: hand arithmetic, clamps, bounds, monotonicity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citysim.metrics import sl_healthcare, sl_ict, sl_mobility

TOL = 1e-12


# -- hand arithmetic ----------------------------------------------------------

def test_ict_all_available():
    assert sl_ict([True] * 7) == 1.0


def test_ict_four_of_seven():
    assert abs(sl_ict([True] * 4 + [False] * 3) - 4 / 7) < TOL


def test_ict_empty_layer_rejected():
    with pytest.raises(ValueError):
        sl_ict([])


def test_healthcare_two_hospitals():
    value = sl_healthcare([(30, 100), (0, 100)])
    assert abs(value - (0.7 + 1.0) / 2) < TOL


def test_healthcare_no_unattended_is_full_service():
    assert sl_healthcare([(0, 10), (0, 3)]) == 1.0


def test_healthcare_unattended_beyond_capacity_clamps_at_zero():
    assert sl_healthcare([(250, 100)]) == 0.0
    assert sl_healthcare([(250, 100), (0, 100)]) == 0.5


def test_healthcare_degraded_capacity_counts_as_zero_term():
    # capacity gone entirely: the hospital contributes full degradation
    assert sl_healthcare([(5, 0), (0, 10)]) == 0.5


def test_healthcare_needs_a_hospital():
    with pytest.raises(ValueError):
        sl_healthcare([])


def test_mobility_parity_is_one():
    speeds = {"s1": 8.0, "s2": 11.0}
    assert sl_mobility(speeds, dict(speeds)) == 1.0


def test_mobility_two_stations_clamped_mean():
    value = sl_mobility({"s1": 5.0, "s2": 12.0}, {"s1": 10.0, "s2": 10.0})
    assert abs(value - (0.5 + 1.0) / 2) < TOL


def test_mobility_zero_baseline_station_skipped():
    value = sl_mobility({"s1": 5.0, "s2": 5.0}, {"s1": 10.0, "s2": 0.0})
    assert abs(value - 0.5) < TOL


def test_mobility_no_valid_station_reports_one():
    assert sl_mobility({}, {}) == 1.0
    assert sl_mobility({"s1": 5.0}, {"s1": 0.0}) == 1.0


# -- bounds and monotonicity --------------------------------------------------

flags = st.lists(st.booleans(), min_size=1, max_size=40)
hospital_terms = st.lists(
    st.tuples(st.integers(min_value=0, max_value=500),
              st.integers(min_value=1, max_value=300)),
    min_size=1, max_size=8,
)
speed_maps = st.dictionaries(
    st.sampled_from([f"s{i}" for i in range(6)]),
    st.floats(min_value=0.1, max_value=40.0),
    min_size=1, max_size=6,
)


@settings(max_examples=200)
@given(flags)
def test_ict_in_unit_interval(availability):
    assert 0.0 <= sl_ict(availability) <= 1.0


@settings(max_examples=200)
@given(hospital_terms)
def test_healthcare_in_unit_interval(terms):
    assert 0.0 <= sl_healthcare(terms) <= 1.0


@settings(max_examples=200)
@given(speed_maps, speed_maps)
def test_mobility_in_unit_interval(risk, baseline):
    assert 0.0 <= sl_mobility(risk, baseline) <= 1.0


@settings(max_examples=150)
@given(flags, st.data())
def test_ict_nondecreasing_in_node_availability(availability, data):
    index = data.draw(st.integers(min_value=0, max_value=len(availability) - 1))
    raised = list(availability)
    raised[index] = True
    assert sl_ict(raised) >= sl_ict(availability)


@settings(max_examples=150)
@given(hospital_terms, st.data())
def test_healthcare_nonincreasing_in_unattended(terms, data):
    index = data.draw(st.integers(min_value=0, max_value=len(terms) - 1))
    extra = data.draw(st.integers(min_value=1, max_value=100))
    worse = list(terms)
    worse[index] = (worse[index][0] + extra, worse[index][1])
    assert sl_healthcare(worse) <= sl_healthcare(terms)


@settings(max_examples=150)
@given(hospital_terms, st.data())
def test_healthcare_nondecreasing_in_capacity(terms, data):
    index = data.draw(st.integers(min_value=0, max_value=len(terms) - 1))
    extra = data.draw(st.integers(min_value=1, max_value=100))
    better = list(terms)
    better[index] = (better[index][0], better[index][1] + extra)
    assert sl_healthcare(better) >= sl_healthcare(terms)


@settings(max_examples=150)
@given(speed_maps, st.data())
def test_mobility_nondecreasing_in_risk_speed(baseline, data):
    risk = {k: data.draw(st.floats(min_value=0.1, max_value=40.0)) for k in baseline}
    station = data.draw(st.sampled_from(sorted(baseline)))
    bump = data.draw(st.floats(min_value=0.1, max_value=10.0))
    faster = dict(risk)
    faster[station] = risk[station] + bump
    assert sl_mobility(faster, baseline) >= sl_mobility(risk, baseline) - 1e-15


def test_values_finite():
    for value in (sl_ict([True, False]), sl_healthcare([(3, 7)]),
                  sl_mobility({"s": 3.0}, {"s": 9.0})):
        assert math.isfinite(value)
