"""Disease progression, transmission, admission/referral, care effects."""

import math

import pytest

from citysim.hazards import HazardSchedule, apply_due
from citysim.kernel import SimulationAbort
from citysim.oracles import ward_occupancy_mc

from conftest import build_patient_world, build_sir_world


def tick_n(world, n, schedule=None):
    schedule = schedule or HazardSchedule([])
    for _ in range(n):
        world.step()
        apply_due(world, world.tick, schedule)


def infections(world):
    return [world.states[p]["infection"] for p in world.role_members("patient")]


def test_susceptible_stay_susceptible_without_contacts():
    world = build_patient_world(20, beta=0.5)
    tick_n(world, 48)
    assert set(infections(world)) == {"susceptible"}


def test_severity_fraction_matches_binomial_oracle():
    """Cohort of 1000 infected with p_severe: the count reaching severe must
    sit within 3 sigma of Binomial(1000, p_severe)."""
    p_severe = 0.3
    world = build_patient_world(
        1000, seed=31, initially_infected=True,
        p_severe=p_severe, mild_hours=[24, 48], severe_hours=[400, 400],
    )
    tick_n(world, 60)  # all mild stages resolved by tick 48
    severe = sum(
        1 for p in world.role_members("patient")
        if world.states[p]["severity"] == "severe"
    )
    mean = 1000 * p_severe
    sigma = math.sqrt(1000 * p_severe * (1 - p_severe))
    assert abs(severe - mean) <= 3 * sigma


def test_forced_death_of_unattended_criticals():
    world = build_patient_world(
        30, seed=8, initially_infected=True,
        p_severe=1.0, p_worsen=1.0, p_die_untreated=1.0,
        mild_hours=[2, 2], severe_hours=[2, 2], critical_hours=[2, 2],
    )
    tick_n(world, 10)
    assert infections(world) == ["dead"] * 30


def test_treated_critical_survival_differs_from_untreated():
    # same seeds, same course draws: an ICU bed flips death draws in
    # [p_treated, p_untreated) to survival
    def deaths_with_icu(icu):
        world = build_patient_world(
            60, seed=77, initially_infected=True,
            hospitals=[{"id": "h", "general": 200, "icu": icu}],
            p_severe=1.0, p_worsen=1.0, p_die_treated=0.05, p_die_untreated=0.9,
            mild_hours=[2, 2], severe_hours=[2, 2], critical_hours=[4, 4],
        )
        for p in world.role_members("patient"):
            world.records[p].params["home_hospital"] = "h::healthcare"
        tick_n(world, 16)
        return infections(world).count("dead")

    assert deaths_with_icu(200) < deaths_with_icu(0)


def test_admission_fills_hospital_and_counts_unattended():
    world = build_patient_world(
        10, seed=3, initially_infected=True,
        hospitals=[{"id": "h", "general": 4, "icu": 1}],
        p_severe=1.0, p_worsen=0.0,
        mild_hours=[1, 1], severe_hours=[200, 200],
    )
    for p in world.role_members("patient"):
        world.records[p].params["home_hospital"] = "h::healthcare"
    tick_n(world, 2)
    h = world.states["h::healthcare"]
    assert h["general_occupancy"] == 4
    assert h["unattended_this_tick"] == 6
    placed = [p for p in world.role_members("patient")
              if world.states[p]["located_in"] == "h::healthcare"]
    assert len(placed) == 4
    # first approached hospital carries the unattended count every tick
    tick_n(world, 3)
    assert world.states["h::healthcare"]["unattended_this_tick"] == 6


def test_referral_to_peer_with_space():
    world = build_patient_world(
        3, seed=5, initially_infected=True,
        hospitals=[
            {"id": "a", "general": 1, "icu": 0, "peers": ["b", "c"]},
            {"id": "b", "general": 5, "icu": 0, "peers": ["a"]},
            {"id": "c", "general": 5, "icu": 0, "peers": ["a"]},
        ],
        p_severe=1.0, p_worsen=0.0, mild_hours=[1, 1], severe_hours=[300, 300],
    )
    for p in world.role_members("patient"):
        world.records[p].params["home_hospital"] = "a::healthcare"
    tick_n(world, 2)
    assert world.states["a::healthcare"]["general_occupancy"] == 1
    # least-occupied peer wins, ties by id: b gets one, then b/c tie -> b
    assert world.states["b::healthcare"]["general_occupancy"] == 1
    assert world.states["c::healthcare"]["general_occupancy"] == 1
    assert world.states["a::healthcare"]["unattended_this_tick"] == 0


def test_discharge_frees_bed_same_tick():
    world = build_patient_world(
        1, seed=9, initially_infected=True,
        hospitals=[{"id": "h", "general": 1, "icu": 0}],
        p_severe=1.0, p_worsen=0.0, mild_hours=[1, 1], severe_hours=[5, 5],
        convalescence_hours=0,
    )
    world.records["p0000::healthcare"].params["home_hospital"] = "h::healthcare"
    occupancy = []
    for _ in range(10):
        world.step()
        occupancy.append(world.states["h::healthcare"]["general_occupancy"])
    assert max(occupancy) == 1
    assert occupancy[-1] == 0
    assert world.states["p0000::healthcare"]["infection"] == "recovered"
    assert world.states["p0000::healthcare"]["located_in"] is None


def test_no_admissions_means_constant_occupancy():
    world = build_patient_world(
        5, seed=2, hospitals=[{"id": "h", "general": 3, "icu": 1}],
    )
    for _ in range(24):
        world.step()
        state = world.states["h::healthcare"]
        assert state["general_occupancy"] == 0
        assert state["icu_occupancy"] == 0


def test_occupancy_bookkeeping_mismatch_aborts():
    world = build_patient_world(
        2, seed=4, initially_infected=True,
        hospitals=[{"id": "h", "general": 5, "icu": 1}],
        p_severe=1.0, p_worsen=0.0, mild_hours=[1, 1], severe_hours=[50, 50],
    )
    for p in world.role_members("patient"):
        world.records[p].params["home_hospital"] = "h::healthcare"
    tick_n(world, 3)
    state = dict(world.states["h::healthcare"])
    state["general_occupancy"] += 1  # corrupt the counter
    world.states["h::healthcare"] = state
    with pytest.raises(SimulationAbort, match="bookkeeping mismatch"):
        world.step()


def test_ward_occupancy_matches_littles_law_oracle():
    """Steady trickle of severe cases into an ample ward: long-run engine
    occupancy within 10% of an independent Monte-Carlo mean."""
    horizon = 500
    arrivals = 2
    world = build_patient_world(
        2000, seed=19,
        hospitals=[{"id": "h", "general": 60, "icu": 1}],
        p_severe=1.0, p_worsen=0.0,
        mild_hours=[1, 1], severe_hours=[6, 18],
    )
    for p in world.role_members("patient"):
        world.records[p].params["home_hospital"] = "h::healthcare"
    seeds = HazardSchedule.from_config([
        {"tick": t, "kind": "disease_seed", "selector": {"role": "patient"},
         "payload": {"count": arrivals}}
        for t in range(horizon)
    ], 24)
    apply_due(world, 0, seeds)
    series = []
    for _ in range(horizon):
        world.step()
        apply_due(world, world.tick, seeds)
        series.append(world.states["h::healthcare"]["general_occupancy"])
    engine_mean = sum(series[horizon // 2:]) / (horizon - horizon // 2)
    oracle_mean = ward_occupancy_mc(arrivals, 6, 18, horizon, runs=30, seed=123)
    assert abs(engine_mean - oracle_mean) / oracle_mean < 0.10


def test_transmission_with_zero_beta_never_spreads():
    world = build_sir_world(60, seeds=5, beta=0.0, contact_k=4, duration=48)
    for _ in range(72):
        world.step()
    assert infections(world).count("susceptible") == 55


def test_contact_without_patient_is_skipped():
    # everyone meets everyone, and the bystander (a citizen with no patient)
    # comes first in every contact list; transmission passes over it
    world = build_sir_world(6, seeds=3, beta=1.0, contact_k=6, duration=48, bystanders=1)
    world.step()
    graph = world.published["contacts"]
    assert len(graph) == 7
    assert all(contacts[0] == "b0000::social"
               for cid, contacts in graph.items() if cid != "b0000::social")
    world.step()
    assert infections(world) == ["infected"] * 6


def test_population_conservation_through_epidemic():
    world = build_sir_world(80, seeds=4, beta=0.02, contact_k=3, duration=48)
    n = 80
    for _ in range(150):
        world.step()
        counts = infections(world)
        assert len(counts) == n
        assert (counts.count("susceptible") + counts.count("infected")
                + counts.count("recovered") + counts.count("dead")) == n
    assert infections(world).count("recovered") > 10


def test_vaccination_factor_scales_susceptibility():
    def attack_rate(vaccinated):
        world = build_sir_world(100, seeds=5, beta=0.01, contact_k=4, duration=72)
        for p in world.role_members("patient"):
            world.records[p].params["vaccinated"] = vaccinated
            world.records[p].params["vaccination_factor"] = 0.2
        for _ in range(300):
            world.step()
        return sum(1 for s in infections(world) if s != "susceptible")

    assert attack_rate(True) < attack_rate(False)
