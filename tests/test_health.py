"""Disease progression, transmission, admission/referral, care effects."""

import math

import numpy as np
import pytest

from citysim import metrics
from citysim.build import build_world
from citysim.hazards import HazardSchedule, apply_due
from citysim.kernel import SimulationAbort
from citysim.metrics import Recorder
from citysim.rng import Stream
from citysim.runner import run, run_variant

from conftest import build_patient_world, build_sir_world, config_from, eager_contacts


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
            home_hospital="h::healthcare",
        )
        tick_n(world, 16)
        return infections(world).count("dead")

    assert deaths_with_icu(200) < deaths_with_icu(0)


def test_admission_fills_hospital_and_counts_unattended():
    world = build_patient_world(
        10, seed=3, initially_infected=True,
        hospitals=[{"id": "h", "general": 4, "icu": 1}],
        p_severe=1.0, p_worsen=0.0,
        mild_hours=[1, 1], severe_hours=[200, 200], home_hospital="h::healthcare",
    )
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
        home_hospital="a::healthcare",
    )
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
        convalescence_hours=0, home_hospital="h::healthcare",
    )
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
        home_hospital="h::healthcare",
    )
    tick_n(world, 3)
    state = world.states["h::healthcare"]  # corrupt the counter
    world.change("h::healthcare", dict(state, general_occupancy=state["general_occupancy"] + 1))
    with pytest.raises(SimulationAbort, match="bookkeeping mismatch"):
        world.step()


def ward_occupancy_mc(arrivals_per_tick: int, service_lo: int, service_hi: int,
                      horizon: int, runs: int, seed: int) -> float:
    """Monte-Carlo mean ward occupancy for a steady admission trickle.

    Direct array simulation: each arrival occupies a bed for a uniform
    integer stay; occupancy at t counts arrivals whose stay covers t.
    Mean is taken over the second half of the horizon, past warm-up.
    """
    rng = np.random.default_rng(seed)
    occupancy_sum = 0.0
    window = slice(horizon // 2, horizon)
    for _ in range(runs):
        occupancy = np.zeros(horizon + 1)
        for t in range(horizon):
            stays = rng.integers(service_lo, service_hi + 1, size=arrivals_per_tick)
            for stay in stays:
                occupancy[t:min(t + stay, horizon + 1)] += 1
        occupancy_sum += occupancy[window].mean()
    return occupancy_sum / runs


def test_ward_occupancy_matches_littles_law_oracle():
    """Steady trickle of severe cases into an ample ward: long-run engine
    occupancy within 10% of an independent Monte-Carlo mean."""
    horizon = 500
    arrivals = 2
    world = build_patient_world(
        2000, seed=19,
        hospitals=[{"id": "h", "general": 60, "icu": 1}],
        p_severe=1.0, p_worsen=0.0,
        mild_hours=[1, 1], severe_hours=[6, 18], home_hospital="h::healthcare",
    )
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
    placement = world.published["placement"]
    graph = {cid: placement.contacts(cid) for cid in world.role_members("citizen")}
    assert all(len(contacts) == 6 for contacts in graph.values())  # each of 7 meets the other 6
    assert all(contacts[0] == "b0000::social"
               for cid, contacts in graph.items() if cid != "b0000::social")
    world.step()
    assert infections(world) == ["infected"] * 6


def test_new_infections_match_contact_graph_oracle():
    """Each tick, a susceptible patient is infected iff some contact in the
    previous tick's graph (drawn by the eager oracle) was infectious and its
    ``inf:<source>`` draw on the patient's own stream fell below beta."""
    beta, duration = 0.05, 48
    world = build_sir_world(12, seeds=2, beta=beta, contact_k=3, duration=duration,
                            bystanders=1)
    patients = world.role_members("patient")
    world.step()  # the first contact graph
    spread = 0
    for _ in range(duration - 2):  # nobody recovers, so infected means infectious
        graph, before = eager_contacts(world), world.states
        world.step()
        expected = set()
        for pid in patients:
            if before[pid]["infection"] != "susceptible":
                continue
            for contact in graph.get(world.counterpart(pid, "social"), ()):
                src = world.counterpart(contact, "healthcare")
                if (src is not None and before[src]["infection"] == "infected"
                        and Stream(world.master_seed, pid).at(world.tick, f"inf:{src}")
                        .random() < beta):
                    expected.add(pid)
        infected = {pid for pid in patients if before[pid]["infection"] == "susceptible"
                    and world.states[pid]["infection"] == "infected"}
        assert infected == expected, world.tick
        spread += len(infected)
    assert spread > 0


def test_stage_ends_at_its_due_tick_without_copying_the_state():
    world = build_patient_world(1, initially_infected=True, mild_hours=[3, 3], p_severe=0.0)
    sid = "p0000::healthcare"
    start = world.states[sid]
    for tick in (1, 2):
        world.step()
        assert world.states[sid] is start, tick
    world.step()
    assert world.states[sid]["infection"] == "recovered"


def test_convalescence_ends_at_rest_until_with_a_coupling_call():
    # mild for 3 ticks, severe for 4, then 5 ticks of convalescence at home;
    # the end of it is a change of the patient, so the citizen's coupling
    # rule runs in that tick and lets it out
    world = build_sir_world(1, seeds=1, beta=0.0, contact_k=0, duration=3, p_severe=1.0,
                            severe_hours=[4, 4], p_worsen=0.0, convalescence_hours=5)
    pid, cid = "c0000::healthcare", "c0000::social"
    calls, rule = [], world._rules["citizen"]
    world._rules = dict(world._rules, citizen=lambda ctx: calls.append(ctx.tick) or rule(ctx))
    homebound = []
    for _ in range(16):
        world.step()
        homebound.append(world.states[cid]["homebound"])
    assert world.states[pid]["infection"] == "recovered"
    assert world.states[pid]["rest_until"] == 12
    assert homebound == [False] * 2 + [True] * 9 + [False] * 5
    # the patient changes at ticks 3, 7 and 12; the citizen at 3 and 12
    assert calls == [1, 3, 4, 7, 12, 13]


def test_seeded_case_resolves_window_ticks_after_its_seed():
    world = build_patient_world(1, mild_hours=[2, 2], p_severe=0.0)
    schedule = HazardSchedule.from_config([
        {"tick": 5, "kind": "disease_seed", "selector": {"role": "patient"}}], 24)
    seen = []
    for _ in range(8):
        world.step()
        apply_due(world, world.tick, schedule)
        seen.append(world.states["p0000::healthcare"]["infection"])
    assert seen == ["susceptible"] * 4 + ["infected"] * 2 + ["recovered"] * 2


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
        world = build_sir_world(100, seeds=5, beta=0.01, contact_k=4, duration=72,
                                vaccinated=vaccinated, vaccination_factor=0.2)
        for _ in range(300):
            world.step()
        return sum(1 for s in infections(world) if s != "susceptible")

    assert attack_rate(True) < attack_rate(False)


def test_unchanged_hospital_keeps_its_state_and_rows(casestudy, monkeypatch):
    # baseline: no epidemic and no attack, so no hospital ever changes
    world = build_world(casestudy, "baseline")
    hospitals = world.role_members("hospital")
    first = {h: world.states[h] for h in hospitals}
    observed = []
    observe = metrics.observe_subagent
    monkeypatch.setattr(metrics, "observe_subagent",
                        lambda w, sid: observed.append((w.tick, sid)) or observe(w, sid))
    recorder = Recorder(world)

    def check(w):
        recorder.observe()
        assert all(w.states[h] is first[h] for h in hospitals), w.tick

    run(world, 48, observers=(check,))
    assert hospitals
    assert sorted(sid for tick, sid in observed if sid in first) == sorted(hospitals)
    assert all(tick == 0 for tick, sid in observed if sid in first)


@pytest.mark.parametrize("day", [12, 18])
def test_midrun_bed_override_reaches_capacity_and_the_run_ends(casestudy, day):
    # the override cuts the ward to 2 beds: on day 12 it holds 1 patient, on
    # day 18 it holds 7; capacity follows at the next tick, no one is
    # evicted, and the monitor lets an over-nominal ward drain
    hospital = "hospital_center::healthcare"
    raw = dict(casestudy.raw, horizon_days=25, hazards=casestudy.raw["hazards"] + [
        {"day": day, "kind": "generic_override", "selector": {"id": hospital},
         "overrides": {"nominal_general_capacity": 2}}])
    config = config_from(raw)
    result = run_variant(config, "risk")
    assert len(result.deaths) == config.horizon_ticks + 1
    rows = {(s.tick, s.name): s.value for s in result.samples if s.scope == hospital}
    at = day * config.ticks_per_day
    assert (rows[at, "general_capacity"], rows[at + 1, "general_capacity"]) == (14, 2)
    over = [tick for tick in range(at, config.horizon_ticks)
            if rows[tick, "general_occupancy"] > 2]
    assert bool(over) == (day == 18)
    assert all(rows[t + 1, "general_occupancy"] <= rows[t, "general_occupancy"] for t in over)
