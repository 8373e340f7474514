"""Citizen timetables, trips, contact generation, occupancy bookkeeping."""

from citysim.build import build_world
from citysim.runner import run_variant

from conftest import build_sir_world, config_from


def tiny_city(seed=6, citizens=30, lockdown=False, jitter=0, days=3):
    return config_from({
        "name": "tiny", "seed": seed, "horizon_days": days,
        "landscape": {
            "nodes": [
                {"id": "n0", "district": "d"}, {"id": "n1", "district": "d"},
            ],
            "roadways": [
                {"id": "r0", "a": "n0", "b": "n1", "length_m": 500,
                 "free_flow_mps": 10, "capacity": 30, "station": True,
                 "district": "d"},
            ],
            "places": [
                {"id": "work", "node": "n1", "district": "d", "kind": "work",
                 "capacity": 100},
            ],
        },
        "population": {
            "districts": {"d": {"citizens": citizens, "household_size": [3, 3]}},
            "timetables": {"worker": [[0, "home"], [8, "work"], [17, "home"]]},
            "timetable_mix": {"worker": 1.0},
            "contact_k": 2,
            "boundary_jitter_h": jitter,
            "lockdown": lockdown,
        },
        "mobility": {"adapter": "reference"},
        "hazards": [],
    })


def test_worker_makes_two_trips_per_day():
    config = tiny_city()
    world = build_world(config)
    trips = {cid: 0 for cid in world.role_members("citizen")}
    for _ in range(3 * 24):
        world.step()
        for cid in trips:
            state = world.states[cid]
            if state["trip_pending"] and state["trip_pending"]["depart"] == world.tick:
                trips[cid] += 1
    assert all(count == 6 for count in trips.values())


def test_trip_wave_matches_timetable_crossing_oracle():
    # every citizen homed across the river from work crosses r0 exactly once
    # each morning; citizens homed on the work node never enter the road
    config = tiny_city(citizens=30, jitter=1)
    world = build_world(config)
    crossers = sum(
        1 for cid in world.role_members("citizen")
        if world.services["place_nodes"][world.records[cid].params["home_place"]] == "n0"
    )
    result = run_variant(config, "risk")
    intensity = [s.value for s in result.samples
                 if s.scope == "r0::mobility" and s.name == "intensity"]
    day2 = intensity[48:72]
    assert sum(day2[6:13]) == crossers  # one crossing per morning commute
    assert sum(day2[0:5]) == 0
    assert crossers > 0


def test_contact_symmetry_and_household_contacts():
    world = build_sir_world(40, seeds=0, beta=0.0, contact_k=3, duration=24)
    for _ in range(3):
        world.step()
    graph = world.published["contacts"]
    lists = {c: set(graph.get(c, ())) for c in world.role_members("citizen")}
    seen_any = False
    for cid, contacts in lists.items():
        for other in contacts:
            seen_any = True
            assert cid in lists[other]
    assert seen_any


def test_household_members_contact_each_other_at_home():
    config = tiny_city(citizens=9)
    world = build_world(config)
    world.step()  # hour 1: everyone home
    for cid in world.role_members("citizen"):
        household = set(world.records[cid].params["household"])
        assert household <= set(world.published["contacts"].get(cid, ()))


def test_lockdown_reduces_contacts_to_household():
    config = tiny_city(citizens=30, lockdown=True, days=2)
    world = build_world(config)
    for _ in range(36):
        world.step()
        for cid in world.role_members("citizen"):
            state = world.states[cid]
            assert state["location"] == "place:" + world.records[cid].params["home_place"]
            household = set(world.records[cid].params["household"])
            assert set(world.published["contacts"].get(cid, ())) <= household


def test_sole_occupant_has_no_contacts():
    world = build_sir_world(1, seeds=0, beta=0.0, contact_k=4, duration=24)
    world.step()
    assert world.published["contacts"] == {}


def test_place_capacity_redirects_home():
    config = tiny_city(citizens=30)
    raw = dict(config.raw)
    raw["landscape"]["places"][0]["capacity"] = 10
    config = config_from(raw)
    world = build_world(config)
    for _ in range(12):  # through the morning commute
        world.step()
    at_work = sum(1 for c in world.role_members("citizen")
                  if world.states[c]["location"] == "place:work")
    assert at_work == 10
    assert any("redirected home" in msg for _, msg in world.run_log)


def test_place_occupancy_mirror_tracks_citizens():
    config = tiny_city(citizens=12)
    world = build_world(config)
    for _ in range(12):
        world.step()
    # mirrors lag one tick; at hour 12 everyone has been at work since ~9
    place_sid = "work::urban_landscape"
    assert world.states[place_sid]["occupancy"] == 12


def test_dead_citizen_never_moves_again():
    world = build_sir_world(10, seeds=0, beta=0.0, contact_k=2, duration=24)
    victim = world.role_members("patient")[3]
    state = dict(world.states[victim])
    state.update(infection="dead", severity="none")
    world.states[victim] = state
    citizen = world.counterpart(victim, "social")
    for _ in range(48):
        world.step()
        assert world.states[citizen]["location"] == "dead"
        if world.tick == 1:
            # tick 1's graph is settled before the death reaches the citizen
            continue
        graph = world.published["contacts"]
        assert citizen not in graph
        assert all(citizen not in contacts for contacts in graph.values())


def test_location_partition_every_tick():
    config = tiny_city(citizens=30, jitter=1)
    world = build_world(config)
    citizens = world.role_members("citizen")
    for _ in range(72):
        world.step()
        buckets = {"place": 0, "transit": 0, "hospital": 0, "dead": 0}
        for cid in citizens:
            location = world.states[cid]["location"]
            buckets[location.split(":")[0]] += 1
        assert sum(buckets.values()) == 30
