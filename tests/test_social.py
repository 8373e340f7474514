"""Citizen timetables, trips, placement and its contacts, occupancy bookkeeping."""

import gc
import weakref

from citysim import hazards
from citysim.build import build_world
from citysim.runner import run_variant

from conftest import build_sir_world, config_from, eager_contacts


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
    # the settlement publishes exactly the trips that start this tick, in
    # citizen id order; the passenger is structure only
    config = tiny_city()
    world = build_world(config)
    trips = {cid: 0 for cid in world.role_members("citizen")}
    passengers = world.role_members("passenger")
    for _ in range(3 * 24):
        world.step()
        starting = []
        for cid in trips:
            trip = world.states[cid]["trip_pending"]
            if trip and trip["depart"] == world.tick:
                trips[cid] += 1
                starting.append((cid, trip["origin"], trip["dest"]))
        assert world.published["trips"] == tuple(starting), world.tick
        assert all(world.states[pid] == {} for pid in passengers)
    assert all(count == 6 for count in trips.values())
    assert len(passengers) == len(trips)
    rules = world.registry.rules["passenger"]
    assert rules.internal is None and rules.network is None and rules.coupling is None


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
    placement = world.published["placement"]
    lists = {c: set(placement.contacts(c)) for c in world.role_members("citizen")}
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
        assert household <= set(world.published["placement"].contacts(cid))


def test_lockdown_reduces_contacts_to_household():
    config = tiny_city(citizens=30, lockdown=True, days=2)
    world = build_world(config)
    for _ in range(36):
        world.step()
        for cid in world.role_members("citizen"):
            state = world.states[cid]
            assert state["location"] == "place:" + world.records[cid].params["home_place"]
            household = set(world.records[cid].params["household"])
            assert set(world.published["placement"].contacts(cid)) <= household


def test_sole_occupant_has_no_contacts():
    world = build_sir_world(1, seeds=0, beta=0.0, contact_k=4, duration=24)
    world.step()
    placement = world.published["placement"]
    assert placement.occupants == {"commons": ["c0000::social"]}
    assert placement.contacts("c0000::social") == ()


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


def test_place_occupancy_follows_last_ticks_placements():
    # tick 1 counts everyone at home; later ticks write the social
    # settlement's previous placements; the moving entity is structure only
    config = tiny_city()
    world = build_world(config)
    places = world.role_members("place")
    residents: dict[str, int] = {}
    for cid in world.role_members("citizen"):
        home = world.params[cid]["home_place"]
        residents[home] = residents.get(home, 0) + 1
    world.step()
    for sid in places:
        place = world.records[sid].agent_id
        if place.startswith("home_"):
            assert world.states[sid]["occupancy"] == residents[place]
    for _ in range(2 * 24):
        placed = world.published["placement"].occupants
        world.step()
        for sid in places:
            occupants = placed.get(world.records[sid].agent_id, ())
            assert world.states[sid]["occupancy"] == len(occupants)
    assert all(world.states[mid] == {} for mid in world.role_members("moving-entity"))
    rules = world.registry.rules["moving-entity"]
    assert rules.internal is None and rules.network is None and rules.coupling is None


def test_dead_citizen_never_moves_again():
    world = build_sir_world(10, seeds=0, beta=0.0, contact_k=2, duration=24)
    victim = world.role_members("patient")[3]
    world.change(victim, dict(world.states[victim], infection="dead", severity="none"))
    citizen = world.counterpart(victim, "social")
    for _ in range(48):
        world.step()
        assert world.states[citizen]["location"] == "dead"
        if world.tick == 1:
            # tick 1's graph is settled before the death reaches the citizen
            continue
        placement = world.published["placement"]
        assert all(citizen not in occupants for occupants in placement.occupants.values())
        assert placement.contacts(citizen) == ()
        assert all(citizen not in placement.contacts(c) for c in world.role_members("citizen"))


def test_contacts_match_eager_oracle():
    # the placement's on-demand contacts equal the whole graph drawn at once,
    # for every citizen on every tick; the occupants are the citizens placed
    # at each place, in id order
    worlds = [(build_world(tiny_city(jitter=1)), 72),
              (build_sir_world(40, seeds=3, beta=0.05, contact_k=3, duration=24), 60)]
    for world, ticks in worlds:
        citizens = world.role_members("citizen")
        met = 0
        for _ in range(ticks):
            world.step()
            placement = world.published["placement"]
            assert placement.tick == world.tick
            oracle = eager_contacts(world)
            for cid in citizens:
                assert placement.contacts(cid) == oracle.get(cid, ()), (world.tick, cid)
            met += len(oracle)
            at: dict[str, list[str]] = {}
            for cid in citizens:
                if world.states[cid]["location"].startswith("place:"):
                    at.setdefault(world.states[cid]["location"][6:], []).append(cid)
            assert placement.occupants == at
        assert met > 0


def test_contacts_do_not_depend_on_question_order():
    forward, backward = build_world(tiny_city(jitter=1)), build_world(tiny_city(jitter=1))
    citizens = forward.role_members("citizen")
    for _ in range(30):
        forward.step()
        backward.step()
        answers = [backward.published["placement"].contacts(c) for c in reversed(citizens)]
        assert answers[::-1] == [forward.published["placement"].contacts(c) for c in citizens]


def test_contacts_use_the_params_of_the_placement_tick():
    # a change made after step T (as a hazard makes it) reaches the next
    # placement, not the contacts of tick T that transmission reads at T + 1
    changed, twin = build_world(tiny_city()), build_world(tiny_city())
    citizens = changed.role_members("citizen")
    for _ in range(10):
        changed.step()
        twin.step()
    hazards.change_params(changed, changed.params, citizens, [("contact_k", "set", 0)])
    for cid in citizens:  # as hazards.apply_due reports a params change
        changed.change(cid)
    expected = [twin.published["placement"].contacts(c) for c in citizens]
    assert [changed.published["placement"].contacts(c) for c in citizens] == expected
    assert any(len(contacts) > 2 for contacts in expected)  # more than the household
    changed.step()
    for cid in citizens:
        assert set(changed.published["placement"].contacts(cid)) <= set(
            changed.params[cid]["household"])


def test_finished_run_is_freed_without_cyclic_gc():
    # no product holds its run, so a finished run is freed by reference
    # counting alone
    config = tiny_city()
    gc.disable()
    try:
        world = build_world(config)
        for _ in range(30):
            world.step()
        world.published["placement"].contacts(world.role_members("citizen")[0])
        ref = weakref.ref(world)
        del world
        assert ref() is None
    finally:
        gc.enable()


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
