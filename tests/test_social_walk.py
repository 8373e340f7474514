"""The social settlement walks only the citizens whose placement may change,
and the urban landscape settlement writes only the places whose occupant
list changed.

Each world is stepped twice: as shipped, and with both settlements
replaced by the references below, the full walks over every citizen and
every place on every tick that the settlements were before they carried
the placement forward.  Both must hold the same states, occupants and
contacts on every tick, and a citizen the shipped walk leaves out must
come out of its timetable step unchanged and not be arriving.
"""

import copy
from bisect import insort
from collections import Counter

import pytest

from citysim.build import build_world
from citysim.hazards import HazardSchedule, apply_due
from citysim.scenario import BASELINE
from citysim.systems import social
from citysim.systems.social import ROLE_CITIZEN, ROLE_MOVER, ROLE_PLACE, Placement

from conftest import build_sir_world, config_from
from test_social import tiny_city
from test_wake import short_casestudy

_timetable_step = social._timetable_step  # the reference's own binding; tests wrap the module's


def reference_social_settlement(cctx) -> None:
    """The full walk: every citizen in id order on every tick."""
    citizens = cctx.members(ROLE_CITIZEN)
    if not citizens:
        return
    tick = cctx.tick
    trips, arrivals, by_place, placed = [], [], {}, {}
    for cid in citizens:
        before = cctx.get(cid)
        params = cctx.params(cid)
        st = _timetable_step(before, params["schedule"], tick)
        if st is not before:
            cctx.set(cid, st)
        location, trip = st["location"], st["trip_pending"]
        if trip is not None and trip["depart"] == tick:
            trips.append((cid, trip["origin"], trip["dest"]))
        elif location == "transit" and trip is not None:
            arrivals.append((cid, st, params))
            continue
        if location.startswith("place:"):
            by_place.setdefault(location[6:], []).append(cid)
            placed[cid] = (location[6:], params, cctx.stream(cid))
    for cid, st, params in arrivals:
        dest = st["trip_pending"]["dest"]
        capacity = reference_capacity(cctx, dest)
        if dest != params["home_place"] and capacity is not None \
                and len(by_place.get(dest, ())) >= capacity:
            cctx.log(f"{cid} redirected home: {dest} at capacity")
            dest = params["home_place"]
        insort(by_place.setdefault(dest, []), cid)
        placed[cid] = (dest, params, cctx.stream(cid))
        cctx.set(cid, dict(st, location="place:" + dest, trip_pending=None))
    cctx.publish("trips", tuple(trips))
    cctx.publish("placement", Placement(tick, by_place, placed))


def reference_capacity(cctx, place_id):
    try:
        return cctx.params(place_id + "::urban_landscape")["capacity"]
    except KeyError:
        return None


def reference_urban_settlement(cctx) -> None:
    """Every place on every tick."""
    places = cctx.members(ROLE_PLACE)
    if not places:
        return
    placement = cctx.published("placement")
    if placement is None:
        occupants = {}
        for mid in cctx.members(ROLE_MOVER):
            home = cctx.params(cctx.counterpart(mid, "social"))["home_place"]
            occupants.setdefault(home, []).append(mid)
    else:
        occupants = placement.occupants
    for sid in places:
        occupancy = len(occupants.get(cctx.agent_id(sid), ()))
        if cctx.get(sid)["occupancy"] != occupancy:
            cctx.set(sid, {"occupancy": occupancy})


def with_reference_walk(world):
    """The run with the reference settlements in place of the shipped ones."""
    world.registry = copy.copy(world.registry)
    world.registry.coordinators = dict(world.registry.coordinators,
                                       social=reference_social_settlement,
                                       urban_landscape=reference_urban_settlement)
    return world


def assert_walk_matches_reference(monkeypatch, make, until, schedule=None):
    """Step ``make()``'s run as shipped and with the reference walks to tick
    ``until``, applying the schedule's events as a run does.  Returns the
    citizens walked per tick."""
    walked: list[str] = []
    monkeypatch.setattr(social, "_timetable_step", lambda state, schedule, tick: (
        walked.append(state) or _timetable_step(state, schedule, tick)))
    schedule = schedule or HazardSchedule([])
    shipped, reference = make(), with_reference_walk(make())
    citizens = shipped.role_members(ROLE_CITIZEN)
    start = shipped.tick
    for world in (shipped, reference):
        apply_due(world, start, schedule)
    sizes = []
    while shipped.tick < until:
        tick, before = shipped.tick + 1, shipped.states
        walked.clear()
        shipped.step()
        states = {id(state): cid for cid, state in before.items()}
        ids = [states[id(state)] for state in walked]
        reference.step()
        for world in (shipped, reference):
            apply_due(world, tick, schedule)
        assert ids == sorted(ids), tick
        for cid in set(citizens).difference(ids):
            state = before[cid]
            assert _timetable_step(state, shipped.params[cid]["schedule"], tick) is state
            assert state["location"] != "transit", (tick, cid)
        sizes.append(len(ids))
        assert shipped.states == reference.states, tick
        ours, theirs = shipped.published["placement"], reference.published["placement"]
        assert ours.occupants == theirs.occupants, tick
        assert [ours.contacts(c) for c in citizens] == [theirs.contacts(c) for c in citizens]
        assert shipped.published["trips"] == reference.published["trips"], tick
        assert shipped.run_log == reference.run_log, tick
    assert sizes[0] == len(citizens) or start > 0
    return sizes


@pytest.mark.parametrize("variant", ["baseline", "risk", "beds", "cybersecurity"])
def test_casestudy_walk_matches_full_walk(monkeypatch, variant):
    config = config_from(short_casestudy())
    schedule = HazardSchedule([]) if variant == BASELINE else config.schedule()
    sizes = assert_walk_matches_reference(
        monkeypatch, lambda: build_world(config_from(short_casestudy()), variant),
        config.horizon_ticks, schedule)
    # after the first tick the walk visits a small share of the citizen-ticks
    assert sum(sizes[1:]) <= 0.25 * sizes[0] * (len(sizes) - 1)


def test_jittered_city_walk_matches_full_walk(monkeypatch):
    assert_walk_matches_reference(monkeypatch, lambda: build_world(tiny_city(jitter=1)), 3 * 24)


def test_sir_walk_matches_full_walk(monkeypatch):
    sizes = assert_walk_matches_reference(
        monkeypatch, lambda: build_sir_world(60, seeds=4, beta=0.03, contact_k=3, duration=30,
                                             p_severe=0.5, convalescence_hours=10), 120)
    assert min(sizes) < sizes[0]


def test_full_place_walk_matches_full_walk(monkeypatch):
    # the work place takes 10 of the 30 workers; the others go home
    raw = copy.deepcopy(tiny_city().raw)
    raw["landscape"]["places"][0]["capacity"] = 10
    make = lambda: build_world(config_from(copy.deepcopy(raw)))  # noqa: E731
    assert_walk_matches_reference(monkeypatch, make, 2 * 24)
    world = make()
    for _ in range(12):
        world.step()
    assert any("redirected home" in message for _, message in world.run_log)


def early_shift(home):
    """A schedule at work from hour 1 to hour 6, whose boundaries no built
    schedule of ``tiny_city`` has."""
    return [[("work" if 1 <= hour < 6 else home), "shift"] for hour in range(24)]


def test_midrun_overrides_walk_matches_full_walk(monkeypatch):
    # on day 1, one citizen takes a new schedule and one a new home; then
    # every citizen's fan-out changes, and the work place shrinks
    citizen = {"id": "cit_d_0::social"}
    raw = copy.deepcopy(tiny_city(jitter=1).raw)
    raw["hazards"] = [
        {"tick": 23, "kind": "generic_override", "selector": citizen,
         "overrides": {"schedule": early_shift("home_d_0")}},
        {"tick": 28, "kind": "generic_override", "selector": {"id": "cit_d_4::social"},
         "overrides": {"home_place": "home_d_0"}},
        {"tick": 33, "kind": "generic_override", "selector": {"role": "citizen"},
         "overrides": {"contact_k": 5}},
        {"tick": 40, "kind": "generic_override", "selector": {"id": "work::urban_landscape"},
         "overrides": {"capacity": 5}},
    ]
    config = config_from(raw)
    sizes = assert_walk_matches_reference(
        monkeypatch, lambda: build_world(config_from(copy.deepcopy(raw))),
        config.horizon_ticks, config.schedule())
    citizens = len(build_world(config).role_members(ROLE_CITIZEN))
    assert sizes[33] == citizens  # tick 34: every citizen's params changed at tick 33
    assert min(sizes[24:]) >= 1  # the rescheduled citizen is walked every tick
    world = build_world(config)
    schedule = config.schedule()
    for tick in range(1, 3 * 24):
        world.step()
        apply_due(world, tick, schedule)
        if tick == 26:
            assert world.states["cit_d_0::social"]["location"] == "place:work"
    assert any(tick > 40 and "redirected home" in message for tick, message in world.run_log)


def test_rescheduled_before_start_walk_matches_full_walk(monkeypatch):
    # a mitigation gives a household a schedule of its own before the run:
    # it leaves home at tick 1, so its home is empty in the first placement
    raw = copy.deepcopy(tiny_city(jitter=1).raw)
    raw["mitigations"] = {"shift": [
        {"selector": {"id": f"cit_d_{i}::social"}, "param": "schedule", "op": "set",
         "value": early_shift("home_d_0")} for i in range(3)]}
    sizes = assert_walk_matches_reference(
        monkeypatch, lambda: build_world(config_from(copy.deepcopy(raw)), "shift"), 3 * 24)
    assert min(sizes) >= 3


def test_first_count_puts_each_citizen_in_its_run_home(monkeypatch):
    # a mitigation moves a citizen to another household's home before the
    # run; counted at its home as built, the old home read 4 at tick 1 and
    # the new one 2, where the citizens' locations hold 3 each
    raw = short_casestudy()
    raw["mitigations"] = {"move": [{"selector": {"id": "cit_center_0::social"},
                                    "param": "home_place", "op": "set",
                                    "value": "home_center_5"}]}
    config = config_from(raw)
    world = build_world(config, "move")
    assert world.states["cit_center_0::social"]["location"] == "place:home_center_5"
    at_start = Counter(world.states[cid]["location"] for cid in world.role_members(ROLE_CITIZEN))
    world.step()
    for sid in world.role_members(ROLE_PLACE):
        assert world.states[sid]["occupancy"] == at_start["place:" + world.records[sid].agent_id]
    assert [world.states[f"home_center_{i}::urban_landscape"]["occupancy"] for i in (0, 5)] == [3, 3]
    assert_walk_matches_reference(monkeypatch, lambda: build_world(config, "move"), 24)


def test_place_changed_outside_is_written_again(monkeypatch):
    # a place whose state is changed outside the tick is written from the
    # placement at the next step, as the full walk writes every place
    def make():
        world = build_world(tiny_city())
        for _ in range(10):
            world.step()
        world.change("work::urban_landscape", {"occupancy": 999})
        return world

    assert_walk_matches_reference(monkeypatch, make, 12)
    world = make()
    world.step()
    assert world.states["work::urban_landscape"]["occupancy"] == 30


def test_published_placement_is_never_changed():
    # the urban landscape settlement reads a placement a tick after it was
    # published, so a list the next placement shares must not be written
    world = build_world(tiny_city(jitter=1))
    published = []
    for _ in range(3 * 24):
        world.step()
        placement = world.published["placement"]
        published.append((placement, {p: list(members)
                                      for p, members in placement.occupants.items()}))
        if len(published) > 2:
            placement, occupants = published[-3]
            assert placement.occupants == occupants, placement.tick
