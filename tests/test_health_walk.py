"""The healthcare settlement walks only the active patients.

Each world is stepped twice: as shipped, and with the settlement replaced
by the reference below, the full walk over every patient on every tick
that the settlement was before it kept an active set.  Both must hold the
same states on every tick, and a patient the shipped walk leaves out must
be neither infected nor in a bed nor at the end of its convalescence.
"""

import copy

from citysim.build import build_world
from citysim.hazards import HazardSchedule, apply_due
from citysim.scenario import BASELINE
from citysim.systems import health
from citysim.systems.health import ROLE_HOSPITAL, ROLE_PATIENT, _bed_field, _transmit

import pytest

from conftest import build_sir_world, config_from
from test_social import tiny_city
from test_wake import short_casestudy

_progress = health._progress  # the reference's own binding; tests wrap the module's


def reference_healthcare_settlement(cctx) -> None:
    """The full walk: every patient in id order on every tick."""
    patients = cctx.members(ROLE_PATIENT)
    if not patients:
        return
    tick = cctx.tick
    hospitals = cctx.members(ROLE_HOSPITAL)
    work = {h: dict(cctx.get(h), unattended_this_tick=0) for h in hospitals}
    recount = {h: {"general_occupancy": 0, "icu_occupancy": 0} for h in work}

    def has_space(h, bed_class):
        occ, cap = _bed_field(bed_class)
        return work[h][occ] < work[h][cap]

    def place(pst, h, bed_class):
        occ, _ = _bed_field(bed_class)
        work[h][occ] += 1
        return dict(pst, located_in=h, bed_class=bed_class, care_quality=work[h]["care_quality"])

    def release(pst):
        occ, _ = _bed_field(pst["bed_class"])
        work[pst["located_in"]][occ] -= 1

    def pick_referral(home, bed_class):
        occ_field, _ = _bed_field(bed_class)
        options = [(work[h][occ_field], h) for h in cctx.params(home)["referral_peers"]
                   if h in work and has_space(h, bed_class)]
        return min(options)[1] if options else None

    def take_bed(pid, pst):
        if pst["located_in"] is not None and pst["infection"] in ("recovered", "dead"):
            release(pst)
            return dict(pst, located_in=None, bed_class=None)
        if pst["infection"] != "infected":
            return pst
        severity = pst["severity"]
        if pst["located_in"] is not None:
            if severity == "critical" and pst["bed_class"] == "general":
                if has_space(pst["located_in"], "icu"):
                    target = pst["located_in"]
                else:
                    target = pick_referral(pst["located_in"], "icu")
                if target is not None:
                    release(pst)
                    pst = place(pst, target, "icu")
            current = work[pst["located_in"]]["care_quality"]
            if pst["care_quality"] != current:
                pst = dict(pst, care_quality=current)
            return pst
        if severity not in ("severe", "critical"):
            return pst
        home = cctx.params(pid)["home_hospital"]
        if home is None or home not in work:
            return pst
        bed_class = "icu" if severity == "critical" else "general"
        if has_space(home, bed_class):
            return place(pst, home, bed_class)
        peer = pick_referral(home, bed_class)
        if peer is not None:
            return place(pst, peer, bed_class)
        work[home]["unattended_this_tick"] += 1
        return pst

    sources = []
    for pid in patients:
        before = cctx.get(pid)
        pst = _progress(cctx, pid, before)
        if pst is before and before["rest_until"] == tick:
            pst = dict(before)
        if pst["infection"] == "infected":
            sources.append(pid)
        pst = take_bed(pid, pst)
        if pst["located_in"] is not None:
            if pst["severity"] not in ("severe", "critical"):
                raise ValueError(f"inpatient {pid} with severity {pst['severity']!r}")
            occ, _ = _bed_field(pst["bed_class"])
            recount[pst["located_in"]][occ] += 1
        if pst is not before:
            cctx.set(pid, pst)
    for h in hospitals:
        for occ in ("general_occupancy", "icu_occupancy"):
            if recount[h][occ] != work[h][occ]:
                raise ValueError(f"occupancy bookkeeping mismatch at {h}")
        if work[h] != cctx.get(h):
            cctx.set(h, work[h])
    _transmit(cctx, sources)


def with_reference_walk(world):
    """The run with the reference settlement in place of the shipped one."""
    world.registry = copy.copy(world.registry)
    world.registry.coordinators = dict(world.registry.coordinators,
                                       healthcare=reference_healthcare_settlement)
    return world


def assert_walk_matches_reference(monkeypatch, make, until, schedule=None):
    """Step ``make()``'s run as shipped and with the reference walk to tick
    ``until``, applying the schedule's events as a run does.  Returns the
    patients walked per tick and the convalescences that ended."""
    walked: list[str] = []
    monkeypatch.setattr(health, "_progress",
                        lambda cctx, pid, state: walked.append(pid) or _progress(cctx, pid, state))
    schedule = schedule or HazardSchedule([])
    shipped, reference = make(), with_reference_walk(make())
    patients = shipped.role_members(ROLE_PATIENT)
    for world in (shipped, reference):
        apply_due(world, 0, schedule)
    sizes, ended = [], 0
    while shipped.tick < until:
        tick, before = shipped.tick + 1, shipped.states
        walked.clear()
        for world in (shipped, reference):
            world.step()
            apply_due(world, tick, schedule)
        assert walked == sorted(walked), tick
        for pid in set(patients).difference(walked):
            state = before[pid]
            assert state["infection"] != "infected" and state["located_in"] is None, (tick, pid)
            assert state["rest_until"] != tick, (tick, pid)
        ended += sum(1 for pid in walked if before[pid]["rest_until"] == tick)
        sizes.append(len(walked))
        assert shipped.states == reference.states, tick
    assert sizes[0] == len(patients)
    return sizes, ended


@pytest.mark.parametrize("variant", ["baseline", "risk", "beds", "cybersecurity"])
def test_casestudy_walk_matches_full_walk(monkeypatch, variant):
    config = config_from(short_casestudy())
    schedule = HazardSchedule([]) if variant == BASELINE else config.schedule()
    sizes, ended = assert_walk_matches_reference(
        monkeypatch, lambda: build_world(config_from(short_casestudy()), variant),
        config.horizon_ticks, schedule)
    # the walk is a small part of the population after the first tick
    assert max(sizes[1:]) < sizes[0] // 4
    if variant != BASELINE:
        assert ended > 0


def test_jittered_city_walk_matches_full_walk(monkeypatch):
    assert_walk_matches_reference(monkeypatch, lambda: build_world(tiny_city(jitter=1)), 3 * 24)


def test_sir_walk_matches_full_walk(monkeypatch):
    _, ended = assert_walk_matches_reference(
        monkeypatch, lambda: build_sir_world(60, seeds=4, beta=0.03, contact_k=3, duration=30,
                                             p_severe=0.5, convalescence_hours=10), 120)
    assert ended > 0


def test_midrun_seed_and_overrides_walk_matches_full_walk(monkeypatch):
    # a new home hospital for the centre's patients, a disease seed after
    # tick 0, then a higher beta for everyone and vaccination in the centre
    center = {"role": "patient", "district": "center"}
    raw = short_casestudy([
        {"tick": 20, "kind": "generic_override", "selector": center,
         "overrides": {"home_hospital": "hospital_outskirts::healthcare"}},
        {"tick": 30, "kind": "disease_seed",
         "selector": {"role": "patient", "district": "outskirts"}, "payload": {"count": 10}},
        {"tick": 40, "kind": "generic_override", "selector": {"role": "patient"},
         "overrides": {"beta": 0.05}},
        {"tick": 50, "kind": "generic_override", "selector": center,
         "overrides": {"vaccinated": True}},
    ])
    config = config_from(raw)
    sizes, _ = assert_walk_matches_reference(
        monkeypatch, lambda: build_world(config_from(raw)), config.horizon_ticks,
        config.schedule())
    # each tick after an override walks the patients it changed
    patients = len(build_world(config).role_members(ROLE_PATIENT))
    assert sizes[40] == patients  # tick 41: every patient's beta changed at tick 40


def test_convalescence_ends_in_the_walk(monkeypatch):
    # mild for 3 ticks, severe for 4, then convalescent until tick 12
    make = lambda: build_sir_world(1, seeds=1, beta=0.0, contact_k=0, duration=3,  # noqa: E731
                                   p_severe=1.0, severe_hours=[4, 4], p_worsen=0.0,
                                   convalescence_hours=5)
    sizes, ended = assert_walk_matches_reference(monkeypatch, make, 16)
    assert ended == 1
    assert sizes == [1] * 12 + [0] * 4
