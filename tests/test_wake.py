"""Wake-driven stepping: a declared stage rule runs only at tick 1, at its
due tick or when a subagent it reads has changed, and the recorder reuses
the rows of an observed subagent that has not changed.

The equivalence tests build each world twice: as shipped, and with every
role's wake declarations stripped, so that every rule runs every tick as an
undeclared role's does.  Both must hold the same states on every tick.
"""

import dataclasses
import json
from types import SimpleNamespace

import pytest

import conftest
from citysim import build, metrics
from citysim.build import build_world
from citysim.hazards import HazardSchedule, apply_due
from citysim.kernel import STAGE_INTERNAL, RuleSet, World
from citysim.metrics import Recorder
from citysim.scenario import BASELINE
from citysim.systems import default_registry
from citysim.systems.health import stage_due
from citysim.systems.ict import recovery_due
from citysim.systems.social import citizen_internal, next_boundary

from conftest import (SCENARIO_PATH, blank_state_init, build_ict_world, build_patient_world,
                      build_sir_world, config_from, toy_registry)
from test_social import tiny_city


def every_tick_registry():
    registry = default_registry()
    for role, rules in list(registry.rules.items()):
        registry.rules[role] = dataclasses.replace(rules, wakes={})
    return registry


def shipped_and_every_tick(monkeypatch, make):
    """``make()`` as shipped, and again with no wake declared."""
    shipped = make()
    with monkeypatch.context() as patch:
        patch.setattr(build, "default_registry", every_tick_registry)
        patch.setattr(conftest, "default_registry", every_tick_registry)
        stripped = make()
    assert any(rules.wakes for rules in shipped.registry.rules.values())
    assert not any(rules.wakes for rules in stripped.registry.rules.values())
    return shipped, stripped


def assert_same_states(pair, until, schedule=None):
    """Step both worlds to tick ``until``, applying the schedule's events as a
    run does, and compare their states on every tick."""
    schedule = schedule or HazardSchedule([])
    shipped, stripped = pair
    if shipped.tick == 0:
        for world in pair:
            apply_due(world, 0, schedule)
    assert shipped.states == stripped.states
    while shipped.tick < until:
        for world in pair:
            world.step()
            apply_due(world, world.tick, schedule)
        assert shipped.states == stripped.states, shipped.tick


def short_casestudy(extra_hazards=()) -> dict:
    """The case study over 5 days with the attack at tick 2, and a fast,
    often severe disease, so that admissions, deaths, convalescence and the
    96-tick outage with its recovery all fall inside the run."""
    raw = json.loads(SCENARIO_PATH.read_text())
    raw["horizon_days"] = 5
    raw["health"]["disease"].update(
        mild_hours=[6, 12], severe_hours=[6, 12], critical_hours=[6, 12],
        convalescence_hours=12, p_severe=0.6, p_worsen=0.5, beta=0.02)
    for event in raw["hazards"]:
        if event["kind"] == "cyberattack":
            del event["day"]
            event["tick"] = 2
        else:
            event["payload"]["count"] = 40
    raw["hazards"].extend(extra_hazards)
    return raw


@pytest.mark.parametrize("variant", ["baseline", "risk", "beds", "cybersecurity"])
def test_casestudy_states_match_every_tick_stepping(monkeypatch, variant):
    pair = shipped_and_every_tick(
        monkeypatch, lambda: build_world(config_from(short_casestudy()), variant))
    config = config_from(short_casestudy())
    schedule = HazardSchedule([]) if variant == BASELINE else config.schedule()
    assert_same_states(pair, config.horizon_ticks, schedule)


def test_jittered_city_states_match_every_tick_stepping(monkeypatch):
    pair = shipped_and_every_tick(monkeypatch, lambda: build_world(tiny_city(jitter=1)))
    assert_same_states(pair, 3 * 24)


def test_sir_states_match_every_tick_stepping(monkeypatch):
    pair = shipped_and_every_tick(
        monkeypatch, lambda: build_sir_world(60, seeds=4, beta=0.03, contact_k=3, duration=30))
    assert_same_states(pair, 120)


def ict_hierarchy():
    """Three levels under one root, four attackers aimed at every level."""
    nodes = [{"id": "root", "depends_on": [], "vulnerability": 0.9, "recovery_ticks": 5}]
    for i in range(3):
        nodes.append({"id": f"mid{i}", "depends_on": ["root"], "vulnerability": 0.8,
                      "recovery_ticks": 3 + i})
    for i in range(9):
        nodes.append({"id": f"leaf{i}", "depends_on": [f"mid{i % 3}"],
                      "vulnerability": 0.7, "recovery_ticks": 2 + i % 4})
    attackers = [
        {"id": "a_root", "target": "root", "attack_type": "botnet",
         "propagation_probability": 0.9},
        {"id": "a_mid", "target": "mid1", "attack_type": "ransomware",
         "propagation_probability": None},
        {"id": "a_leaf", "target": "leaf4", "attack_type": "ddos",
         "propagation_probability": None},
        {"id": "a_again", "target": "root", "attack_type": "ddos",
         "propagation_probability": 1.0},
    ]
    return nodes, attackers


def staggered_attacks():
    return [{"tick": tick, "kind": "cyberattack", "selector": {"id": f"{attacker}::ict"}}
            for tick, attacker in ((0, "a_root"), (3, "a_mid"), (4, "a_leaf"),
                                   (9, "a_again"), (14, "a_root"), (15, "a_mid"))]


def test_ict_cascade_states_match_every_tick_stepping(monkeypatch):
    nodes, attackers = ict_hierarchy()
    pair = shipped_and_every_tick(monkeypatch, lambda: build_ict_world(nodes, attackers)[0])
    assert_same_states(pair, 40, HazardSchedule.from_config(staggered_attacks(), 24))


def test_midrun_overrides_match_every_tick_stepping(monkeypatch):
    # at 21:00, home since its evening trip and next due in the morning, a
    # citizen gets a timetable that goes out at 22:00; and a node downstream
    # of the attack is hardened before the wave reaches it
    citizen = "cit_outskirts_1::social"
    schedule = build_world(config_from(short_casestudy())).params[citizen]["schedule"]
    home, out = schedule[0], next(entry for entry in schedule if entry[0] != schedule[0][0])
    raw = short_casestudy([
        {"tick": 45, "kind": "generic_override", "selector": {"id": citizen},
         "overrides": {"schedule": [home] * 22 + [out, home]}},
        {"tick": 2, "kind": "generic_override", "selector": {"id": "hospital_center::ict"},
         "overrides": {"vulnerability": 0.0}},
    ])
    pair = shipped_and_every_tick(monkeypatch, lambda: build_world(config_from(raw)))
    config = config_from(raw)
    assert_same_states(pair, 46, config.schedule())
    assert pair[0].states[citizen]["trip_pending"]["depart"] == 46
    assert_same_states(pair, 3 * 24, config.schedule())


# -- due ticks ---------------------------------------------------------------

def first_move(schedule, tick):
    """Brute force: the first of the next 24 ticks at which citizen_internal
    moves a citizen that is at none of its timetable's places."""
    state = {"location": "place:elsewhere", "current_activity": None,
             "trip_pending": None, "homebound": False}
    for t in range(tick + 1, tick + 25):
        ctx = SimpleNamespace(tick=t, state=state, params={"schedule": schedule})
        if citizen_internal(ctx) is not None:
            return t
    return None


@pytest.mark.parametrize("city", [dict(jitter=2), dict(jitter=1, seed=3), dict(lockdown=True)])
def test_next_boundary_matches_brute_force_scan(city):
    world = build_world(tiny_city(**city))
    at_home = {"location": "place:x", "homebound": False}
    for cid in world.role_members("citizen"):
        schedule = world.params[cid]["schedule"]
        for tick in range(48):
            ctx = SimpleNamespace(tick=tick, params={"schedule": schedule})
            assert next_boundary(ctx, at_home) == first_move(schedule, tick), (cid, tick)
            assert next_boundary(ctx, dict(at_home, homebound=True)) is None
            assert next_boundary(ctx, dict(at_home, location="transit")) is None
    if city.get("lockdown"):  # one place: never due
        assert all(first_move(world.params[cid]["schedule"], 0) is None
                   for cid in world.role_members("citizen"))


def clock_world(calls):
    """Subagents whose internal rule records its calls and changes nothing;
    each is due ``offset`` ticks after a call (None: never)."""
    def internal(ctx):
        calls.setdefault(ctx.sid, []).append(ctx.tick)

    def due(ctx, state):
        offset = ctx.params["offset"]
        return None if offset is None else ctx.tick + offset

    registry = toy_registry(clock=RuleSet(
        init_state=blank_state_init({}), internal=internal,
        wakes={STAGE_INTERNAL: due}))
    world = World(1, registry)
    for sid, offset in (("later", 3), ("never", None), ("now", 0), ("past", -3)):
        world.add_agent(sid, [(sid, "ict", "clock", {"offset": offset})])
    world.finalize()
    return world.start()


def test_due_at_or_before_now_arms_next_tick():
    calls = {}
    world = clock_world(calls)
    for _ in range(8):
        world.step()
    every = list(range(1, 9))
    assert calls == {"later": [1, 4, 7], "never": [1], "now": every, "past": every}


def test_a_change_outside_the_stages_wakes_the_rule():
    calls = {}
    world = clock_world(calls)
    world.step()
    world.step()
    world.change("never", {"set": "by a hazard"})
    world.params["later"] = dict(world.params["later"], offset=1)
    world.change("later")
    for _ in range(4):
        world.step()
    assert calls["never"] == [1, 3]
    assert calls["later"] == [1, 3, 4, 5, 6]


def recording(role, stage, calls):
    """A default registry whose ``role`` records the ticks of its ``stage`` calls."""
    def registry():
        reg = default_registry()
        rules = reg.rules[role]
        fn = getattr(rules, stage)

        def wrapper(ctx):
            calls.append(ctx.tick)
            return fn(ctx)

        reg.rules[role] = dataclasses.replace(rules, **{stage: wrapper})
        return reg
    return registry


def test_patient_internal_runs_at_its_stage_end(monkeypatch):
    assert stage_due(None, {"infection": "infected", "stage_end": 9}) == 9
    assert stage_due(None, {"infection": "recovered", "stage_end": None}) is None
    calls = []
    monkeypatch.setattr(conftest, "default_registry", recording("patient", "internal", calls))
    world = build_patient_world(1, initially_infected=True, mild_hours=[3, 3], p_severe=0.0)
    for _ in range(10):
        world.step()
    assert world.states["p0000::healthcare"]["infection"] == "recovered"
    # tick 1; the stage end; the tick after its own change
    assert calls == [1, 3, 4]


def test_node_internal_runs_at_its_recovery_due(monkeypatch):
    assert recovery_due(None, {"available": False, "recovery_due": 7}) == 7
    assert recovery_due(None, {"available": True, "recovery_due": None}) is None
    calls = []
    monkeypatch.setattr(build, "default_registry",
                        recording("cyber-infrastructure", "internal", calls))
    nodes = [{"id": "n", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 5}]
    attackers = [{"id": "atk", "target": "n", "attack_type": "botnet",
                  "propagation_probability": 1.0}]
    world, _ = build_ict_world(nodes, attackers)
    schedule = HazardSchedule.from_config(
        [{"tick": 0, "kind": "cyberattack", "selector": {"id": "atk::ict"}}], 24)
    apply_due(world, 0, schedule)
    for _ in range(12):
        world.step()
    assert world.states["n::ict"]["available"]
    # tick 1 (compromised then, due at 1 + 5); the tick after that change;
    # the recovery; the tick after it
    assert calls == [1, 2, 6, 7]


# -- recorder rows -------------------------------------------------------------

def assert_rows_as_if_observed_anew(world, ticks, schedule, roles=None):
    """Per tick, the recorder's rows equal those of a recorder that calls
    ``observe_subagent`` for every observed subagent; returns the recorder
    and how many observe calls it saved."""
    cached, fresh = Recorder(world, roles), Recorder(world, roles)
    saved = 0
    for tick in range(ticks + 1):
        if tick:
            world.step()
        apply_due(world, tick, schedule)
        saved += sum(1 for sid, seen in cached._seen.items()
                     if seen[0] is world.states[sid] and seen[1] is world.params[sid])
        cached.observe()
        fresh._seen.clear()
        fresh.observe()
        assert cached.rows == fresh.rows, tick
    return cached, saved


def test_recorder_rows_match_fresh_observation_in_ict_cascade():
    nodes, attackers = ict_hierarchy()
    world, _ = build_ict_world(nodes, attackers)
    _, saved = assert_rows_as_if_observed_anew(
        world, 40, HazardSchedule.from_config(staggered_attacks(), 24))
    assert saved > 0


def gauge_world():
    registry = toy_registry(gauge=RuleSet(
        init_state=blank_state_init({"level": 1}),
        observe=lambda state, params: [("level", state["level"]), ("scale", params["scale"])]))
    world = World(1, registry)
    for sid in ("g1", "g2"):
        world.add_agent(sid, [(sid, "ict", "gauge", {"scale": 1.0})])
    world.finalize()
    return world.start()


def override_scale(tick, value):
    return HazardSchedule.from_config([{"tick": tick, "kind": "generic_override",
                                        "selector": {"id": "g2"},
                                        "overrides": {"scale": value}}], 24)


def test_new_params_object_invalidates_recorder_rows():
    world = gauge_world()
    assert_rows_as_if_observed_anew(world, 6, override_scale(3, 2.5), ["gauge"])
    recorder = Recorder(world, ["gauge"])
    recorder.observe()
    assert ("g2", "scale", 2.5) in {(s.scope, s.name, s.value) for s in recorder.rows}


def test_station_override_drops_roadway_rows_at_once():
    # at night the roadway's state stays the same object; its rows still stop
    world = build_world(tiny_city())
    schedule = HazardSchedule.from_config([{
        "tick": 3, "kind": "generic_override", "selector": {"id": "r0::mobility"},
        "overrides": {"station": False}}], 24)
    recorder, saved = assert_rows_as_if_observed_anew(world, 6, schedule)
    assert saved > 0
    assert sorted({s.tick for s in recorder.rows if s.scope == "r0::mobility"}) == [0, 1, 2]


def test_non_finite_metric_still_raises():
    world = gauge_world()
    schedule = override_scale(2, float("nan"))
    recorder = Recorder(world, ["gauge"])
    recorder.observe()
    world.step()
    recorder.observe()
    world.step()
    apply_due(world, world.tick, schedule)
    with pytest.raises(ValueError, match="non-finite metric scale=nan on g2"):
        recorder.observe()


def test_observe_subagent_is_called_only_for_changed_subagents(monkeypatch):
    seen = []
    observe = metrics.observe_subagent
    monkeypatch.setattr(metrics, "observe_subagent",
                        lambda world, sid: seen.append((world.tick, sid)) or observe(world, sid))
    world = gauge_world()
    recorder = Recorder(world, ["gauge"])
    schedule = override_scale(2, 3.0)
    for tick in range(4):
        if tick:
            world.step()
        apply_due(world, tick, schedule)
        recorder.observe()
    assert seen == [(0, "g1"), (0, "g2"), (2, "g2")]
