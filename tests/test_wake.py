"""Wake-driven coupling: a coupling rule runs only after a change of a
sibling or a change of its own subagent made outside its settlement, and a
run starts with every subagent that has a rule changed; the recorder
takes a new block only for an observed subagent in the change log, and
reuses the block of every other one.

The equivalence tests step each world twice: as shipped, and as a
reference ``World`` whose ``_calls`` returns the whole coupling plan on
every tick.  Both must hold the same states on every tick, the shipped
world must call every rule on its first tick and make fewer rule calls
over the run.
"""

import json

import pytest

from citysim import metrics
from citysim.build import build_world
from citysim.hazards import HazardSchedule, apply_due
from citysim.kernel import RuleSet, World
from citysim.metrics import Recorder
from citysim.scenario import BASELINE

from conftest import (SCENARIO_PATH, blank_state_init, build_ict_world, build_sir_world,
                      config_from, toy_registry)
from test_social import tiny_city


class ShippedWorld(World):
    """The shipped world, recording its coupling rule calls per tick."""

    def _calls(self, settled, outside):
        calls = super()._calls(settled, outside)
        self.call_counts.append(len(calls))
        return calls


class EveryTickWorld(World):
    """The reference: every coupling rule is called on every tick."""

    def _calls(self, settled, outside):
        self.call_counts.append(len(self._plan))
        return self._plan


def shipped_and_every_tick(make):
    """``make()``'s run twice: as shipped, and as the every-tick reference."""
    pair = []
    for cls in (ShippedWorld, EveryTickWorld):
        world = make()
        world.__class__ = cls
        world.call_counts = []
        pair.append(world)
    return pair


def assert_same_states(pair, until, schedule=None):
    """Step both worlds to tick ``until``, applying the schedule's events as a
    run does, and compare their states on every tick.  The reference calls
    every coupling rule on every tick; the shipped world calls all of them
    on its first tick and fewer over the run."""
    schedule = schedule or HazardSchedule([])
    shipped, reference = pair
    if shipped.tick == 0:
        for world in pair:
            apply_due(world, 0, schedule)
    assert shipped.states == reference.states
    while shipped.tick < until:
        for world in pair:
            world.step()
            apply_due(world, world.tick, schedule)
        assert shipped.states == reference.states, shipped.tick
    plan = len(reference._plan)
    assert reference.call_counts == [plan] * reference.tick
    assert shipped.call_counts[0] == plan
    assert sum(shipped.call_counts) < sum(reference.call_counts) or not plan


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
def test_casestudy_states_match_every_tick_stepping(variant):
    pair = shipped_and_every_tick(
        lambda: build_world(config_from(short_casestudy()), variant))
    config = config_from(short_casestudy())
    schedule = HazardSchedule([]) if variant == BASELINE else config.schedule()
    assert_same_states(pair, config.horizon_ticks, schedule)


def test_jittered_city_states_match_every_tick_stepping():
    pair = shipped_and_every_tick(lambda: build_world(tiny_city(jitter=1)))
    assert_same_states(pair, 3 * 24)


def test_sir_states_match_every_tick_stepping():
    pair = shipped_and_every_tick(
        lambda: build_sir_world(60, seeds=4, beta=0.03, contact_k=3, duration=30))
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


def test_ict_cascade_states_match_every_tick_stepping():
    nodes, attackers = ict_hierarchy()
    pair = shipped_and_every_tick(lambda: build_ict_world(nodes, attackers)[0])
    assert_same_states(pair, 40, HazardSchedule.from_config(staggered_attacks(), 24))


def test_midrun_overrides_match_every_tick_stepping():
    # at 21:00, home since its evening trip, a citizen gets a timetable that
    # goes out at 22:00; a node downstream of the attack is hardened before
    # the wave reaches it; and a citizen convalescing at home (ticks 47-59)
    # is given a new home at tick 50, where its coupling rule sends it
    citizen, mover = "cit_outskirts_1::social", "cit_center_46::social"
    schedule = build_world(config_from(short_casestudy())).params[citizen]["schedule"]
    home, out = schedule[0], next(entry for entry in schedule if entry[0] != schedule[0][0])
    raw = short_casestudy([
        {"tick": 45, "kind": "generic_override", "selector": {"id": citizen},
         "overrides": {"schedule": [home] * 22 + [out, home]}},
        {"tick": 2, "kind": "generic_override", "selector": {"id": "hospital_center::ict"},
         "overrides": {"vulnerability": 0.0}},
        {"tick": 50, "kind": "generic_override", "selector": {"id": mover},
         "overrides": {"home_place": "home_center_0"}},
    ])
    pair = shipped_and_every_tick(lambda: build_world(config_from(raw)))
    config = config_from(raw)
    assert_same_states(pair, 46, config.schedule())
    assert pair[0].states[citizen]["trip_pending"]["depart"] == 46
    assert_same_states(pair, 50, config.schedule())
    assert pair[0].states[mover]["location"] == "place:home_center_17"
    assert_same_states(pair, 51, config.schedule())
    state = pair[0].states[mover]
    assert (state["location"], state["homebound"]) == ("place:home_center_0", True)
    assert_same_states(pair, 3 * 24, config.schedule())


# -- changes -----------------------------------------------------------------

def clock_world(calls):
    """Subagents whose coupling rule records its calls and changes nothing."""
    def coupling(ctx):
        calls.setdefault(ctx.sid, []).append(ctx.tick)

    registry = toy_registry(clock=RuleSet(init_state=blank_state_init({}), coupling=coupling))
    world = World(1, registry)
    for sid in ("params", "quiet", "state"):
        world.add_agent(sid, [(sid, "ict", "clock", {"scale": 1.0})])
    world.finalize()
    return world.start()


def test_a_change_outside_the_stages_wakes_the_rule():
    calls = {}
    world = clock_world(calls)
    world.step()
    world.step()
    world.change("state", {"set": "by a hazard"})
    world.params["params"] = dict(world.params["params"], scale=2.0)
    world.change("params")
    for _ in range(4):
        world.step()
    assert calls == {"params": [1, 3], "quiet": [1], "state": [1, 3]}


def test_a_settlement_write_wakes_the_siblings_rules_not_its_own():
    # the ict settlement rewrites its member at ticks 2 and 4: that wakes
    # the rule of the agent's healthcare member, not the ict member's own
    calls = {}

    def coupling(ctx):
        calls.setdefault(ctx.sid, []).append(ctx.tick)

    def rewrite(cctx):
        if cctx.tick in (2, 4):
            cctx.set("a::ict", {"at": cctx.tick})

    registry = toy_registry(clock=RuleSet(init_state=blank_state_init({}), coupling=coupling))
    registry.register_coordinator("ict", rewrite)
    world = World(1, registry)
    world.add_agent("a", [("a::ict", "ict", "clock", {}),
                          ("a::healthcare", "healthcare", "clock", {})])
    world.finalize()
    world = world.start()
    for _ in range(5):
        world.step()
    assert calls == {"a::healthcare": [1, 2, 4], "a::ict": [1]}


def test_changed_outside_and_the_change_log():
    # a settlement sees its own layer's members changed by a coupling rule
    # or World.change since the last step began; the log keeps old states
    seen = []

    def coupling(ctx):
        return {"n": 1} if ctx.tick == 1 and ctx.sid == "a" else None

    registry = toy_registry(count=RuleSet(init_state=blank_state_init({"n": 0}),
                                          coupling=coupling))
    registry.register_coordinator("ict", lambda cctx: seen.append(
        (cctx.tick, sorted(cctx.changed_outside("count")))))
    world = World(1, registry)
    for sid, system in (("a", "ict"), ("b", "ict"), ("c", "ict"), ("d", "healthcare")):
        world.add_agent(sid, [(sid, system, "count", {})])
    world.finalize()
    world = world.start()
    world.step()
    assert world.changes == {"a": {"n": 0}}
    world.change("b", {"n": 5})
    assert world.changes == {"a": {"n": 0}, "b": {"n": 0}}
    world.step()
    assert world.changes == {}
    world.step()
    assert seen == [(1, ["a", "b", "c"]), (2, ["a", "b"]), (3, [])]


# -- recorder rows -------------------------------------------------------------

def assert_rows_as_if_observed_anew(world, ticks, schedule, roles=None):
    """Per tick, the recorder's rows equal those of a recorder that calls
    ``observe_subagent`` for every observed subagent; returns the recorder
    and how many observe calls it saved: the observed subagents outside the
    change log on the ticks it read the log."""
    cached, fresh = Recorder(world, roles), Recorder(world, roles)
    saved = 0
    for tick in range(ticks + 1):
        if tick:
            world.step()
        apply_due(world, tick, schedule)
        if world.changes_since == cached._version:
            saved += sum(1 for sid in cached._blocks if sid not in world.changes)
        cached.observe()
        fresh._version = None  # takes every block anew
        fresh.observe()
        assert cached.rows == fresh.rows, tick
    return cached, saved


def test_recorder_rows_match_fresh_observation_in_ict_cascade():
    nodes, attackers = ict_hierarchy()
    world, _ = build_ict_world(nodes, attackers)
    _, saved = assert_rows_as_if_observed_anew(
        world, 40, HazardSchedule.from_config(staggered_attacks(), 24))
    assert saved > 0


@pytest.mark.parametrize("variant", ["baseline", "risk", "beds", "cybersecurity"])
def test_recorder_rows_match_fresh_observation_in_the_casestudy(variant):
    config = config_from(short_casestudy())
    schedule = HazardSchedule([]) if variant == BASELINE else config.schedule()
    _, saved = assert_rows_as_if_observed_anew(
        build_world(config, variant), config.horizon_ticks, schedule)
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
