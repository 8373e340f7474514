"""Hazard scheduling, validation, dispatch and pre-hazard equivalence."""

import pytest

from citysim.hazards import (
    HazardError, HazardSchedule, apply_due, resolve_selector, validate,
)
from citysim.runner import run, run_variant

from conftest import build_ict_world, build_patient_world, config_from

CHAIN_NODES = [
    {"id": "core", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 10},
    {"id": "leaf", "depends_on": ["core"], "vulnerability": 1.0, "recovery_ticks": 10},
]
ATTACKER = [{"id": "atk", "target": "core", "attack_type": "botnet",
             "propagation_probability": 1.0}]


def schedule_of(entries, tpd=24) -> HazardSchedule:
    return HazardSchedule.from_config(entries, tpd)


def test_day_to_tick_conversion():
    sched = schedule_of([{"day": 20, "kind": "generic_override", "selector": {}}])
    assert sched.events[0].trigger_tick == 480


def test_stable_tie_order():
    sched = schedule_of([
        {"tick": 5, "kind": "generic_override", "selector": {"id": "b"}},
        {"tick": 5, "kind": "generic_override", "selector": {"id": "a"}},
    ])
    assert [e.selector["id"] for e in sched.due(5)] == ["b", "a"]


def test_empty_schedule_is_noop():
    world, _ = build_ict_world(CHAIN_NODES, ATTACKER)
    before = {k: dict(v) for k, v in world.states.items()}
    assert apply_due(world, 0, HazardSchedule([])) == []
    assert world.states == before


def test_override_rewrites_parameter():
    world, _ = build_ict_world(CHAIN_NODES, ATTACKER)
    sched = schedule_of([{
        "tick": 0, "kind": "generic_override",
        "selector": {"id": "leaf::ict"},
        "overrides": {"vulnerability": 0.25},
    }])
    assert apply_due(world, 0, sched) == [0]
    assert world.params["leaf::ict"]["vulnerability"] == 0.25


def test_override_is_idempotent():
    world, _ = build_ict_world(CHAIN_NODES, ATTACKER)
    event = {"tick": 0, "kind": "generic_override",
             "selector": {"id": "leaf::ict"}, "overrides": {"vulnerability": 0.25}}
    apply_due(world, 0, schedule_of([event]))
    once = dict(world.params["leaf::ict"])
    apply_due(world, 0, schedule_of([event]))
    assert world.params["leaf::ict"] == once


def test_selector_matching_nothing_aborts():
    world, _ = build_ict_world(CHAIN_NODES, ATTACKER)
    sched = schedule_of([{"tick": 0, "kind": "generic_override",
                          "selector": {"role": "power-plant"}}])
    with pytest.raises(HazardError, match="matches no subagent"):
        apply_due(world, 0, sched)


def test_unknown_parameter_override_aborts():
    world, _ = build_ict_world(CHAIN_NODES, ATTACKER)
    sched = schedule_of([{"tick": 0, "kind": "generic_override",
                          "selector": {"id": "leaf::ict"},
                          "overrides": {"warp_drive": 1}}])
    with pytest.raises(HazardError, match="unknown parameter"):
        apply_due(world, 0, sched)


def test_out_of_range_override_aborts():
    world, _ = build_ict_world(CHAIN_NODES, ATTACKER)
    sched = schedule_of([{"tick": 0, "kind": "generic_override",
                          "selector": {"id": "leaf::ict"},
                          "overrides": {"vulnerability": 2}}])
    assert validate(sched, world) == [
        "hazards[0]: override 'vulnerability' on 'leaf::ict': 2 must be in [0, 1]"]
    with pytest.raises(HazardError, match=r"hazard event 0 at tick 0: .*2 must be in \[0, 1\]"):
        apply_due(world, 0, sched)


def test_validate_collects_errors_without_raising():
    world, _ = build_ict_world(CHAIN_NODES, ATTACKER)
    sched = schedule_of([
        {"tick": -4, "kind": "generic_override", "selector": {"id": "leaf::ict"}},
        {"tick": 0, "kind": "volcano", "selector": {"id": "leaf::ict"}},
        {"tick": 0, "kind": "generic_override", "selector": {"role": "power-plant"}},
        {"tick": 0, "kind": "cyberattack", "selector": {"id": "leaf::ict"}},
    ])
    errors = validate(sched, world)
    assert len(errors) == 4
    assert any("negative" in e for e in errors)
    assert any("unknown kind" in e for e in errors)
    assert any("matches no subagent" in e for e in errors)
    assert any("not a cyber-attacker" in e for e in errors)


def test_validate_accepts_casestudy(casestudy):
    from citysim.build import build_world
    world = build_world(casestudy)
    assert validate(casestudy.schedule(), world) == []


def test_district_selector():
    world, _ = build_ict_world(
        [dict(CHAIN_NODES[0], district="center"),
         dict(CHAIN_NODES[1], district="outskirts")], ATTACKER)
    assert resolve_selector(world, {"role": "cyber-infrastructure",
                                    "district": "center"}) == ["core::ict"]


def test_cyberattack_arms_attacker():
    world, _ = build_ict_world(CHAIN_NODES, ATTACKER)
    sched = schedule_of([{"tick": 0, "kind": "cyberattack",
                          "selector": {"id": "atk::ict"}}])
    apply_due(world, 0, sched)
    assert world.states["atk::ict"]["active"] is True


def test_disease_seed_is_deterministic_and_exact():
    def seeded_ids():
        world = build_patient_world(50, seed=21, mild_hours=[24, 24])
        sched = schedule_of([{"tick": 0, "kind": "disease_seed",
                              "selector": {"role": "patient"},
                              "payload": {"count": 5}}])
        apply_due(world, 0, sched)
        return sorted(
            sid for sid in world.role_members("patient")
            if world.states[sid]["infection"] == "infected"
        )

    first, second = seeded_ids(), seeded_ids()
    assert len(first) == 5
    assert first == second


def test_event_beyond_horizon_changes_nothing():
    raw = {
        "name": "beyond", "seed": 3, "horizon_days": 1,
        "ict": {"nodes": CHAIN_NODES, "attackers": ATTACKER},
        "hazards": [{"tick": 2, "kind": "cyberattack", "selector": {"id": "atk::ict"}}],
    }
    with_event = run_variant(config_from(raw), "risk")
    beyond = dict(raw)
    beyond["hazards"] = [{"tick": 500, "kind": "cyberattack",
                          "selector": {"id": "atk::ict"}}]
    with_far_event = run_variant(config_from(beyond), "risk")
    assert [ (s.tick, s.scope, s.name, s.value) for s in with_event.samples ] != \
           [ (s.tick, s.scope, s.name, s.value) for s in with_far_event.samples ]
    no_event = dict(raw)
    no_event["hazards"] = []
    clean = run_variant(config_from(no_event), "risk")
    assert [(s.tick, s.scope, s.name, s.value) for s in with_far_event.samples] == \
           [(s.tick, s.scope, s.name, s.value) for s in clean.samples]


def test_zero_horizon_run_yields_tick_zero_metrics_only():
    raw = {
        "name": "zero", "seed": 2, "horizon_days": 1,
        "ict": {"nodes": CHAIN_NODES, "attackers": ATTACKER},
        "hazards": [{"tick": 0, "kind": "cyberattack", "selector": {"id": "atk::ict"}}],
    }
    config = config_from(raw)
    from citysim.build import build_world
    from citysim.metrics import Recorder

    world = build_world(config, "risk")
    recorder = Recorder(world)
    events = run(world, 0, config.schedule(), (lambda w: recorder.observe(),))
    assert world.tick == 0
    assert events == {0: [0]}
    assert {s.tick for s in recorder.rows} == {0}
    assert world.states["atk::ict"]["active"] is True  # armed, not yet emitted


def test_baseline_equals_risk_before_first_trigger():
    raw = {
        "name": "prefix", "seed": 5, "horizon_days": 1,
        "ict": {"nodes": CHAIN_NODES, "attackers": ATTACKER},
        "hazards": [{"tick": 10, "kind": "cyberattack", "selector": {"id": "atk::ict"}}],
    }
    config = config_from(raw)
    risk = run_variant(config, "risk")
    baseline = run_variant(config, "baseline")

    def prefix(result, before):
        return [(s.tick, s.scope, s.name, s.value)
                for s in result.samples if s.tick < before]

    assert prefix(risk, 10) == prefix(baseline, 10)
    assert prefix(risk, 25) != prefix(baseline, 25)
