"""The ICT settlement walks only the nodes that may be down and finds the
effectively unavailable nodes as those reachable from the down ones.

Each world is stepped twice: as shipped, and with the settlement replaced
by the reference below, the walk over every node in dependency order on
every tick that the settlement was before it published its unavailable
nodes.  Both must hold the same states on every tick, the published set
must name exactly the nodes the reference holds effectively unavailable,
and where few nodes go down the shipped settlement must read fewer node
states over the run.
"""

import copy

import pytest

from citysim.build import build_world
from citysim.hazards import HazardSchedule, apply_due
from citysim.scenario import BASELINE
from citysim.systems.ict import (EDGE_ATTACKS, EDGE_DEPENDS, ROLE_ATTACKER, ROLE_NODE,
                                 _arrival, _emit, _recover, ict_settlement)

from conftest import build_ict_world, config_from
from test_wake import ict_hierarchy, short_casestudy, staggered_attacks


def dependency_order(nodes, providers):
    """``nodes`` ordered so that each comes after all its providers, or None
    if the dependencies have a cycle (Kahn's algorithm)."""
    waiting = {sid: 0 for sid in nodes}
    dependents = {sid: [] for sid in nodes}
    for sid in nodes:
        for up in providers(sid):
            if up in waiting:
                waiting[sid] += 1
                dependents[up].append(sid)
    order = [sid for sid in nodes if not waiting[sid]]
    for sid in order:  # grows while it is walked
        for dep in dependents[sid]:
            waiting[dep] -= 1
            if not waiting[dep]:
                order.append(dep)
    return order if len(order) == len(waiting) else None


def reference_ict_settlement(cctx) -> None:
    """The full walk: every node in dependency order on every tick."""
    tick = cctx.tick
    reached = set()
    for attacker in cctx.members(ROLE_ATTACKER):
        state = cctx.get(attacker)
        emitted = _emit(state, tick)
        if emitted is not state:
            cctx.set(attacker, emitted)
            reached.update(cctx.providers(attacker, EDGE_ATTACKS))
    order = dependency_order(cctx.members(ROLE_NODE),
                             lambda sid: cctx.providers(sid, EDGE_DEPENDS))
    wave, effective = {}, {}
    for sid in order:
        providers = cctx.providers(sid, EDGE_DEPENDS)
        before = cctx.get(sid)
        state = _recover(before, tick)
        if state["compromised_at"] == tick - 1:
            wave[sid] = (state["attack_prop"], state["attack_recovery_scale"])
            reached.update(cctx.dependents(sid, EDGE_DEPENDS))
        hit = _arrival(cctx, sid, providers, wave) if sid in reached else None
        if hit is not None:
            prop, scale = hit
            recovery = max(1, round(cctx.params(sid)["recovery_ticks"] * scale))
            state = dict(state, available=False, effective_available=False,
                         compromised_at=tick, recovery_due=tick + recovery,
                         attack_prop=prop, attack_recovery_scale=scale)
        else:
            value = state["available"] and all(effective[p] for p in providers)
            if state["effective_available"] != value:
                state = dict(state, effective_available=value)
        effective[sid] = state["effective_available"]
        if state is not before:
            cctx.set(sid, state)


class CountingContext:
    """A settlement's context that notes every node state it reads."""

    def __init__(self, cctx, reads):
        self._cctx, self._reads = cctx, reads

    def __getattr__(self, name):
        return getattr(self._cctx, name)

    def get(self, sid):
        self._reads.append(sid)
        return self._cctx.get(sid)


def counting(world, settlement):
    """The run with ``settlement`` as its ICT settlement; returns the list
    its node state reads go into."""
    reads = []
    world.registry = copy.copy(world.registry)
    world.registry.coordinators = dict(
        world.registry.coordinators,
        ict=lambda cctx: settlement(CountingContext(cctx, reads)))
    return reads


def assert_walk_matches_reference(make, until, schedule=None, changes=None):
    """Step ``make()``'s run as shipped and with the reference walk to tick
    ``until``, applying the schedule's events as a run does and then
    ``changes(world, tick)``.  Returns the shipped world and the number of
    node state reads of each settlement."""
    schedule = schedule or HazardSchedule([])
    shipped, reference = make(), make()
    nodes = set(shipped.role_members(ROLE_NODE))
    reads = (counting(shipped, ict_settlement), counting(reference, reference_ict_settlement))
    for world in (shipped, reference):
        apply_due(world, 0, schedule)
        if changes is not None:
            changes(world, 0)
    while shipped.tick < until:
        tick = shipped.tick + 1
        for world in (shipped, reference):
            world.step()
            apply_due(world, tick, schedule)
        assert shipped.states == reference.states, tick
        assert shipped.published["ict_unavailable"] == {
            sid for sid in nodes if not reference.states[sid]["effective_available"]}, tick
        if changes is not None:
            for world in (shipped, reference):
                changes(world, tick)
    return shipped, [sum(1 for sid in r if sid in nodes) for r in reads]


def down_ticks(world, sid, until, schedule=None, changes=None):
    """The ticks at which ``sid`` is effectively unavailable in a run of
    ``world`` to tick ``until``."""
    schedule = schedule or HazardSchedule([])
    apply_due(world, 0, schedule)
    if changes is not None:
        changes(world, 0)
    down = []
    while world.tick < until:
        world.step()
        apply_due(world, world.tick, schedule)
        if not world.states[sid]["effective_available"]:
            down.append(world.tick)
        if changes is not None:
            changes(world, world.tick)
    return down


def test_hierarchy_under_staggered_attacks_matches_full_walk():
    nodes, attackers = ict_hierarchy()
    shipped, (reads, full) = assert_walk_matches_reference(
        lambda: build_ict_world(nodes, attackers)[0], 40,
        HazardSchedule.from_config(staggered_attacks(), 24))
    assert shipped.states["a_again::ict"]["attacks_emitted"] == 1
    assert reads < full


@pytest.mark.parametrize("variant", ["baseline", "risk", "beds", "cybersecurity"])
def test_casestudy_walk_matches_full_walk(variant):
    config = config_from(short_casestudy())
    schedule = HazardSchedule([]) if variant == BASELINE else config.schedule()
    _, (reads, full) = assert_walk_matches_reference(
        lambda: build_world(config_from(short_casestudy()), variant),
        config.horizon_ticks, schedule)
    assert reads < full


def set_down(sid, at, recovery, compromised=False):
    """A change outside the tick: ``sid`` goes down after step ``at`` with a
    recovery clock of ``recovery`` ticks; a compromised node also sends a
    wave at the next step."""
    def change(world, tick):
        if tick == at:
            world.change(sid, dict(
                world.states[sid], available=False, recovery_due=tick + recovery,
                compromised_at=tick if compromised else None,
                attack_prop=1.0 if compromised else None,
                attack_recovery_scale=1.0 if compromised else None))
    return change


@pytest.mark.parametrize("at", [0, 5])
@pytest.mark.parametrize("compromised", [False, True])
def test_node_set_down_outside_the_tick_matches_full_walk(compromised, at):
    nodes, attackers = ict_hierarchy()
    change = set_down("mid1::ict", at, 4, compromised)
    assert_walk_matches_reference(lambda: build_ict_world(nodes, attackers)[0], 20,
                                  changes=change)
    # down from the next step until its clock runs out, and so are the
    # leaves it provides
    for sid in ("mid1::ict", "leaf4::ict"):
        assert down_ticks(build_ict_world(nodes, attackers)[0], sid, 20,
                          changes=change) == [at + 1, at + 2, at + 3]


def test_midrun_vulnerability_and_recovery_overrides_match_full_walk():
    nodes, attackers = ict_hierarchy()
    schedule = HazardSchedule.from_config(staggered_attacks() + [
        {"tick": 2, "kind": "generic_override", "selector": {"id": "mid0::ict"},
         "overrides": {"vulnerability": 0.0}},
        {"tick": 5, "kind": "generic_override", "selector": {"role": ROLE_NODE},
         "overrides": {"recovery_ticks": 9}},
        {"tick": 13, "kind": "generic_override", "selector": {"role": ROLE_NODE},
         "overrides": {"vulnerability": 1.0}},
        {"tick": 20, "kind": "generic_override", "selector": {"id": "root::ict"},
         "overrides": {"recovery_ticks": 1}},
    ], 24)
    shipped, _ = assert_walk_matches_reference(
        lambda: build_ict_world(nodes, attackers)[0], 40, schedule)
    assert shipped.states["mid0::ict"]["available"]


def test_second_hit_on_a_down_node_matches_full_walk():
    # a is hit at 1 and again at 2, which rewinds its clock to 2 + 10
    nodes = [
        {"id": "a", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 10},
        {"id": "b", "depends_on": ["a"], "vulnerability": 0.0, "recovery_ticks": 10},
    ]
    attackers = [{"id": name, "target": "a", "attack_type": "botnet",
                  "propagation_probability": 1.0} for name in ("atk", "atk2")]
    schedule = HazardSchedule.from_config([
        {"tick": 0, "kind": "cyberattack", "selector": {"id": "atk::ict"}},
        {"tick": 1, "kind": "cyberattack", "selector": {"id": "atk2::ict"}},
    ], 24)
    shipped, _ = assert_walk_matches_reference(
        lambda: build_ict_world(nodes, attackers)[0], 16, schedule)
    assert shipped.states["b::ict"]["available"]
    assert down_ticks(build_ict_world(nodes, attackers)[0], "b::ict", 16,
                      schedule) == list(range(1, 12))


def test_dual_homed_node_matches_full_walk():
    # d depends on p1 and p2, which fall at 1 and 4 and come back at 7 and
    # 12; d itself is never hit and is down while either is
    nodes = [
        {"id": "p1", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 6},
        {"id": "p2", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 8},
        {"id": "d", "depends_on": ["p1", "p2"], "vulnerability": 0.0, "recovery_ticks": 2},
        {"id": "e", "depends_on": ["d"], "vulnerability": 0.0, "recovery_ticks": 2},
    ]
    attackers = [
        {"id": "atk1", "target": "p1", "attack_type": "botnet", "propagation_probability": 1.0},
        {"id": "atk2", "target": "p2", "attack_type": "botnet", "propagation_probability": 1.0},
    ]
    schedule = HazardSchedule.from_config([
        {"tick": 0, "kind": "cyberattack", "selector": {"id": "atk1::ict"}},
        {"tick": 3, "kind": "cyberattack", "selector": {"id": "atk2::ict"}},
    ], 24)
    assert_walk_matches_reference(lambda: build_ict_world(nodes, attackers)[0], 16, schedule)
    for sid in ("d::ict", "e::ict"):
        assert down_ticks(build_ict_world(nodes, attackers)[0], sid, 16,
                          schedule) == list(range(1, 12))
