"""Attack generation, propagation, cascade and recovery dynamics."""

import pytest

from citysim import build
from citysim.build import build_world
from citysim.hazards import HazardSchedule, apply_due
from citysim.metrics import sl_ict
from citysim.oracles import compromise_times
from citysim.runner import run_variant
from citysim.systems import default_registry
from citysim.systems.ict import ROLE_ATTACKER, ROLE_NODE, _wave_spec

from conftest import build_ict_world, config_from
from test_wake import ict_hierarchy, short_casestudy, staggered_attacks


def attack_at(tick, target="a"):
    return HazardSchedule.from_config(
        [{"tick": tick, "kind": "cyberattack", "selector": {"id": "atk::ict"}}], 24)


def chain_world(va=1.0, vb=1.0, vc=1.0, prop=1.0, recovery=10, seed=5):
    # b depends on a, c depends on b: attacks travel provider -> dependent
    nodes = [
        {"id": "a", "depends_on": [], "vulnerability": va, "recovery_ticks": recovery},
        {"id": "b", "depends_on": ["a"], "vulnerability": vb, "recovery_ticks": recovery},
        {"id": "c", "depends_on": ["b"], "vulnerability": vc, "recovery_ticks": recovery},
    ]
    attackers = [{"id": "atk", "target": "a", "attack_type": "botnet",
                  "propagation_probability": prop}]
    return build_ict_world(nodes, attackers, seed=seed)


def run_ticks(world, schedule, ticks):
    apply_due(world, 0, schedule)
    down_at = {}
    for _ in range(ticks):
        world.step()
        apply_due(world, world.tick, schedule)
        for sid in world.role_members("cyber-infrastructure"):
            if not world.states[sid]["available"] and sid not in down_at:
                down_at[sid] = world.tick
    return down_at


def test_deterministic_chain_matches_bruteforce_oracle():
    world, _ = chain_world()
    down_at = run_ticks(world, attack_at(0), 6)
    # armed at 0, emission lands next tick; one dependency hop per tick after
    expected = compromise_times({"a": ["b"], "b": ["c"]}, "a", 1)
    assert down_at == {f"{n}::ict": t for n, t in expected.items()}


def test_armed_attacker_emits_once():
    world, _ = chain_world()
    sched = attack_at(0)
    apply_due(world, 0, sched)
    for _ in range(4):
        world.step()
        apply_due(world, world.tick, sched)
    assert world.states["atk::ict"]["attacks_emitted"] == 1
    assert world.states["atk::ict"]["active"] is False


def test_never_triggered_attacker_never_attacks():
    world, _ = chain_world()
    down_at = run_ticks(world, HazardSchedule([]), 10)
    assert down_at == {}
    assert world.states["atk::ict"]["attacks_emitted"] == 0


def test_invulnerable_middle_node_stops_the_chain():
    world, _ = chain_world(vb=0.0)
    down_at = run_ticks(world, attack_at(0), 8)
    assert "a::ict" in down_at
    assert "b::ict" not in down_at
    assert "c::ict" not in down_at


def test_zero_propagation_confines_attack_to_target():
    world, _ = chain_world(prop=0.0)
    down_at = run_ticks(world, attack_at(0), 8)
    assert list(down_at) == ["a::ict"]


def test_two_attackers_same_tick_independent_targets():
    nodes = [
        {"id": "a", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 9},
        {"id": "b", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 9},
    ]
    attackers = [
        {"id": "atk", "target": "a", "attack_type": "botnet", "propagation_probability": 1.0},
        {"id": "atk2", "target": "b", "attack_type": "botnet", "propagation_probability": 1.0},
    ]
    world, _ = build_ict_world(nodes, attackers)
    sched = HazardSchedule.from_config([
        {"tick": 0, "kind": "cyberattack", "selector": {"id": "atk::ict"}},
        {"tick": 0, "kind": "cyberattack", "selector": {"id": "atk2::ict"}},
    ], 24)
    down_at = run_ticks(world, sched, 3)
    assert down_at == {"a::ict": 1, "b::ict": 1}


def test_recovery_restores_after_configured_ticks():
    world, _ = chain_world(recovery=48)
    sched = attack_at(480)
    apply_due(world, 0, sched)
    up_again = None
    for _ in range(560):
        world.step()
        apply_due(world, world.tick, sched)
        state = world.states["a::ict"]
        if world.tick > 481 and state["available"] and up_again is None:
            up_again = world.tick
    # down at 481 with recovery 48: back up at 529
    assert up_again == 481 + 48


def test_one_tick_recovery():
    world, _ = chain_world(recovery=1, prop=0.0)
    sched = attack_at(0)
    apply_due(world, 0, sched)
    availability = []
    for _ in range(4):
        world.step()
        apply_due(world, world.tick, sched)
        availability.append(world.states["a::ict"]["available"])
    assert availability == [False, True, True, True]


def test_node_recovering_this_tick_sends_no_wave():
    # a is compromised at tick 1 and due back at 2: it recovers before its
    # wave is read, so b, with every gate open, is never hit
    world, _ = chain_world(recovery=1, prop=1.0)
    sched = attack_at(0)
    apply_due(world, 0, sched)
    seen = []
    for _ in range(4):
        world.step()
        apply_due(world, world.tick, sched)
        seen.append(tuple(world.states[f"{n}::ict"]["compromised_at"] for n in "ab"))
    assert seen == [(1, None), (None, None), (None, None), (None, None)]


def test_dependency_cascade_same_tick_and_restoration():
    world, _ = chain_world(vb=0.0, vc=0.0, recovery=5)
    sched = attack_at(0)
    apply_due(world, 0, sched)
    effective = {sid: [] for sid in ("a::ict", "b::ict", "c::ict")}
    for _ in range(8):
        world.step()
        apply_due(world, world.tick, sched)
        for sid in effective:
            effective[sid].append(world.states[sid]["effective_available"])
    # a compromised at tick 1, recovered at tick 6; b and c effectively
    # unavailable the same ticks despite never being compromised themselves
    assert effective["a::ict"] == [False, False, False, False, False, True, True, True]
    assert effective["b::ict"] == effective["a::ict"]
    assert effective["c::ict"] == effective["a::ict"]


def test_no_dependencies_effective_equals_own():
    nodes = [{"id": "solo", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 4}]
    world, _ = build_ict_world(nodes, [{"id": "atk", "target": "solo",
                                        "attack_type": "ddos"}])
    sched = attack_at(0, "solo")
    apply_due(world, 0, sched)
    for _ in range(3):
        world.step()
        apply_due(world, world.tick, sched)
        state = world.states["solo::ict"]
        assert state["effective_available"] == state["available"]


def test_sl_ict_is_one_without_attacks():
    world, _ = chain_world()
    for _ in range(30):
        world.step()
        nodes = world.role_members("cyber-infrastructure")
        assert sl_ict([world.states[s]["effective_available"] for s in nodes]) == 1.0


def test_star_monte_carlo_mean_leaves():
    """4-leaf star at propagation 0.5: mean compromised leaves 2.0 +- 0.1
    over 1000 seeded engine runs (binomial oracle mean = n*p = 2)."""
    nodes = [{"id": "hub", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 99}]
    nodes += [{"id": f"leaf{i}", "depends_on": ["hub"], "vulnerability": 1.0,
               "recovery_ticks": 99} for i in range(4)]
    attackers = [{"id": "atk", "target": "hub", "attack_type": "botnet",
                  "propagation_probability": 0.5}]
    total = 0
    runs = 1000
    for seed in range(runs):
        world, _ = build_ict_world(nodes, attackers, seed=seed)
        sched = attack_at(0, "hub")
        apply_due(world, 0, sched)
        for _ in range(3):
            world.step()
        total += sum(
            1 for i in range(4) if not world.states[f"leaf{i}::ict"]["available"]
        )
    mean = total / runs
    assert abs(mean - 2.0) <= 0.1


def test_monotone_hardening_on_tree():
    """Lowering every vulnerability (same seed) never grows the compromised
    set on a tree topology, thanks to per-edge keyed draws."""
    def tree(vuln_scale, seed):
        nodes = [{"id": "root", "depends_on": [], "vulnerability": 1.0,
                  "recovery_ticks": 99}]
        base = [0.9, 0.7, 0.8, 0.6, 0.5, 0.75]
        parents = ["root", "root", "n0", "n0", "n1", "n1"]
        for i, (v, p) in enumerate(zip(base, parents)):
            nodes.append({"id": f"n{i}", "depends_on": [p],
                          "vulnerability": v * vuln_scale, "recovery_ticks": 99})
        attackers = [{"id": "atk", "target": "root", "attack_type": "botnet",
                      "propagation_probability": 0.8}]
        world, _ = build_ict_world(nodes, attackers, seed=seed)
        sched = attack_at(0, "root")
        apply_due(world, 0, sched)
        for _ in range(5):
            world.step()
        return {s for s in world.role_members("cyber-infrastructure")
                if not world.states[s]["available"]}

    for seed in range(40):
        assert tree(0.5, seed) <= tree(1.0, seed)


def test_halved_recovery_and_vulnerability_recover_earlier():
    def downtime(scale, seed=13):
        world, _ = chain_world(recovery=40, seed=seed)
        for sid in world.role_members("cyber-infrastructure"):
            params = world.records[sid].params
            params["vulnerability"] *= scale
            params["recovery_ticks"] = max(1, round(params["recovery_ticks"] * scale))
        sched = attack_at(0)
        apply_due(world, 0, sched)
        down, compromised = 0, set()
        for _ in range(140):
            world.step()
            for sid in world.role_members("cyber-infrastructure"):
                if not world.states[sid]["available"]:
                    down += 1
                    compromised.add(sid)
        return down, compromised

    full_down, full_set = downtime(1.0)
    half_down, half_set = downtime(0.5)
    assert half_down < full_down
    assert half_set <= full_set


def test_casestudy_attack_arrives_on_day_20(casestudy):
    result = run_variant(casestudy, "risk")
    sl = result.sl["ict"]
    first_drop = next(t for t, v in enumerate(sl) if v < 1.0)
    assert first_drop // 24 == 20


def test_rehit_node_still_sends_the_wave_of_its_previous_attack():
    # a is hit at 1 and again at 2; the wave it sends at 2 is the one of its
    # compromise at 1, read before the second hit rewinds its clock
    nodes = [
        {"id": "a", "depends_on": [], "vulnerability": 1.0, "recovery_ticks": 10},
        {"id": "b", "depends_on": ["a"], "vulnerability": 1.0, "recovery_ticks": 10},
    ]
    attackers = [{"id": name, "target": "a", "attack_type": "botnet",
                  "propagation_probability": 1.0} for name in ("atk", "atk2")]
    world, _ = build_ict_world(nodes, attackers)
    sched = HazardSchedule.from_config([
        {"tick": 0, "kind": "cyberattack", "selector": {"id": "atk::ict"}},
        {"tick": 1, "kind": "cyberattack", "selector": {"id": "atk2::ict"}},
    ], 24)
    apply_due(world, 0, sched)
    seen = []
    for _ in range(3):
        world.step()
        apply_due(world, world.tick, sched)
        seen.append(tuple(world.states[f"{n}::ict"]["compromised_at"] for n in "ab"))
    assert seen == [(1, None), (2, 2), (2, 3)]


# -- the per-subagent rules the ICT settlement once was, as references ---------

def attacker_internal(ctx) -> dict | None:
    """One-shot attack generation: armed attackers emit once and disarm."""
    state = ctx.state
    if not state["active"]:
        return None
    return {
        "active": False,
        "emitted_at": ctx.tick,
        "attacks_emitted": state["attacks_emitted"] + 1,
    }


def node_internal(ctx) -> dict | None:
    """Nominal operation plus recovery: restore once the clock runs out."""
    state = ctx.state
    if state["available"] or ctx.tick < state["recovery_due"]:
        return None
    new = dict(state)
    new.update(
        available=True, compromised_at=None,
        recovery_due=None, attack_prop=None, attack_recovery_scale=None,
    )
    return new


def node_network(ctx) -> dict | None:
    """Attack defense and re-transmission for one node, reading the ICT
    states after ``attacker_internal`` and ``node_internal``.

    Arrivals this tick: direct emissions from attacker neighbors, and waves
    from upstream providers freshly compromised last tick.  Every potential
    arrival consumes the same draws whether or not it succeeds.  A
    successful arrival on an already-down node rewinds its clock.
    """
    hit = None
    for attacker in ctx.dependents("attacks"):
        a_state = ctx.peer_state(attacker)
        if a_state["emitted_at"] != ctx.tick:
            continue
        prop, scale = _wave_spec(ctx.params_of(attacker))
        if ctx.rng(f"def:{attacker}").random() < ctx.params["vulnerability"]:
            if hit is None:
                hit = (prop, scale)
    for provider in ctx.providers("depends_on"):
        p_state = ctx.peer_state(provider)
        if p_state["compromised_at"] != ctx.tick - 1:
            continue
        transmitted = ctx.rng(f"prop:{provider}").random() < p_state["attack_prop"]
        defended = ctx.rng(f"def:{provider}").random() >= ctx.params["vulnerability"]
        if transmitted and not defended and hit is None:
            hit = (p_state["attack_prop"], p_state["attack_recovery_scale"])
    if hit is None:
        return None
    prop, scale = hit
    recovery = max(1, round(ctx.params["recovery_ticks"] * scale))
    new = dict(ctx.state)
    new.update(
        available=False,
        compromised_at=ctx.tick,
        recovery_due=ctx.tick + recovery,
        attack_prop=prop,
        attack_recovery_scale=scale,
    )
    return new


class SnapshotContext:
    """What the reference rules read for one node: a snapshot of ICT states,
    and the settlement's edges, params and streams at its tick."""

    def __init__(self, cctx, snapshot, sid):
        self.tick, self.sid, self._cctx, self._snapshot = cctx.tick, sid, cctx, snapshot

    @property
    def state(self):
        return self._snapshot[self.sid]

    @property
    def params(self):
        return self._cctx.params(self.sid)

    def params_of(self, sid):
        return self._cctx.params(sid)

    def peer_state(self, sid):
        return self._snapshot[sid]

    def providers(self, label):
        return self._cctx.providers(self.sid, label)

    def dependents(self, label):
        return self._cctx.dependents(self.sid, label)

    def rng(self, label):
        return self._cctx.rng(self.sid, label)


ATTACK_FIELDS = ("compromised_at", "recovery_due", "attack_prop", "attack_recovery_scale")


def assert_arrivals_match_reference(monkeypatch, make, ticks, schedule):
    """Step ``make()``'s world; after each tick every node's attack fields
    equal what ``node_network`` computes from the states the ICT settlement
    started from, once ``attacker_internal`` and ``node_internal`` have been
    applied to them.  Returns the (direct, wave) compromises seen."""
    taken = []

    def registry():
        reg = default_registry()
        settle = reg.coordinators["ict"]

        def snapshotting(cctx):
            ids = cctx.members(ROLE_NODE) + cctx.members(ROLE_ATTACKER)
            taken.append((cctx, {sid: cctx.get(sid) for sid in ids}))
            settle(cctx)

        reg.coordinators["ict"] = snapshotting
        return reg

    monkeypatch.setattr(build, "default_registry", registry)
    world = make()
    apply_due(world, 0, schedule)
    direct = wave = 0
    for _ in range(ticks):
        world.step()
        cctx, before = taken.pop()
        snapshot = dict(before)
        for role, rule in ((ROLE_ATTACKER, attacker_internal), (ROLE_NODE, node_internal)):
            for sid in cctx.members(role):
                snapshot[sid] = rule(SnapshotContext(cctx, before, sid)) or before[sid]
        for sid in cctx.members(ROLE_NODE):
            expected = node_network(SnapshotContext(cctx, snapshot, sid)) or snapshot[sid]
            got = world.states[sid]
            assert [got[f] for f in ATTACK_FIELDS] == [expected[f] for f in ATTACK_FIELDS], \
                (world.tick, sid)
            if got["compromised_at"] == world.tick:
                if cctx.dependents(sid, "attacks"):
                    direct += 1
                else:
                    wave += 1
        apply_due(world, world.tick, schedule)
    return direct, wave


def test_arrivals_match_reference_in_ict_hierarchy(monkeypatch):
    nodes, attackers = ict_hierarchy()
    direct, wave = assert_arrivals_match_reference(
        monkeypatch, lambda: build_ict_world(nodes, attackers)[0], 40,
        HazardSchedule.from_config(staggered_attacks(), 24))
    assert direct > 0 and wave > 0


def test_arrivals_match_reference_in_casestudy(monkeypatch):
    config = config_from(short_casestudy())
    direct, wave = assert_arrivals_match_reference(
        monkeypatch, lambda: build_world(config_from(short_casestudy()), "risk"),
        config.horizon_ticks, config.schedule())
    assert direct > 0 and wave > 0
