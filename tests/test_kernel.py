"""Kernel semantics: staged snapshots, order independence, build errors."""

import pytest

from citysim.kernel import (
    STAGE_NETWORK, SYSTEMS, BuildError, CoordinatorContext, KernelError, Registry, RuleContext,
    RuleSet, SimulationAbort, World,
)

from conftest import blank_state_init, toy_registry


def counter_rules() -> RuleSet:
    def internal(ctx):
        new = dict(ctx.state)
        new["count"] += 1
        return new
    return RuleSet(init_state=blank_state_init({"count": 0}), internal=internal)


def swapper_rules() -> RuleSet:
    def network(ctx):
        peers = ctx.providers("pairs")
        if not peers:
            return None
        new = dict(ctx.state)
        new["count"] = ctx.peer_state(peers[0])["count"]
        return new
    return RuleSet(init_state=blank_state_init({"count": 0}), network=network)


def build_pair(registry, role, seed=1, order=("a", "b")) -> World:
    world = World(seed, registry)
    for name in order:
        world.add_agent(name, [(f"{name}::ict", "ict", role, {})])
    world.add_edge("ict", "a::ict", "b::ict", "pairs")
    world.add_edge("ict", "b::ict", "a::ict", "pairs")
    world.finalize()
    return world


def test_identity_rules_leave_state_unchanged():
    registry = toy_registry(noop=RuleSet(init_state=blank_state_init({"x": 3})))
    world = World(1, registry)
    world.add_agent("a", [("a::ict", "ict", "noop", {})])
    world.finalize()
    before = dict(world.states["a::ict"])
    world.step()
    assert world.tick == 1
    assert world.states["a::ict"] == before


def test_empty_world_steps():
    world = World(1, toy_registry())
    world.finalize()
    world.step()
    assert world.tick == 1
    assert world.states == {}


def test_network_stage_reads_post_internal_snapshot_swap():
    # two subagents swap counters: each ends up with the other's value,
    # regardless of evaluation order
    registry = toy_registry(swapper=swapper_rules())
    world = build_pair(registry, "swapper")
    world.states["a::ict"] = {"count": 10}
    world.states["b::ict"] = {"count": 20}
    world.step()
    assert world.states["a::ict"]["count"] == 20
    assert world.states["b::ict"]["count"] == 10


def test_registration_order_does_not_change_trajectory():
    registry1 = toy_registry(swapper=swapper_rules())
    registry2 = toy_registry(swapper=swapper_rules())
    w1 = build_pair(registry1, "swapper", order=("a", "b"))
    w2 = build_pair(registry2, "swapper", order=("b", "a"))
    w1.states["a::ict"] = {"count": 1}
    w1.states["b::ict"] = {"count": 2}
    w2.states["a::ict"] = {"count": 1}
    w2.states["b::ict"] = {"count": 2}
    for _ in range(5):
        w1.step()
        w2.step()
    assert w1.states == w2.states


def test_same_seed_same_trajectory():
    def noisy_internal(ctx):
        return {"count": ctx.state["count"] + ctx.rng("jump").random()}

    def make():
        registry = toy_registry(noisy=RuleSet(
            init_state=blank_state_init({"count": 0.0}), internal=noisy_internal))
        world = World(99, registry)
        for name in ("a", "b", "c"):
            world.add_agent(name, [(f"{name}::ict", "ict", "noisy", {})])
        world.finalize()
        return world

    w1, w2 = make(), make()
    for _ in range(100):
        w1.step()
        w2.step()
    assert w1.states == w2.states


def test_tick_increments_by_one():
    world = World(1, toy_registry(n=RuleSet(init_state=blank_state_init({}))))
    world.add_agent("a", [("a::social", "social", "n", {})])
    world.finalize()
    ticks = []
    for _ in range(5):
        world.step()
        ticks.append(world.tick)
    assert ticks == [1, 2, 3, 4, 5]


def test_duplicate_subagent_id_rejected():
    registry = toy_registry(n=RuleSet(init_state=blank_state_init({})))
    world = World(1, registry)
    world.add_agent("a", [("x::ict", "ict", "n", {})])
    with pytest.raises(BuildError, match="duplicate"):
        world.add_agent("b", [("x::ict", "ict", "n", {})])


def test_agent_with_two_subagents_in_one_system_rejected():
    registry = toy_registry(n=RuleSet(init_state=blank_state_init({})))
    world = World(1, registry)
    with pytest.raises(BuildError, match="two subagents"):
        world.add_agent("hospital", [
            ("hospital::healthcare", "healthcare", "n", {}),
            ("hospital2::healthcare", "healthcare", "n", {}),
        ])


def test_edge_to_unknown_subagent_rejected():
    registry = toy_registry(n=RuleSet(init_state=blank_state_init({})))
    world = World(1, registry)
    world.add_agent("a", [("a::ict", "ict", "n", {})])
    with pytest.raises(BuildError, match="unknown subagent"):
        world.add_edge("ict", "a::ict", "ghost::ict", "depends_on")


def test_unknown_system_rejected():
    registry = toy_registry(n=RuleSet(init_state=blank_state_init({})))
    world = World(1, registry)
    with pytest.raises(BuildError, match="unknown system"):
        world.add_agent("a", [("a::power", "power", "n", {})])


def test_published_value_reaches_network_next_tick_and_coupling_same_tick():
    # a settlement publishes its tick number; readers in layers settled
    # before and after it see the same values, whatever the registration order
    def publish_tick(cctx):
        cctx.publish("tick", cctx.tick)

    def saw(stage):
        return lambda ctx: {**ctx.state, stage: ctx.published("tick")}

    def make(coordinator_first, agents):
        registry = Registry()
        if coordinator_first:
            registry.register_coordinator("social", publish_tick)
        registry.register_role("reader", RuleSet(
            init_state=blank_state_init({}), network=saw("network"),
            coupling=saw("coupling"), observe=lambda record: []))
        if not coordinator_first:
            registry.register_coordinator("social", publish_tick)
        world = World(1, registry)
        for name, system in agents:
            world.add_agent(name, [(f"{name}::{system}", system, "reader", {})])
        world.finalize()
        return world

    agents = [("a", "ict"), ("b", "social"), ("c", "urban_landscape")]
    w1 = make(True, agents)
    w2 = make(False, agents[::-1])
    for tick in range(1, 5):
        w1.step()
        w2.step()
        assert w1.states == w2.states
        expected = {"network": None if tick == 1 else tick - 1, "coupling": tick}
        assert all(state == expected for state in w1.states.values())


def test_cross_layer_network_read_rejected():
    def peeker(ctx):
        ctx.peer_state("b::social")
        return None

    registry = toy_registry(
        peek=RuleSet(init_state=blank_state_init({}), network=peeker),
        n=RuleSet(init_state=blank_state_init({})),
    )
    world = World(1, registry)
    world.add_agent("a", [("a::ict", "ict", "peek", {})])
    world.add_agent("b", [("b::social", "social", "n", {})])
    world.finalize()
    with pytest.raises(KernelError, match="across layers"):
        world.step()


def test_rule_exception_becomes_abort_with_id_and_tick():
    def boom(ctx):
        if ctx.tick == 3:
            raise ValueError("negative capacity")
        return None

    registry = toy_registry(bomb=RuleSet(init_state=blank_state_init({}), internal=boom))
    world = World(1, registry)
    world.add_agent("a", [("a::ict", "ict", "bomb", {})])
    world.finalize()
    world.step()
    world.step()
    with pytest.raises(SimulationAbort) as err:
        world.step()
    assert err.value.subagent_id == "a::ict"
    assert err.value.tick == 3


# -- structure derived once at finalize ------------------------------------

def assert_derived_structure_matches_definition(world: World) -> None:
    """Cached role order, per-layer role lists and the sibling table equal
    the brute-force definitions over all records."""
    ordered = sorted(world.records)
    roles = {rec.role for rec in world.records.values()}
    for role in sorted(roles) + ["no-such-role"]:
        expected = [sid for sid in ordered if world.records[sid].role == role]
        assert world.role_members(role) == expected
        for system in SYSTEMS:
            cctx = CoordinatorContext(world, system, world.states, dict(world.states), world.tick)
            assert cctx.members(role) == [
                sid for sid in expected if world.records[sid].system == system]
    member_of = {(rec.agent_id, rec.system): sid for sid, rec in world.records.items()}
    for sid, rec in world.records.items():
        for system in SYSTEMS:
            assert world.counterpart(sid, system) == member_of.get((rec.agent_id, system))


def mixed_world() -> World:
    """Agents registered out of id order, a role spread over two systems,
    agents with and without siblings."""
    registry = toy_registry(
        node=RuleSet(init_state=blank_state_init({})),
        person=RuleSet(init_state=blank_state_init({})),
        mirror=RuleSet(init_state=blank_state_init({})),
    )
    world = World(3, registry)
    world.add_agent("zed", [("zed::social", "social", "person", {}),
                            ("zed::healthcare", "healthcare", "mirror", {})])
    world.add_agent("amy", [("amy::social", "social", "person", {}),
                            ("amy::mobility", "mobility", "mirror", {}),
                            ("amy::urban_landscape", "urban_landscape", "mirror", {})])
    world.add_agent("hub", [("hub::ict", "ict", "node", {})])
    world.add_agent("bob", [("bob::social", "social", "person", {})])
    return world


def test_role_order_and_siblings_match_definition_on_direct_world():
    world = mixed_world()
    assert world.role_members("person") == ["amy::social", "bob::social", "zed::social"]
    world.add_agent("abe", [("abe::social", "social", "person", {})])
    # before finalize the order follows every agent added so far
    assert world.role_members("person")[0] == "abe::social"
    world.finalize()
    assert_derived_structure_matches_definition(world)
    assert world.counterpart("zed::healthcare", "social") == "zed::social"
    assert world.counterpart("bob::social", "healthcare") is None


def test_role_order_and_siblings_match_definition_on_casestudy(casestudy):
    from citysim.build import build_world
    assert_derived_structure_matches_definition(build_world(casestudy, "risk"))


def test_edge_lookups_match_definition_on_casestudy(casestudy):
    """providers / dependents by label equal a filter of the layer's edges,
    in ascending order, for every ICT node."""
    from citysim.build import build_world
    world = build_world(casestudy, "risk")
    layer = world.layers["ict"]
    labels = sorted({label for _, _, label in layer.edges})
    assert labels == ["attacks", "depends_on"]
    ctx = RuleContext(world, STAGE_NETWORK, world.states, 1)
    cctx = CoordinatorContext(world, "ict", world.states, dict(world.states), 1)
    for sid in world.role_members("cyber-infrastructure"):
        ctx.sid, ctx._record = sid, world.records[sid]
        for label in labels + ["no-such-label"]:
            targets = sorted(to for frm, to, lab in layer.edges if frm == sid and lab == label)
            sources = sorted(frm for frm, to, lab in layer.edges if to == sid and lab == label)
            assert ctx.providers(label) == targets
            assert cctx.providers(sid, label) == targets
            assert ctx.dependents(label) == sources


def test_returned_role_members_can_be_mutated_safely():
    world = mixed_world()
    world.finalize()
    members = world.role_members("person")
    expected = list(members)
    members.append("intruder::social")
    members.reverse()
    assert world.role_members("person") == expected


def test_structure_frozen_after_finalize():
    world = mixed_world()
    world.finalize()
    with pytest.raises(BuildError, match="already finalized"):
        world.add_agent("late", [("late::social", "social", "person", {})])
    with pytest.raises(BuildError, match="already finalized"):
        world.add_edge("social", "amy::social", "bob::social", "knows")
