"""Kernel semantics: settlements then the coupling map, order independence,
build errors."""

import pytest

from citysim.kernel import (
    SYSTEMS, BuildError, CoordinatorContext, KernelError, RuleSet, SimulationAbort, World,
)

from conftest import blank_state_init, toy_registry


def counter_rules() -> RuleSet:
    def coupling(ctx):
        new = dict(ctx.state)
        new["count"] += 1
        return new
    return RuleSet(init_state=blank_state_init({"count": 0}), coupling=coupling)


def swapper_rules() -> RuleSet:
    def coupling(ctx):
        new = dict(ctx.state)
        new["count"] = ctx.sibling(ctx.params["other"])["count"]
        return new
    return RuleSet(init_state=blank_state_init({"count": 0}), coupling=coupling)


def build_pair(registry, role, seed=1, order=("ict", "social")) -> World:
    """One agent whose two subagents each copy the other's count."""
    other = dict(zip(order, reversed(order)))
    world = World(seed, registry)
    world.add_agent("a", [(f"a::{system}", system, role, {"other": other[system]})
                          for system in order])
    world.finalize()
    return world.start()


def test_identity_rules_leave_state_unchanged():
    registry = toy_registry(noop=RuleSet(init_state=blank_state_init({"x": 3})))
    world = World(1, registry)
    world.add_agent("a", [("a::ict", "ict", "noop", {})])
    world.finalize()
    world = world.start()
    before = dict(world.states["a::ict"])
    world.step()
    assert world.tick == 1
    assert world.states["a::ict"] == before


def test_empty_world_steps():
    world = World(1, toy_registry())
    world.finalize()
    world = world.start()
    world.step()
    assert world.tick == 1
    assert world.states == {}


def test_network_stage_reads_post_internal_snapshot_swap():
    # two siblings swap counters in the coupling stage: each ends up with
    # the other's value from the snapshot before the stage, regardless of
    # evaluation order
    registry = toy_registry(swapper=swapper_rules())
    world = build_pair(registry, "swapper")
    world.change("a::ict", {"count": 10})
    world.change("a::social", {"count": 20})
    world.step()
    assert world.states["a::ict"]["count"] == 20
    assert world.states["a::social"]["count"] == 10


def test_registration_order_does_not_change_trajectory():
    registry1 = toy_registry(swapper=swapper_rules())
    registry2 = toy_registry(swapper=swapper_rules())
    w1 = build_pair(registry1, "swapper", order=("ict", "social"))
    w2 = build_pair(registry2, "swapper", order=("social", "ict"))
    for world in (w1, w2):
        world.change("a::ict", {"count": 1})
        world.change("a::social", {"count": 2})
    for _ in range(5):
        w1.step()
        w2.step()
    assert w1.states == w2.states


def test_same_seed_same_trajectory():
    # the healthcare settlement draws each agent's jump into its die; the
    # coupling rule of the agent's ict member adds it
    def draw_jumps(cctx):
        for sid in cctx.members("die"):
            cctx.set(sid, {"jump": cctx.rng(sid, "jump").random()})

    def noisy_coupling(ctx):
        return {"count": ctx.state["count"] + ctx.sibling("healthcare")["jump"]}

    def make():
        registry = toy_registry(
            noisy=RuleSet(init_state=blank_state_init({"count": 0.0}), coupling=noisy_coupling),
            die=RuleSet(init_state=blank_state_init({"jump": 0.0})))
        registry.register_coordinator("healthcare", draw_jumps)
        world = World(99, registry)
        for name in ("a", "b", "c"):
            world.add_agent(name, [(f"{name}::ict", "ict", "noisy", {}),
                                   (f"{name}::healthcare", "healthcare", "die", {})])
        world.finalize()
        return world.start()

    w1, w2 = make(), make()
    for _ in range(100):
        w1.step()
        w2.step()
    assert w1.states == w2.states
    assert 0 < w1.states["a::ict"]["count"] != w1.states["b::ict"]["count"]


def test_tick_increments_by_one():
    world = World(1, toy_registry(n=RuleSet(init_state=blank_state_init({}))))
    world.add_agent("a", [("a::social", "social", "n", {})])
    world.finalize()
    world = world.start()
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


def test_duplicate_agent_id_rejected():
    registry = toy_registry(n=RuleSet(init_state=blank_state_init({})))
    world = World(1, registry)
    world.add_agent("a", [("x::ict", "ict", "n", {})])
    world.add_agent("a", [("y::social", "social", "n", {})])
    with pytest.raises(BuildError, match="duplicate agent id 'a'"):
        world.finalize()


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


def test_every_settlement_sees_previous_tick_product_whatever_its_place():
    # the social settlement publishes its tick number; the ict settlement
    # (before social in SYSTEMS) and the urban_landscape one (after it) both
    # store what they read, whatever the registration order
    def publish_tick(cctx):
        cctx.publish("tick", cctx.tick)

    def store_seen(cctx):
        sid = cctx.members("reader")[0]
        cctx.set(sid, {"seen": cctx.published("tick")})

    def make(publisher_first):
        registry = toy_registry(reader=RuleSet(init_state=blank_state_init({"seen": None})))
        if publisher_first:
            registry.register_coordinator("social", publish_tick)
        registry.register_coordinator("urban_landscape", store_seen)
        registry.register_coordinator("ict", store_seen)
        if not publisher_first:
            registry.register_coordinator("social", publish_tick)
        world = World(1, registry)
        world.add_agent("a", [("a::ict", "ict", "reader", {}),
                              ("a::urban_landscape", "urban_landscape", "reader", {})])
        world.finalize()
        return world.start()

    for world in (make(True), make(False)):
        for tick in range(1, 5):
            world.step()
            expected = {"seen": None if tick == 1 else tick - 1}
            assert world.states == {"a::ict": expected, "a::urban_landscape": expected}
            assert world.published == {"tick": tick}


def test_rule_exception_becomes_abort_with_id_and_tick():
    # a new state on every call is a change, so the rule runs again next tick
    def boom(ctx):
        if ctx.tick == 3:
            raise ValueError("negative capacity")
        return dict(ctx.state)

    registry = toy_registry(bomb=RuleSet(init_state=blank_state_init({}), coupling=boom))
    world = World(1, registry)
    world.add_agent("a", [("a::ict", "ict", "bomb", {})])
    world.finalize()
    world = world.start()
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
            cctx = CoordinatorContext(world, system, {}, 0, {}, set())
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
    world.add_agent("abe", [("abe::social", "social", "person", {})])
    # the role order is part of the frozen structure
    with pytest.raises(KernelError, match="not finalized"):
        world.role_members("person")
    world.finalize()
    assert world.role_members("person") == [
        "abe::social", "amy::social", "bob::social", "zed::social"]
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
    cctx = CoordinatorContext(world, "ict", dict(world.states), 1, {}, set())
    for sid in world.role_members("cyber-infrastructure"):
        for label in labels + ["no-such-label"]:
            targets = sorted(to for frm, to, lab in layer.edges if frm == sid and lab == label)
            sources = sorted(frm for frm, to, lab in layer.edges if to == sid and lab == label)
            assert cctx.providers(sid, label) == targets
            assert cctx.dependents(sid, label) == sources


def test_returned_role_members_can_be_mutated_safely():
    world = mixed_world()
    world.finalize()
    members = world.role_members("person")
    expected = list(members)
    members.append("intruder::social")
    members.reverse()
    assert world.role_members("person") == expected


@pytest.mark.parametrize("access, message", [
    (lambda cctx: cctx.get("amy::mobility"),
     "social settlement read state of foreign subagent 'amy::mobility'"),
    (lambda cctx: cctx.set("amy::mobility", {}),
     "social settlement wrote to foreign subagent 'amy::mobility'"),
], ids=["get", "set"])
def test_settlement_reaching_into_another_layer_raises(access, message):
    world = mixed_world()
    world.registry.register_coordinator("social", access)
    world.finalize()
    run = world.start()
    with pytest.raises(KernelError) as err:
        run.step()
    assert type(err.value) is KernelError and str(err.value) == message
    assert run.states["amy::mobility"] == {} and "amy::mobility" not in run.changes


def test_structure_frozen_after_finalize():
    world = mixed_world()
    world.finalize()
    with pytest.raises(BuildError, match="already finalized"):
        world.add_agent("late", [("late::social", "social", "person", {})])
    with pytest.raises(BuildError, match="already finalized"):
        world.add_edge("social", "amy::social", "bob::social", "knows")


def test_runs_share_the_structure_and_own_their_states():
    world = World(1, toy_registry(counter=counter_rules()))
    world.add_agent("a", [("a::ict", "ict", "counter", {})])
    world.finalize()
    with pytest.raises(KernelError, match="not started"):
        world.step()
    first, second = world.start(), world.start()
    first.step()
    first.step()
    second.step()
    assert (first.tick, second.tick) == (2, 1)
    assert first.states["a::ict"]["count"] == 2 and second.states["a::ict"]["count"] == 1
    assert first.records is second.records is world.records
    assert world.states is None
