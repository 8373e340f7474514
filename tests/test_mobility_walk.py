"""The mobility settlement sends the federate only the lights and roadways
changed since the last tick.

Each world is stepped twice: as shipped, and with the settlement replaced
by the reference below, which sends every light's status and every
roadway's params on every tick, as the settlement did before the federate
kept them between ticks.  The worlds see an attack that switches the
center's lights off and, when it ends, on again, and overrides that change
one roadway's capacity and speed mid-run.  Both must hold the same states
on every tick.
"""

import copy

import pytest

from citysim.build import build_world
from citysim.hazards import apply_due
from citysim.routing import shortest_route
from citysim.systems.mobility import ROLE_LIGHT, ROLE_ROADWAY

from conftest import config_from
from test_wake import short_casestudy

ROADWAY = "r_c01::mobility"  # controlled by light_center_1
LIGHT = "light_center_1::mobility"
OVERRIDES = [
    {"tick": 30, "kind": "generic_override", "selector": {"id": ROADWAY},
     "overrides": {"capacity": 2, "free_flow_mps": 6.0}},
    {"tick": 105, "kind": "generic_override", "selector": {"id": ROADWAY},
     "overrides": {"capacity": 40, "free_flow_mps": 12}},
]
# a mitigation the federate must start from
ROADS = [{"selector": {"role": "roadway", "district": "center"},
          "param": "capacity", "op": "scale", "value": 0.5}]


def reference_mobility_settlement(cctx) -> None:
    """Every light's status and every roadway's params on every tick."""
    adapter = cctx.service("traffic")
    graph, place_nodes = cctx.service("street_graph"), cctx.service("place_nodes")
    commands = [{"kind": "light", "light_id": lid, "status": cctx.get(lid)["operation_status"]}
                for lid in cctx.members(ROLE_LIGHT)]
    for rid in cctx.members(ROLE_ROADWAY):
        params = cctx.params(rid)
        commands.append({"kind": "roadway", "roadway_id": rid, "capacity": params["capacity"],
                         "free_flow_mps": params["free_flow_mps"]})
    for cid, origin, dest in cctx.published("trips") or ():
        route = shortest_route(graph, place_nodes[origin], place_nodes[dest])
        if route:
            commands.append({"kind": "route", "vehicle_id": cctx.counterpart(cid, "mobility"),
                             "edges": route})
    adapter.inject(commands)
    adapter.advance(cctx.tick)
    observed = adapter.query()["roadways"]
    for rid in cctx.members(ROLE_ROADWAY):
        mirror = {"mean_speed": observed[rid]["mean_speed"],
                  "intensity": observed[rid]["intensity"]}
        if cctx.get(rid) != mirror:
            cctx.set(rid, mirror)


def with_reference_walk(world):
    world.registry = copy.copy(world.registry)
    world.registry.coordinators = dict(world.registry.coordinators,
                                       mobility=reference_mobility_settlement)
    return world


@pytest.mark.parametrize("variant", ["risk", "roads"])
def test_delta_commands_match_every_tick_commands(variant):
    raw = short_casestudy(OVERRIDES)
    raw["mitigations"]["roads"] = ROADS
    config = config_from(raw)
    schedule = config.schedule()
    shipped = build_world(config, variant)
    reference = with_reference_walk(build_world(config, variant))
    for world in (shipped, reference):
        apply_due(world, 0, schedule)
    lights, speeds = [], []
    while shipped.tick < config.horizon_ticks:
        for world in (shipped, reference):
            world.step()
            apply_due(world, world.tick, schedule)
        assert shipped.states == reference.states, shipped.tick
        lights.append(shipped.states[LIGHT]["operation_status"])
        speeds.append(shipped.states[ROADWAY]["mean_speed"])
    # the light went off and came back on; the cut held the roadway's speed
    # at or below its cut free flow from the tick after it until the restore
    assert lights[0] == "on" and "off" in lights and lights[-1] == "on"
    assert max(speeds[30:105]) <= 6.0 < max(speeds[105:])
