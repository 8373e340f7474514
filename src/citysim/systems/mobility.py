"""Mobility layer: passengers, roadways, traffic lights, and the federate glue.

The trips the social settlement published in the previous tick become
vehicle routes: the settlement pass takes each trip's shortest path over
the street graph (one search per origin, kept on the graph for every later
trip from it), injects routes, traffic-light set-state and roadway commands
into the federated traffic simulator, advances it in lockstep with the
kernel tick, and mirrors the queried observables (per-roadway mean speed
and intensity, light status) back into the roadway meta-subagents.  A
passenger is structure only: its id is the citizen's vehicle id, and it has
no state and no params.  Vehicles themselves live inside the federate;
only their aggregate effect is mirrored.  The federate starts from the
run's params, after any mitigation, and keeps each light's status and each
roadway's capacity and free-flow speed between ticks; a tick sends it only
the lights and roadways changed outside the settlements (a light's
coupling, a hazard's override).  Route costs stay as built.
"""

from __future__ import annotations

from ..kernel import STATELESS, CoordinatorContext, Registry, RuleContext, RuleSet
from ..routing import shortest_route

ROLE_PASSENGER = "passenger"
ROLE_ROADWAY = "roadway"
ROLE_LIGHT = "traffic-light"

EDGE_CONTROLS = "controls"


def _init_roadway(params: dict) -> dict:
    return {"mean_speed": params["free_flow_mps"], "intensity": 0}


def _init_light(params: dict) -> dict:
    return {"operation_status": "on"}


def light_coupling(ctx: RuleContext) -> dict | None:
    """A light operates exactly while its controller node is effectively up."""
    node = ctx.sibling("ict")
    if node is None:
        return None
    status = "on" if node["effective_available"] else "off"
    if status == ctx.state["operation_status"]:
        return None
    return {"operation_status": status}


def mobility_settlement(cctx: CoordinatorContext) -> None:
    """Route insertion for last tick's trips, the lights and roadways
    changed since the last tick, lockstep advance, and observable
    mirroring; a trip of a citizen without a passenger is skipped."""
    try:
        adapter = cctx.service("traffic")
    except KeyError:
        return
    graph = cctx.service("street_graph")
    place_nodes = cctx.service("place_nodes")
    commands: list[dict] = []
    for lid in sorted(cctx.changed_outside(ROLE_LIGHT)):
        commands.append({
            "kind": "light", "light_id": lid,
            "status": cctx.get(lid)["operation_status"],
        })
    for rid in sorted(cctx.changed_outside(ROLE_ROADWAY)):
        params = cctx.params(rid)
        commands.append({
            "kind": "roadway", "roadway_id": rid,
            "capacity": params["capacity"], "free_flow_mps": params["free_flow_mps"],
        })
    for cid, origin_place, dest_place in cctx.published("trips") or ():
        vid = cctx.counterpart(cid, "mobility")
        if vid is None:
            continue
        origin = place_nodes.get(origin_place)
        dest = place_nodes.get(dest_place)
        if origin is None or dest is None:
            cctx.log(f"trip dropped for {vid}: unknown place node")
        elif origin != dest:
            route = shortest_route(graph, origin, dest)
            if route is None:
                cctx.log(f"trip dropped for {vid}: no route {origin} -> {dest}")
            elif route:
                commands.append({"kind": "route", "vehicle_id": vid, "edges": route})
    adapter.inject(commands)
    adapter.advance(cctx.tick)
    observed = adapter.query()
    for rid in cctx.members(ROLE_ROADWAY):
        mirror = observed["roadways"][rid]
        state = cctx.get(rid)
        if (state["mean_speed"] != mirror["mean_speed"]
                or state["intensity"] != mirror["intensity"]):
            cctx.set(rid, {"mean_speed": mirror["mean_speed"],
                           "intensity": mirror["intensity"]})


def _observe_roadway(state, params) -> list[tuple[str, object]]:
    if not params["station"]:
        return []
    return [("mean_speed", state["mean_speed"]), ("intensity", state["intensity"])]


def _observe_light(state, params) -> list[tuple[str, object]]:
    return [("operation_status", 1 if state["operation_status"] == "on" else 0)]


def _aggregate(world, tallies) -> list[tuple[str, object]]:
    stations = [
        sid for sid in world.layer_role_order.get(("mobility", ROLE_ROADWAY), ())
        if world.params[sid]["station"]
    ]
    if not stations:
        return []
    speeds = [world.states[s]["mean_speed"] for s in stations]
    return [
        ("mean_station_speed", sum(speeds) / len(speeds)),
        ("total_intensity", sum(world.states[s]["intensity"] for s in stations)),
    ]


def register(registry: Registry) -> None:
    registry.register_role(ROLE_PASSENGER, STATELESS)
    registry.register_role(ROLE_ROADWAY, RuleSet(
        init_state=_init_roadway,
        observe=_observe_roadway,
    ))
    registry.register_role(ROLE_LIGHT, RuleSet(
        init_state=_init_light,
        coupling=light_coupling,
        observe=_observe_light,
    ))
    registry.register_coordinator("mobility", mobility_settlement)
    registry.register_aggregator("mobility", _aggregate)
