"""Mobility layer: passengers, roadways, traffic lights, and the federate glue.

Trip requests from the social layer become vehicle routes: the settlement
pass computes the shortest path over the street graph, injects routes and
traffic-light set-state commands into the federated traffic simulator,
advances it in lockstep with the kernel tick, and mirrors the queried
observables (per-roadway mean speed and intensity, light status) back into
the roadway meta-subagents.  Vehicles themselves live inside the federate;
only their aggregate effect is mirrored.
"""

from __future__ import annotations

from ..kernel import CoordinatorContext, Registry, RuleContext, RuleSet
from ..routing import StreetGraph, shortest_route

ROLE_PASSENGER = "passenger"
ROLE_ROADWAY = "roadway"
ROLE_LIGHT = "traffic-light"

EDGE_CONTROLS = "controls"


def _init_passenger(params: dict, stream) -> dict:
    return {"route_request": None}


def _init_roadway(params: dict, stream) -> dict:
    return {
        "mean_speed": params["free_flow_mps"],
        "intensity": 0,
        "occupancy": 0,
    }


def _init_light(params: dict, stream) -> dict:
    return {"operation_status": "on"}


def passenger_coupling(ctx: RuleContext) -> dict | None:
    """Pick up a trip the citizen sibling started this tick."""
    sib = ctx.sibling("social")
    if sib is None:
        return None
    trip = sib[1]["trip_pending"]
    if trip is None or trip["depart"] != ctx.tick:
        return None
    return {"route_request": {"origin": trip["origin"], "dest": trip["dest"]}}


def light_coupling(ctx: RuleContext) -> dict | None:
    """A light operates exactly while its controller node is effectively up."""
    sib = ctx.sibling("ict")
    if sib is None:
        return None
    status = "on" if sib[1]["effective_available"] else "off"
    if status == ctx.state["operation_status"]:
        return None
    return {"operation_status": status}


def memo_route(graph: StreetGraph, origin: str, dest: str) -> list[str] | None:
    """``shortest_route`` memoized on the graph, no-route results included.
    The returned list is shared: never mutate it."""
    key = (origin, dest)
    if key not in graph.routes:
        graph.routes[key] = shortest_route(graph, origin, dest)
    return graph.routes[key]


def mobility_settlement(cctx: CoordinatorContext) -> None:
    """Route insertion, lockstep advance, and observable mirroring."""
    try:
        adapter = cctx.service("traffic")
    except KeyError:
        return
    graph = cctx.service("street_graph")
    place_nodes = cctx.service("place_nodes")
    commands: list[dict] = []
    for lid in cctx.members(ROLE_LIGHT):
        commands.append({
            "kind": "light", "light_id": lid,
            "status": cctx.get(lid)["operation_status"],
        })
    for pid in cctx.members(ROLE_PASSENGER):
        request = cctx.get(pid)["route_request"]
        if request is None:
            continue
        origin = place_nodes.get(request["origin"])
        dest = place_nodes.get(request["dest"])
        if origin is None or dest is None:
            cctx.log(f"trip dropped for {pid}: unknown place node")
        elif origin != dest:
            route = memo_route(graph, origin, dest)
            if route is None:
                cctx.log(f"trip dropped for {pid}: no route {origin} -> {dest}")
            elif route:
                commands.append({"kind": "route", "vehicle_id": pid, "edges": route})
        cctx.set(pid, {"route_request": None})
    adapter.inject(commands)
    adapter.advance(cctx.tick)
    observed = adapter.query()
    for rid in cctx.members(ROLE_ROADWAY):
        mirror = observed["roadways"][rid]
        state = cctx.get(rid)
        if (state["mean_speed"] != mirror["mean_speed"]
                or state["intensity"] != mirror["intensity"]
                or state["occupancy"] != mirror["occupancy"]):
            cctx.set(rid, {
                "mean_speed": mirror["mean_speed"],
                "intensity": mirror["intensity"],
                "occupancy": mirror["occupancy"],
            })


def _observe_passenger(record) -> list[tuple[str, object]]:
    return []


def _observe_roadway(record) -> list[tuple[str, object]]:
    if not record.params.get("station"):
        return []
    state = record.state
    return [("mean_speed", state["mean_speed"]), ("intensity", state["intensity"])]


def _observe_light(record) -> list[tuple[str, object]]:
    return [("operation_status", 1 if record.state["operation_status"] == "on" else 0)]


def _aggregate(world) -> list[tuple[str, object]]:
    stations = [
        sid for sid in world.layer_role_order.get(("mobility", ROLE_ROADWAY), ())
        if world.records[sid].params.get("station")
    ]
    if not stations:
        return []
    speeds = [world.states[s]["mean_speed"] for s in stations]
    return [
        ("mean_station_speed", sum(speeds) / len(speeds)),
        ("total_intensity", sum(world.states[s]["intensity"] for s in stations)),
    ]


def register(registry: Registry) -> None:
    registry.register_role(ROLE_PASSENGER, RuleSet(
        init_state=_init_passenger,
        coupling=passenger_coupling,
        observe=_observe_passenger,
    ))
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
