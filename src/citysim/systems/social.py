"""Social and urban-landscape layers: citizens, places, movers, streets.

Citizens follow a precomputed 24-hour schedule (timetable template plus a
per-citizen seeded boundary jitter, fixed at build).  Crossing a window
boundary to a different place puts the citizen in transit for one tick and
emits a trip request that the mobility layer turns into road demand.
Arrivals, place capacity and contact generation are resolved in a single
deterministic settlement pass per tick: every occupant of a place draws a
fixed fan-out of distinct co-occupants, household members in the same home
contact each other deterministically, and all contacts are symmetrized.

The citizen's location string is authoritative ("place:X", "transit",
"hospital:X" or "dead"); the moving-entity subagent mirrors it into the
urban landscape layer for observability, and place occupancy is rebuilt
from those mirrors.
"""

from __future__ import annotations

from ..hazards import param_kind
from ..kernel import CoordinatorContext, Registry, RuleContext, RuleSet

ROLE_CITIZEN = "citizen"
ROLE_PLACE = "place"
ROLE_MOVER = "moving-entity"
ROLE_STREET = "street"
ROLE_FIXED = "fixed-entity"


def _init_citizen(params: dict, stream) -> dict:
    if len(params["schedule"]) != 24:
        raise ValueError("citizen schedule must cover all 24 hours")
    return {
        "location": "place:" + params["home_place"],
        "current_activity": params["schedule"][0][1],
        "trip_pending": None,
        "alive": True,
        "homebound": False,
    }


def citizen_internal(ctx: RuleContext) -> dict | None:
    """Daily activity evolution: act only at this citizen's own timetable
    boundaries, emitting a trip when the new window's place differs.

    Citizens displaced from their schedule (discharged, redirected, or
    recovered from a homebound spell) wait for the next boundary to rejoin
    the routine, so a trip can only ever happen at a tick where the
    undisturbed timetable also travels.
    """
    state = ctx.state
    location = state["location"]
    if not state["alive"] or state["homebound"] or not location.startswith("place:"):
        return None  # dead, sick-at-home, hospitalized or in transit
    schedule = ctx.params["schedule"]
    hour = ctx.tick % 24
    target, activity = schedule[hour]
    if target == schedule[(hour - 1) % 24][0]:
        return None  # mid-window: hold position until the next boundary
    current = location[6:]
    if target == current:
        if activity == state["current_activity"]:
            return None
        new = dict(state)
        new["current_activity"] = activity
        return new
    new = dict(state)
    new.update(
        location="transit",
        current_activity=activity,
        trip_pending={"origin": current, "dest": target, "depart": ctx.tick},
    )
    return new


def citizen_coupling(ctx: RuleContext) -> dict | None:
    """Sync health status from the patient sibling into social state.

    Death is absorbing; hospitalization parks the citizen at the hospital;
    severe/critical illness and convalescence keep the citizen home.
    """
    sib = ctx.sibling("healthcare")
    state = ctx.state
    if sib is None or not state["alive"]:
        return None
    _, pst = sib
    home = "place:" + ctx.params["home_place"]
    if pst["infection"] == "dead":
        new = dict(state)
        new.update(location="dead", alive=False, trip_pending=None, homebound=False)
        return new
    if pst["located_in"] is not None:
        loc = "hospital:" + pst["located_in"]
        if state["location"] == loc:
            return None
        new = dict(state)
        new.update(location=loc, trip_pending=None)
        return new
    homebound = (
        pst["severity"] in ("severe", "critical") or pst["rest_until"] > ctx.tick
    )
    new = None
    if state["location"].startswith("hospital:"):
        new = dict(state)
        new.update(location=home, trip_pending=None, homebound=homebound)
    elif homebound and state["location"] != home:
        # too sick to stay out: head straight home
        new = dict(state)
        new.update(location=home, trip_pending=None, homebound=True,
                   current_activity="rest")
    elif homebound != state["homebound"]:
        new = dict(state)
        new["homebound"] = homebound
    return new


def social_settlement(cctx: CoordinatorContext) -> None:
    """Arrivals, place capacity and contact generation, in citizen id order.

    Publishes the symmetric contact graph as ``contacts``: citizen id ->
    ascending tuple of contact citizen ids, for citizens with any contact.
    """
    citizens = cctx.members(ROLE_CITIZEN)
    if not citizens:
        return
    occupancy: dict[str, int] = {}
    placed: list[tuple[str, str]] = []  # (citizen, place) after settlement
    for cid in citizens:
        st = cctx.get(cid)
        if st["location"].startswith("place:"):
            occupancy[st["location"][6:]] = occupancy.get(st["location"][6:], 0) + 1
    for cid in citizens:
        st = cctx.get(cid)
        trip = st["trip_pending"]
        if st["location"] == "transit" and trip is not None and trip["depart"] < cctx.tick:
            dest = trip["dest"]
            home = cctx.params(cid)["home_place"]
            capacity = _place_capacity(cctx, dest)
            if dest != home and capacity is not None and occupancy.get(dest, 0) >= capacity:
                cctx.log(f"{cid} redirected home: {dest} at capacity")
                dest = home
            occupancy[dest] = occupancy.get(dest, 0) + 1
            new = dict(st)
            new.update(location="place:" + dest, trip_pending=None)
            cctx.set(cid, new)
    by_place: dict[str, list[str]] = {}
    for cid in citizens:
        st = cctx.get(cid)
        if st["location"].startswith("place:"):
            by_place.setdefault(st["location"][6:], []).append(cid)
            placed.append((cid, st["location"][6:]))
    contacts: dict[str, set[str]] = {cid: set() for cid in citizens}
    for place in sorted(by_place):
        occupants = by_place[place]
        n = len(occupants)
        if n < 2:
            continue
        for idx, cid in enumerate(occupants):
            k = min(cctx.params(cid)["contact_k"], n - 1)
            if k <= 0:
                continue
            rng = cctx.rng(cid, "contacts")
            for j in rng.sample_distinct(n - 1, k):
                other = occupants[j if j < idx else j + 1]
                contacts[cid].add(other)
                contacts[other].add(cid)
    for cid, place in placed:
        params = cctx.params(cid)
        if place != params["home_place"]:
            continue
        for member in params["household"]:
            mst = cctx.get(member)
            if mst["location"] == "place:" + place and mst["alive"]:
                contacts[cid].add(member)
                contacts[member].add(cid)
    cctx.publish("contacts", {cid: tuple(sorted(c)) for cid, c in contacts.items() if c})


def _place_capacity(cctx: CoordinatorContext, place_id: str) -> int | None:
    sid = place_id + "::urban_landscape"
    try:
        return cctx.params(sid).get("capacity")
    except KeyError:
        return None


# -- urban landscape -----------------------------------------------------

def _init_place(params: dict, stream) -> dict:
    capacity = params.get("capacity")  # None: unlimited
    if capacity is not None and param_kind(capacity) != "number":
        raise ValueError(f"place capacity {capacity!r} is not a number")
    if capacity is not None and capacity < 0:
        raise ValueError(f"place capacity {capacity} is negative")
    return {"occupancy": 0, "occupants": ()}


def _init_mover(params: dict, stream) -> dict:
    return {"current_place": "place:" + params["home_place"]}


def _init_static(params: dict, stream) -> dict:
    return {}


def mover_coupling(ctx: RuleContext) -> dict | None:
    sib = ctx.sibling("social")
    if sib is None:
        return None
    location = sib[1]["location"]
    if location == ctx.state["current_place"]:
        return None
    return {"current_place": location}


def urban_settlement(cctx: CoordinatorContext) -> None:
    """Rebuild place occupancy from the moving-entity mirrors (one tick behind)."""
    places = cctx.members(ROLE_PLACE)
    if not places:
        return
    groups: dict[str, list[str]] = {}
    for mid in cctx.members(ROLE_MOVER):
        loc = cctx.get(mid)["current_place"]
        if loc.startswith("place:"):
            groups.setdefault(loc[6:], []).append(mid)
    for sid in places:
        place_id = cctx.params(sid)["place_id"]
        occupants = tuple(groups.get(place_id, ()))
        state = cctx.get(sid)
        if state["occupants"] != occupants:
            cctx.set(sid, {"occupancy": len(occupants), "occupants": occupants})


def _observe_citizen(record) -> list[tuple[str, object]]:
    return [("current_activity", record.state["current_activity"])]


def _observe_mover(record) -> list[tuple[str, object]]:
    return [("current_place", record.state["current_place"])]


def _observe_place(record) -> list[tuple[str, object]]:
    return [("occupancy", record.state["occupancy"])]


def _observe_nothing(record) -> list[tuple[str, object]]:
    return []


PARTITION = ("in_place", "in_transit", "hospitalized", "dead")  # count_partition's counts


def count_partition(states: dict, citizens: list[str]) -> tuple[int, int, int, int, list[str]]:
    """The population partition: how many citizens are in a place, in
    transit, in hospital and dead, and the citizens whose location is none
    of these (in limbo)."""
    in_place = in_transit = hospitalized = dead = 0
    limbo = []
    for sid in citizens:
        location = states[sid]["location"]
        if location.startswith("place:"):
            in_place += 1
        elif location == "transit":
            in_transit += 1
        elif location.startswith("hospital:"):
            hospitalized += 1
        elif location == "dead":
            dead += 1
        else:
            limbo.append(sid)
    return in_place, in_transit, hospitalized, dead, limbo


def _aggregate_social(world) -> list[tuple[str, object]]:
    citizens = world.layer_role_order.get(("social", ROLE_CITIZEN))
    if not citizens:
        return []
    *counts, _ = count_partition(world.states, citizens)
    return [*zip(PARTITION, counts), ("population", len(citizens))]


def _aggregate_urban(world) -> list[tuple[str, object]]:
    places = world.layer_role_order.get(("urban_landscape", ROLE_PLACE))
    if not places:
        return []
    return [("total_place_occupancy", sum(world.states[s]["occupancy"] for s in places))]


def register(registry: Registry) -> None:
    registry.register_role(ROLE_CITIZEN, RuleSet(
        init_state=_init_citizen,
        internal=citizen_internal,
        coupling=citizen_coupling,
        observe=_observe_citizen,
    ))
    registry.register_role(ROLE_PLACE, RuleSet(
        init_state=_init_place,
        observe=_observe_place,
    ))
    registry.register_role(ROLE_MOVER, RuleSet(
        init_state=_init_mover,
        coupling=mover_coupling,
        observe=_observe_mover,
    ))
    registry.register_role(ROLE_STREET, RuleSet(
        init_state=_init_static,
        observe=_observe_nothing,
    ))
    registry.register_role(ROLE_FIXED, RuleSet(
        init_state=_init_static,
        observe=_observe_nothing,
    ))
    registry.register_coordinator("social", social_settlement)
    registry.register_coordinator("urban_landscape", urban_settlement)
    registry.register_aggregator("social", _aggregate_social)
    registry.register_aggregator("urban_landscape", _aggregate_urban)
