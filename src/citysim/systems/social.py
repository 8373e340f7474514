"""Social and urban-landscape layers: citizens, places, movers, streets.

Citizens follow a precomputed 24-hour schedule (timetable template plus a
per-citizen seeded boundary jitter, fixed at build).  Crossing a window
boundary to a different place puts the citizen in transit for one tick and
starts a trip.  The social settlement advances the layer in one walk, in
id order, over the citizens whose placement may change this tick: each
takes its timetable step, then its trip is recorded, its arrival
collected or its move between places noted.  The arrivals are then placed
in id order against place capacity.  The settlement publishes the tick's
trips, which the mobility layer turns into road demand (a citizen's
passenger subagent is only its vehicle id and has no state), and its
``Placement``: each place's occupants, whom the urban landscape layer
counts into its places, and contacts, drawn per place only where
transmission asks: every occupant draws a fixed fan-out of distinct
co-occupants, household members at home contact each other, and all
contacts are symmetrized.

The walked citizens are, after the first tick (every citizen), those at
one of their schedule's boundaries at this hour (an index built once per
structure from the schedules as built), last tick's travellers, the
citizens changed outside the settlements (moved by coupling, or their
params changed) and the citizens whose schedule is not the one built,
walked every tick.  Any other citizen is mid-window, or off its routine
until its next boundary, so its step would leave it where it is.  The
placement carries the rest of last tick's forward: its occupant lists
are copied only for the places a walked citizen leaves or enters, so a
published list is never written, and the urban landscape settlement
writes only those places.

The citizen's location string is authoritative ("place:X", "transit",
"hospital:X" or "dead").  The moving-entity subagent is the citizen in the
urban landscape layer; it is structure only, with no state and no params.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from ..kernel import STATELESS, CoordinatorContext, Registry, RuleContext, RuleSet, Stream

ROLE_CITIZEN = "citizen"
ROLE_PLACE = "place"
ROLE_MOVER = "moving-entity"
ROLE_STREET = "street"
ROLE_FIXED = "fixed-entity"


def _init_citizen(params: dict) -> dict:
    return {
        "location": "place:" + params["home_place"],
        "current_activity": params["schedule"][0][1],
        "trip_pending": None,
        "homebound": False,
    }


def _timetable_step(state: dict, schedule: list, tick: int) -> dict:
    """Daily activity evolution: act only at this citizen's own timetable
    boundaries, emitting a trip when the new window's place differs.

    Citizens displaced from their schedule (discharged, redirected, or
    recovered from a homebound spell) wait for the next boundary to rejoin
    the routine, so a trip can only ever happen at a tick where the
    undisturbed timetable also travels.
    """
    location = state["location"]
    if state["homebound"] or not location.startswith("place:"):
        return state  # dead, sick-at-home, hospitalized or in transit
    hour = tick % 24
    target, activity = schedule[hour]
    if target == schedule[(hour - 1) % 24][0]:
        return state  # mid-window: hold position until the next boundary
    current = location[6:]
    if target == current:
        if activity == state["current_activity"]:
            return state
        return dict(state, current_activity=activity)
    return dict(state, location="transit", current_activity=activity,
                trip_pending={"origin": current, "dest": target, "depart": tick})


def citizen_coupling(ctx: RuleContext) -> dict | None:
    """Sync health status from the patient sibling into social state.

    Death is absorbing; hospitalization parks the citizen at the hospital;
    severe/critical illness and convalescence keep the citizen home.
    """
    pst = ctx.sibling("healthcare")
    state = ctx.state
    if pst is None or state["location"] == "dead":
        return None
    home = "place:" + ctx.params["home_place"]
    if pst["infection"] == "dead":
        new = dict(state)
        new.update(location="dead", trip_pending=None, homebound=False)
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


class Placement:
    """Where the social settlement placed citizens at ``tick``: each place's
    ``occupants`` in citizen id order, and the places whose occupant list
    this placement replaced, ``moved`` (None: every place, as at the first
    placement).  The next tick's settlement carries the placement forward
    and copies a list before it changes it, so no published list is ever
    written.  A place's contact graph is drawn the first time it is asked
    for, from the params and streams its occupants had when placed, so no
    question order shows."""

    def __init__(self, tick: int, occupants: dict[str, list[str]],
                 placed: dict[str, tuple[str, dict, Stream]],
                 moved: set[str] | None = None, rescheduled: frozenset[str] = frozenset()):
        self.tick, self.occupants, self.moved = tick, occupants, moved
        self._placed = placed  # citizen -> (place, params, stream)
        self._rescheduled = rescheduled  # citizens off the built schedules' boundary index
        self._contacts: dict[str, tuple[str, ...]] = {}  # of the places drawn so far

    def contacts(self, cid: str | None) -> tuple[str, ...]:
        """The citizen's contacts in ascending id order; () if it was not placed."""
        if cid not in self._contacts and cid in self._placed:
            self._draw(self._placed[cid][0])
        return self._contacts.get(cid, ())

    def _draw(self, place: str) -> None:
        # a household member at home adds its side of a pair; the other, the reverse
        occupants = self.occupants[place]
        n = len(occupants)
        graph: dict[str, set[str]] = {cid: set() for cid in occupants}
        for idx, cid in enumerate(occupants):
            _, params, stream = self._placed[cid]
            k = min(round(params["contact_k"]), n - 1)  # half to even: a scale may make it a float
            if k > 0:
                for j in stream.at(self.tick, "contacts").sample_distinct(n - 1, k):
                    other = occupants[j if j < idx else j + 1]
                    graph[cid].add(other)
                    graph[other].add(cid)
            if place == params["home_place"]:
                graph[cid].update(m for m in params["household"] if m in graph)
        self._contacts.update((cid, tuple(sorted(c))) for cid, c in graph.items())


def _boundaries(cctx: CoordinatorContext) -> list[list[str]]:
    """Per hour of the day, the citizens whose schedule as built changes
    place at that hour, the only hours ``_timetable_step`` acts at."""
    hours: list[list[str]] = [[] for _ in range(24)]
    for cid in cctx.members(ROLE_CITIZEN):
        schedule = cctx.built(cid)["schedule"]
        previous = schedule[-1][0]
        for hour, (place, _) in enumerate(schedule):
            if place != previous:
                hours[hour].append(cid)
            previous = place
    return hours


def social_settlement(cctx: CoordinatorContext) -> None:
    """Timetable steps, trips, arrivals and place capacity, in citizen id
    order, over the citizens whose placement may change this tick.

    The first tick walks every citizen.  Each later tick walks the
    citizens at a timetable boundary at this hour, last tick's travellers
    (who arrive now), the citizens changed outside the settlements and the
    rescheduled ones (a schedule other than the one built, walked every
    tick); any other citizen would come out of the walk as it went in.
    The walk applies each one's timetable step, records the trips that
    start this tick, collects the arrivals and moves the rest between the
    occupant lists carried over from last tick's placement.  The arrivals
    are then placed in id order, each against the occupancy so far, and
    inserted into their place's occupants in id order.  Publishes the trips
    as ``trips``: (citizen id, origin place, dest place) in citizen id
    order; and where the citizens are after this tick's arrivals as
    ``placement``, a ``Placement``.
    """
    citizens = cctx.members(ROLE_CITIZEN)
    if not citizens:
        return
    tick = cctx.tick
    last = cctx.published("placement")
    if last is None:  # every citizen counts as changed
        changed, rescheduled, occupants, placed = citizens, frozenset(), {}, {}
    else:
        changed, rescheduled = cctx.changed_outside(ROLE_CITIZEN), last._rescheduled
        occupants, placed = dict(last.occupants), dict(last._placed)
    rescheduled = rescheduled.union(
        cid for cid in changed if cctx.params(cid)["schedule"] is not cctx.built(cid)["schedule"])
    walk = citizens if last is None else sorted(rescheduled.union(
        changed, cctx.derived("social_boundaries", lambda: _boundaries(cctx))[tick % 24],
        (cid for cid, _, _ in cctx.published("trips"))))
    moved: set[str] = set()

    def occupants_of(place: str) -> list[str]:
        # the place's occupant list, copied before its first change
        if place not in moved:
            moved.add(place)
            occupants[place] = list(occupants.get(place, ()))
        return occupants[place]

    trips: list[tuple[str, str, str]] = []
    arrivals: list[tuple[str, dict, dict]] = []  # in transit with a trip: (id, state, params)
    for cid in walk:
        before = cctx.get(cid)
        params = cctx.params(cid)
        st = _timetable_step(before, params["schedule"], tick)
        if st is not before:
            cctx.set(cid, st)
        location, trip = st["location"], st["trip_pending"]
        if trip is not None and trip["depart"] == tick:
            trips.append((cid, trip["origin"], trip["dest"]))
        elif location == "transit" and trip is not None:
            arrivals.append((cid, st, params))
        old = placed.pop(cid, (None,))[0]
        place = location[6:] if location.startswith("place:") else None
        if old != place:
            if old is not None:
                left = occupants_of(old)
                del left[bisect_left(left, cid)]
            if place is not None:
                insort(occupants_of(place), cid)
        if place is not None:
            placed[cid] = (place, params, cctx.stream(cid))
    subagents = _place_subagents(cctx)
    for cid, st, params in arrivals:
        dest = st["trip_pending"]["dest"]
        sid = subagents.get(dest)
        capacity = None if sid is None else cctx.params(sid)["capacity"]
        if dest != params["home_place"] and capacity is not None \
                and len(occupants.get(dest, ())) >= capacity:
            cctx.log(f"{cid} redirected home: {dest} at capacity")
            dest = params["home_place"]
        insort(occupants_of(dest), cid)
        placed[cid] = (dest, params, cctx.stream(cid))
        cctx.set(cid, dict(st, location="place:" + dest, trip_pending=None))
    for place in moved:
        if not occupants[place]:
            del occupants[place]
    cctx.publish("trips", tuple(trips))
    cctx.publish("placement", Placement(tick, occupants, placed,
                                        None if last is None else moved, rescheduled))


def _place_subagents(cctx: CoordinatorContext) -> dict[str, str]:
    """Place id -> its place subagent, in subagent id order."""
    return cctx.derived("place_subagents", lambda: {
        cctx.agent_id(sid): sid for sid in cctx.members(ROLE_PLACE, "urban_landscape")})


# -- urban landscape -----------------------------------------------------

def _init_place(params: dict) -> dict:
    return {"occupancy": 0}


def urban_settlement(cctx: CoordinatorContext) -> None:
    """Write each place's occupancy from the social settlement's last
    ``placement`` (one tick behind).  Before the first, every citizen is at
    its home, so each moving entity is counted at the home its citizen's
    run params name.  Every place is written from the first placement and
    before it; after it, only the places whose occupant list the placement
    replaced (``moved``) and the places changed outside the settlements,
    for the others' lists are those of the placement before."""
    places = cctx.members(ROLE_PLACE)
    if not places:
        return
    subagents = _place_subagents(cctx)
    placement = cctx.published("placement")
    if placement is None:
        occupants: dict[str, list[str]] = {}
        for mid in cctx.members(ROLE_MOVER):
            home = cctx.params(cctx.counterpart(mid, "social"))["home_place"]
            occupants.setdefault(home, []).append(mid)
    else:
        occupants = placement.occupants
    if placement is None or placement.moved is None:
        write = subagents
    else:
        write = sorted(placement.moved.union(
            cctx.agent_id(sid) for sid in cctx.changed_outside(ROLE_PLACE)))
    for place in write:
        sid = subagents.get(place)
        if sid is None:
            continue  # a place no place subagent stands for
        occupancy = len(occupants.get(place, ()))
        if cctx.get(sid)["occupancy"] != occupancy:
            cctx.set(sid, {"occupancy": occupancy})


def _observe_citizen(state, params) -> list[tuple[str, object]]:
    return [("current_activity", state["current_activity"])]


def _observe_place(state, params) -> list[tuple[str, object]]:
    return [("occupancy", state["occupancy"])]


PARTITION = ("in_place", "in_transit", "hospitalized", "dead")  # partition_class's parts


def partition_class(state: dict) -> str | None:
    """The part of the population partition a citizen's state is in, or
    None if its location is none of them (in limbo)."""
    location = state["location"]
    if location.startswith("place:"):
        return "in_place"
    if location == "transit":
        return "in_transit"
    if location.startswith("hospital:"):
        return "hospitalized"
    return "dead" if location == "dead" else None


def _aggregate_social(world, tallies) -> list[tuple[str, object]]:
    counts = tallies.get(ROLE_CITIZEN)
    if counts is None:
        return []
    return [*((part, counts[part]) for part in PARTITION),
            ("population", sum(counts.values()))]


def _aggregate_urban(world, tallies) -> list[tuple[str, object]]:
    counts = tallies.get(ROLE_PLACE)
    if counts is None:
        return []
    return [("total_place_occupancy", sum(occupancy * n for occupancy, n in counts.items()))]


def register(registry: Registry) -> None:
    registry.register_role(ROLE_CITIZEN, RuleSet(
        init_state=_init_citizen,
        coupling=citizen_coupling,
        observe=_observe_citizen,
        tally=partition_class,
    ))
    registry.register_role(ROLE_PLACE, RuleSet(
        init_state=_init_place,
        observe=_observe_place,
        tally=lambda state: state["occupancy"],
    ))
    registry.register_role(ROLE_MOVER, STATELESS)
    registry.register_role(ROLE_STREET, STATELESS)
    registry.register_role(ROLE_FIXED, STATELESS)
    registry.register_coordinator("social", social_settlement)
    registry.register_coordinator("urban_landscape", urban_settlement)
    registry.register_aggregator("social", _aggregate_social)
    registry.register_aggregator("urban_landscape", _aggregate_urban)
