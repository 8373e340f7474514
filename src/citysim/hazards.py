"""Scheduled hazardous events applied as parameter variations on subagents.

Events fire at their trigger tick, right after the step that produced the
tick and before metrics are observed.  Overrides rewrite parameters on
every matched subagent and persist; any recovery behavior belongs to the
domain rules themselves.  Every change an event makes reaches the kernel
through ``World.change``, so the rules that read a target run at the next
step.  Two event kinds carry extra dispatch behavior:
``cyberattack`` arms an attacker subagent, ``disease_seed`` infects a
seeded selection of patients.

``change_params`` is the one rule for every parameter change, a hazard
override here or a mitigation op at build.  It writes into a params map, a
run's own or a scratch one that ``validate`` uses, and never into the params
a record was built with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .kernel import World

KINDS = ("cyberattack", "disease_seed", "generic_override")
# the role every target of a dispatching kind must have
TARGET_ROLES = {"cyberattack": "cyber-attacker", "disease_seed": "patient"}
# the parameters that name ids: the role of what they name, the suffix that
# makes a named id a subagent's (a place is named by its agent's id) and the
# ids a value names
ID_PARAMS = {"home_place": ("place", "::urban_landscape", lambda value: [value]),
             "schedule": ("place", "::urban_landscape", lambda value: [p for p, _ in value]),
             "home_hospital": ("hospital", "", lambda value: [] if value is None else [value]),
             "referral_peers": ("hospital", "", list),
             "household": ("citizen", "", list)}
# read only as the structure was built: a district by selectors, an initial
# infection at a run's start (seeding an epidemic is disease_seed's job)
AS_BUILT = ("district", "initially_infected")


class HazardError(Exception):
    pass


@dataclass(frozen=True)
class HazardEvent:
    index: int
    trigger_tick: int
    kind: str
    selector: dict
    overrides: dict
    payload: dict

    @property
    def changes(self) -> list[tuple[str, str, object]]:
        """An override sets each named parameter."""
        return [(name, "set", value) for name, value in self.overrides.items()]


@dataclass
class HazardSchedule:
    """Time-ordered event list; ties on trigger tick keep declaration order."""

    events: list[HazardEvent] = field(default_factory=list)

    @classmethod
    def from_config(cls, entries: list[dict], ticks_per_day: int) -> "HazardSchedule":
        events = []
        for i, entry in enumerate(entries):
            if "tick" in entry:
                tick = int(entry["tick"])
            else:
                tick = int(entry["day"]) * ticks_per_day
            events.append(HazardEvent(
                index=i,
                trigger_tick=tick,
                kind=entry["kind"],
                selector=dict(entry.get("selector", {})),
                overrides=dict(entry.get("overrides", {})),
                payload=dict(entry.get("payload", {})),
            ))
        events.sort(key=lambda e: (e.trigger_tick, e.index))
        return cls(events)

    def due(self, tick: int) -> list[HazardEvent]:
        return [e for e in self.events if e.trigger_tick == tick]


def resolve_selector(world: World, selector: dict) -> list[str]:
    """Matched subagent ids, sorted.  Supports id / role / district keys, on
    the structure as built, so validation and every run match the same
    subagents; a selector that matches nothing raises HazardError."""
    if "id" in selector:
        matched = [selector["id"]] if selector["id"] in world.records else []
    else:
        want_role, want_district = selector.get("role"), selector.get("district")
        matched = sorted(world.records) if want_role is None else world.role_members(want_role)
        if want_district is not None:
            matched = [sid for sid in matched
                       if world.records[sid].params.get("district") == want_district]
    if not matched:
        raise HazardError(f"selector {selector!r} matches no subagent")
    return matched


def param_kind(value) -> str:
    """Type class of a parameter value; a bool never counts as a number."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _kind_error(current, op: str, value) -> str | None:
    """Why ``op`` may not change a parameter holding ``current`` by ``value``:
    a set keeps the parameter's kind unless it is unset (None), a scale
    multiplies a number by a number."""
    have, got = param_kind(current), param_kind(value)
    if op == "scale":
        return None if have == got == "number" else f"cannot scale {have} by {got}"
    return None if current is None or have == got else f"expected {have}, got {got}"


def _unknown_id(world: World, name: str, value) -> str | None:
    """The first id a parameter's value names that the structure lacks."""
    named, suffix, ids = ID_PARAMS[name]
    for ident in ids(value):
        record = world.records.get(ident + suffix) if type(ident) is str else None
        if record is None or record.role != named:
            return f"no {named} {ident!r}"
    return None


def change_params(world: World, params: dict[str, dict], targets: list[str],
                  changes: list[tuple[str, str, object]]) -> None:
    """Apply ``(param, "set" | "scale", value)`` changes in order to every
    target's entry in ``params``, a run's map or a scratch one.  Each target
    gets a changed copy of its dict, so a dict the map shares, such as a
    record's, is never written.  The one rule for every hazard override and
    mitigation op: a run reads the parameter, and not only as built; the
    change fits its kind; the changed value fits the spec of the document
    field the parameter is built from (``PARAM_SPECS``; any number fits a
    numeric one); and each id it names is one of the structure's.  Raises
    HazardError at the first change that breaks it."""
    if not changes:
        return
    from .scenario import PARAM_SPECS  # the scenario module imports this one

    for sid in targets:
        own = params[sid] = dict(params[sid])
        specs = PARAM_SPECS.get(world.records[sid].role, {})
        for name, op, value in changes:
            problem = ("unknown parameter" if name not in own
                       else "read only as built" if name in AS_BUILT
                       else _kind_error(own[name], op, value))
            if problem is None:
                own[name] = value if op == "set" else own[name] * value
                if name in specs:
                    problem = specs[name].problem(own[name], any_number=True)
                if problem is None and name in ID_PARAMS:
                    problem = _unknown_id(world, name, own[name])
            if problem:
                raise HazardError(f"override {name!r} on {sid!r}: {problem}")


def validate(schedule: HazardSchedule, world: World) -> list[str]:
    """Static checks; returns an error list and never raises.  Overrides
    apply, in schedule order, to a scratch map of the params as built."""
    errors = []
    trial = world.built_params()
    for ev in schedule.events:
        where = f"hazards[{ev.index}]"
        if ev.kind not in KINDS:
            errors.append(f"{where}: unknown kind {ev.kind!r}")
            continue
        if ev.trigger_tick < 0:
            errors.append(f"{where}: negative trigger tick {ev.trigger_tick}")
        if int(ev.payload.get("count", 1)) < 0:
            errors.append(f"{where}: negative seed count")
        try:
            targets = resolve_selector(world, ev.selector)
            role = TARGET_ROLES.get(ev.kind)
            wrong = [s for s in targets if role is not None and world.records[s].role != role]
            if wrong:
                errors.append(f"{where}: {ev.kind} target {wrong[0]!r} is not a {role}")
            change_params(world, trial, targets, ev.changes)
        except HazardError as exc:
            errors.append(f"{where}: {exc}")
    return errors


def apply_due(world: World, tick: int, schedule: HazardSchedule) -> list[int]:
    """Apply every event due at this tick; returns applied event indices.

    Called once per tick by the run loop, after step() and before metric
    observation.  A selector matching nothing aborts the run: the scenario
    is misconfigured and silently skipping it would bias comparisons.
    """
    applied = []
    for ev in schedule.due(tick):
        try:
            targets = resolve_selector(world, ev.selector)
            change_params(world, world.params, targets, ev.changes)
        except HazardError as exc:
            raise HazardError(f"hazard event {ev.index} at tick {tick}: {exc}") from None
        if ev.changes:
            for sid in targets:
                world.change(sid)
        if ev.kind == "cyberattack":
            _dispatch_cyberattack(world, targets)
        elif ev.kind == "disease_seed":
            _dispatch_disease_seed(world, tick, ev, targets)
        applied.append(ev.index)
    return applied


def _dispatch_cyberattack(world: World, targets: list[str]) -> None:
    for sid in targets:
        world.change(sid, dict(world.states[sid], active=True))


def _dispatch_disease_seed(world: World, tick: int, ev: HazardEvent, targets: list[str]) -> None:
    """Infect the seeded selection: each candidate draws from its own stream
    and the lowest draws win, so the selection is independent of iteration
    order and stable across reruns."""
    count = int(ev.payload.get("count", 1))
    candidates = []
    for sid in targets:
        if world.states[sid]["infection"] != "susceptible":
            continue
        u = world.records[sid].stream.at(tick, "seed_sel").random()
        candidates.append((u, sid))
    candidates.sort()
    for _, sid in candidates[:count]:
        rng = world.records[sid].stream.at(tick, "seed_course")
        lo, hi = world.params[sid]["mild_hours"]
        world.change(sid, dict(world.states[sid], infection="infected", severity="mild",
                               stage_end=tick + rng.randint(int(lo), int(hi))))
