"""Scheduled hazardous events applied as parameter variations on subagents.

Events fire at their trigger tick, right after the step that produced the
tick and before metrics are observed.  Overrides rewrite parameters on
every matched subagent and persist; any recovery behavior belongs to the
domain rules themselves.  Two event kinds carry extra dispatch behavior:
``cyberattack`` arms an attacker subagent, ``disease_seed`` infects a
seeded selection of patients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .kernel import World

KINDS = ("cyberattack", "disease_seed", "generic_override")


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

    def stripped(self) -> "HazardSchedule":
        return HazardSchedule([])


def resolve_selector(world: World, selector: dict) -> list[str]:
    """Matched subagent ids, sorted.  Supports id / role / district keys."""
    if "id" in selector:
        sid = selector["id"]
        return [sid] if sid in world.records else []
    want_role = selector.get("role")
    want_district = selector.get("district")
    matched = sorted(world.records) if want_role is None else world.role_members(want_role)
    if want_district is None:
        return matched
    return [sid for sid in matched
            if world.records[sid].params.get("district") == want_district]


def param_kind(value) -> str:
    """Type class of a parameter value; a bool never counts as a number."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def replacement_error(current, value) -> str | None:
    """Why ``value`` may not replace a parameter holding ``current``: it must
    be of the same kind, unless the parameter is unset (None)."""
    if current is None or param_kind(value) == param_kind(current):
        return None
    return f"expected {param_kind(current)}, got {param_kind(value)}"


def validate(schedule: HazardSchedule, world: World) -> list[str]:
    """Static checks; returns an error list and never raises."""
    errors = []
    for ev in schedule.events:
        where = f"hazards[{ev.index}]"
        if ev.kind not in KINDS:
            errors.append(f"{where}: unknown kind {ev.kind!r}")
            continue
        if ev.trigger_tick < 0:
            errors.append(f"{where}: negative trigger tick {ev.trigger_tick}")
        targets = resolve_selector(world, ev.selector)
        if not targets:
            errors.append(f"{where}: selector {ev.selector!r} matches no subagent")
            continue
        for name, value in ev.overrides.items():
            missing = [s for s in targets if name not in world.records[s].params]
            if missing:
                errors.append(
                    f"{where}: override {name!r} not a parameter of {missing[0]!r}"
                )
                continue
            for sid in targets:
                problem = replacement_error(world.records[sid].params[name], value)
                if problem:
                    errors.append(f"{where}: override {name!r} on {sid!r}: {problem}")
                    break
        if ev.kind == "cyberattack":
            wrong = [s for s in targets if world.records[s].role != "cyber-attacker"]
            if wrong:
                errors.append(f"{where}: cyberattack target {wrong[0]!r} is not a cyber-attacker")
        if ev.kind == "disease_seed":
            wrong = [s for s in targets if world.records[s].role != "patient"]
            if wrong:
                errors.append(f"{where}: disease_seed target {wrong[0]!r} is not a patient")
            if int(ev.payload.get("count", 1)) < 0:
                errors.append(f"{where}: negative seed count")
    return errors


def apply_due(world: World, tick: int, schedule: HazardSchedule) -> list[int]:
    """Apply every event due at this tick; returns applied event indices.

    Called once per tick by the run loop, after step() and before metric
    observation.  A selector matching nothing aborts the run: the scenario
    is misconfigured and silently skipping it would bias comparisons.
    """
    applied = []
    for ev in schedule.due(tick):
        targets = resolve_selector(world, ev.selector)
        if not targets:
            raise HazardError(
                f"hazard event {ev.index} at tick {tick}: selector {ev.selector!r} "
                f"matches no subagent"
            )
        for sid in targets:
            params = world.records[sid].params
            for name, value in ev.overrides.items():
                if name not in params:
                    raise HazardError(
                        f"hazard event {ev.index}: override of unknown parameter "
                        f"{name!r} on {sid!r}"
                    )
                params[name] = value
        if ev.kind == "cyberattack":
            _dispatch_cyberattack(world, tick, targets)
        elif ev.kind == "disease_seed":
            _dispatch_disease_seed(world, tick, ev, targets)
        applied.append(ev.index)
    return applied


def _dispatch_cyberattack(world: World, tick: int, targets: list[str]) -> None:
    for sid in targets:
        state = dict(world.states[sid])
        state["active"] = True
        world.states[sid] = state


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
        rec = world.records[sid]
        rng = rec.stream.at(tick, "seed_course")
        lo, hi = rec.params["mild_hours"]
        state = dict(world.states[sid])
        state.update(
            infection="infected",
            severity="mild",
            ticks_in_state=0,
            stage_duration=rng.randint(int(lo), int(hi)),
            infected_at=tick,
        )
        world.states[sid] = state
