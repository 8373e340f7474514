"""Scenario files: one JSON document describing the whole simulated city.

Sections: landscape (nodes, roadways, places), population (districts,
timetable templates, contact fan-out), ict (node hierarchy, attackers),
health (hospitals, disease parameters), mobility (adapter, traffic
lights), hazards (time-stamped events) and mitigations (named parameter
override bundles applied on top of the risk scenario).  The seed is
explicit and mandatory; there is no implicit randomness anywhere.

``SCHEMA`` is the one list of fields, each with its type, its default (or
REQUIRED) and its range or allowed set.  One walk over it reports type,
range, missing-field and unknown-key errors and fills defaults in place,
so the program reads a parsed config with ``[]`` only.  ``PARAM_SPECS``
maps each role's built params to their specs, so every hazard override
and mitigation op meets the rule the document does.
Validation collects every problem instead of failing fast, and never
raises.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from .federation import ADAPTERS
from .hazards import KINDS, HazardSchedule, validate
from .kernel import BuildError, World
from .systems.ict import ATTACK_TYPES

# every scenario's variants: hazards stripped, and as configured (a mitigation adds ops to risk)
BASELINE, RISK = "baseline", "risk"
BASE_VARIANTS = (BASELINE, RISK)

REQUIRED, OPTIONAL = object(), object()  # OPTIONAL: may be absent, nothing is filled in


def _spell(where: tuple) -> str:
    """A path kept as nested (parent, key) pairs, () at the top, is only
    spelled out for a diagnostic."""
    if not where:
        return ""
    head = _spell(where[0])
    key = where[1]
    return f"{head}[{key}]" if isinstance(key, int) else f"{head}.{key}" if head else key


def _say(errors: list[str], where: tuple, message: str) -> None:
    errors.append(f"{_spell(where) or 'scenario'}: {message}")


NUMBERS = frozenset((int, float))


class Value:
    """A JSON scalar of exactly the given types (so bool is no number; no
    types: any value), optionally limited to a range (``lo``/``hi``
    inclusive, ``above`` exclusive), an allowed set, or an ``ok`` predicate
    that ``what`` describes.  A default of None also accepts null."""

    def __init__(self, types: tuple, what: str, default=REQUIRED, lo=None, hi=None,
                 above=None, choices=None, ok=None):
        self.types, self.default = frozenset(types), default
        self.what = what + (" or null" if default is None else "")
        self.lo, self.hi, self.above, self.choices, self.ok = lo, hi, above, choices, ok

    def problem(self, value, any_number: bool = False) -> str | None:
        """Why ``value`` does not fit, or None.  With ``any_number`` any
        number fits a numeric field, as a ``scale`` makes floats of counts."""
        kind = type(value)
        if self.types and kind not in self.types:
            if value is None and self.default is None:
                return None
            if not (any_number and kind in NUMBERS and self.types & NUMBERS):
                return f"expected {self.what}, got {value!r}"
        if self.choices is not None and value not in self.choices:
            return f"{value!r} is not one of {sorted(self.choices)}"
        if self.above is not None and not value > self.above:
            return f"{value!r} must be > {self.above}"
        if self.lo is not None and not (value >= self.lo and (self.hi is None or value <= self.hi)):
            return f"{value!r} must be " + (f">= {self.lo}" if self.hi is None
                                            else f"in [{self.lo}, {self.hi}]")
        if self.ok is not None and not self.ok(value):
            return f"expected {self.what}, got {value!r}"
        return None

    def walk(self, value, where: tuple, errors: list[str]) -> None:
        problem = self.problem(value)
        if problem:
            _say(errors, where, problem)


text = partial(Value, (str,), "a string")
integer = partial(Value, (int,), "an integer")
number = partial(Value, (int, float), "a number")
flag = partial(Value, (bool,), "true or false")
ANY = Value((), "any value")  # a parameter value a mitigation or hazard sets
WINDOW = "[lo, hi] integers with 1 <= lo <= hi"


def is_window(value) -> bool:
    """A stage duration range in hours, or a district's household sizes."""
    return (len(value) == 2 and type(value[0]) is int and type(value[1]) is int
            and 1 <= value[0] <= value[1])


window = partial(Value, (list, tuple), WINDOW, ok=is_window)
# a timetable's [start hour, place kind]
TIMETABLE_WINDOW = Value((list, tuple), "[hour 0-23, place kind]", ok=lambda w: (
    len(w) == 2 and type(w[0]) is int and 0 <= w[0] <= 23 and type(w[1]) is str))


class Record:
    """A JSON object with a fixed set of keys; unknown keys are errors."""

    def __init__(self, fields: dict, default=REQUIRED):
        self.fields, self.keys, self.default = fields, frozenset(fields), default

    def walk(self, value, where: tuple, errors: list[str]) -> None:
        if not isinstance(value, dict):
            _say(errors, where, f"expected an object, got {value!r}")
            return
        if not self.keys.issuperset(value):
            for name in value:
                if name not in self.keys:
                    _say(errors, where, f"unknown key {name!r}")
        for name, spec in self.fields.items():
            if name in value:
                spec.walk(value[name], (where, name), errors)
            elif spec.default is REQUIRED:
                _say(errors, (where, name), "missing")
            elif spec.default is not OPTIONAL:
                value[name] = copy.deepcopy(spec.default)
                spec.walk(value[name], (where, name), errors)


class ListOf:
    """Items of one spec: a list, or with ``named`` an object of free names.
    Absent from a record, it defaults to empty."""

    def __init__(self, item, named: bool = False):
        self.item, self.named = item, named
        self.default = {} if named else []

    def walk(self, value, where: tuple, errors: list[str]) -> None:
        if not isinstance(value, dict if self.named else (list, tuple)):
            _say(errors, where, f"expected {'an object' if self.named else 'a list'}, got {value!r}")
            return
        for key, item in value.items() if self.named else enumerate(value):
            self.item.walk(item, (where, key), errors)


MapOf = partial(ListOf, named=True)


def selector(default=REQUIRED) -> Record:
    """Subagents by id, or by role and district; {} matches every one."""
    return Record({"id": text(OPTIONAL), "role": text(OPTIONAL), "district": text(OPTIONAL)},
                  default)


PROBABILITY = number(0.0, lo=0, hi=1)
FRACTION = partial(number, lo=0, hi=1)
DISTRICT = text(None)
# the fields that role params are built from
ROADWAY = {"free_flow_mps": number(above=0), "capacity": number(above=0), "station": flag(False)}
PLACE = {"capacity": integer(None, lo=0)}  # null: unlimited
ATTACKER = {"attack_type": text(choices=ATTACK_TYPES),
            # null: the attack type's own propagation probability
            "propagation_probability": FRACTION(None)}
ICT_NODE = {"vulnerability": FRACTION(0.5), "recovery_ticks": integer(24, lo=1)}
DISEASE = Record({
    "beta": PROBABILITY, "p_severe": PROBABILITY, "p_worsen": PROBABILITY,
    "p_die_treated": PROBABILITY, "p_die_untreated": PROBABILITY,
    "mild_hours": window([24, 48]), "severe_hours": window([24, 48]),
    "critical_hours": window([24, 48]), "convalescence_hours": integer(168, lo=0),
    "vaccination_factor": number(1.0, lo=0),
}, default={})
CONTACT_K = integer(3, lo=0)
HOSPITAL = {"general_beds": integer(lo=0), "icu_beds": integer(lo=0), "care_quality": FRACTION(1.0),
            "capacity_degradation_factor": FRACTION(0.5),
            "quality_degradation_factor": FRACTION(0.75)}
# a field's name among the params built from it, where the two differ
BUILT_NAME = {"general_beds": "nominal_general_capacity", "icu_beds": "nominal_icu_capacity",
              "care_quality": "base_care_quality"}
# a citizen's schedule, built from the timetables: each hour's place and activity
SCHEDULE = Value((list, tuple), "24 [place, activity] entries", ok=lambda schedule: (
    len(schedule) == 24 and all(type(entry) in (list, tuple) and len(entry) == 2
                                and all(type(part) is str for part in entry)
                                for entry in schedule)))
# role -> the spec of every built param: the one rule every hazard override
# and mitigation op meets, as the document does (hazards.ID_PARAMS then
# checks the ids a value names); a role without params has none
PARAM_SPECS = {
    "roadway": ROADWAY, "place": PLACE, "cyber-attacker": ATTACKER,
    "cyber-infrastructure": ICT_NODE,
    "patient": {**DISEASE.fields, "home_hospital": text(None), "vaccinated": flag()},
    "citizen": {"contact_k": CONTACT_K, "schedule": SCHEDULE, "home_place": text(),
                "household": Value((list, tuple), "a list of citizen ids")},
    "hospital": {**{BUILT_NAME.get(name, name): spec for name, spec in HOSPITAL.items()},
                 "referral_peers": Value((list, tuple), "a list of hospital ids")},
}
# a hospital's or traffic light's own ICT node, a leaf under `upstream`
EMBEDDED_ICT = Record({"upstream": text(None), **ICT_NODE}, default=OPTIONAL)

SCHEMA = Record({
    "name": text(), "seed": integer(), "horizon_days": integer(lo=1),
    # a tick is one simulated hour, and schedules cover the 24 hours of a day
    "ticks_per_day": integer(24, choices={24}),
    "landscape": Record({
        "nodes": ListOf(Record({
            "id": text(), "district": DISTRICT, "x": number(OPTIONAL), "y": number(OPTIONAL)})),
        "roadways": ListOf(Record({
            "id": text(), "a": text(), "b": text(), "length_m": number(above=0), **ROADWAY,
            "district": DISTRICT})),
        "places": ListOf(Record({
            "id": text(), "node": text(), "district": DISTRICT, "kind": text("generic"),
            **PLACE})),
    }, default={}),
    "population": Record({
        "districts": MapOf(Record({
            "citizens": integer(0, lo=0), "household_size": window([2, 4])})),
        "timetables": MapOf(ListOf(TIMETABLE_WINDOW)),
        "timetable_mix": MapOf(number(lo=0)),  # template weights; {}: all the same
        "contact_k": CONTACT_K, "boundary_jitter_h": integer(1, lo=0),
        "lockdown": flag(False),
    }, default={}),
    "ict": Record({
        "nodes": ListOf(Record({
            "id": text(), "depends_on": ListOf(text()), **ICT_NODE, "district": DISTRICT})),
        "attackers": ListOf(Record({
            "id": text(), "target": text(), **ATTACKER, "district": DISTRICT})),
    }, default={}),
    "health": Record({
        "hospitals": ListOf(Record({
            "id": text(), "node": text(), "district": DISTRICT, **HOSPITAL,
            "referral_peers": ListOf(text()), "ict": EMBEDDED_ICT})),
        "disease": DISEASE,
    }, default={}),
    "mobility": Record({
        "adapter": text("reference", choices=ADAPTERS),
        "v_min_frac": FRACTION(0.1), "light_off_factor": FRACTION(0.4),
        "traffic_lights": ListOf(Record({
            "id": text(), "node": text(None), "district": DISTRICT,
            "roadways": ListOf(text()), "ict": EMBEDDED_ICT})),
    }, default={}),
    "hazards": ListOf(Record({
        # one of the two triggers; tick wins when both are given
        "tick": integer(OPTIONAL, lo=0), "day": integer(OPTIONAL, lo=0),
        "kind": text(choices=KINDS), "selector": selector({}), "overrides": MapOf(ANY),
        "payload": Record({"count": integer(OPTIONAL, lo=0)}, default={})})),
    "mitigations": MapOf(ListOf(Record({
        "selector": selector(), "param": text(), "op": text(choices=("scale", "set")),
        "value": ANY}))),
    # roles with per-subagent rows; [] means the recorder's default set
    "observe": Record({"subagent_roles": ListOf(text())}, default={}),
})

DISEASE_DEFAULTS = {key: spec.default for key, spec in DISEASE.fields.items()}


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    horizon_days: int
    ticks_per_day: int
    raw: dict
    digest: str
    path: str | None = None
    # the frozen structure parse_config validated against; every run shares it
    structure: World | None = field(default=None, repr=False, compare=False)

    @property
    def horizon_ticks(self) -> int:
        return self.horizon_days * self.ticks_per_day

    @property
    def mitigation_names(self) -> list[str]:
        return sorted(self.raw["mitigations"])

    @property
    def variants(self) -> list[str]:
        return [*BASE_VARIANTS, *self.mitigation_names]

    def schedule(self) -> HazardSchedule:
        return HazardSchedule.from_config(self.raw["hazards"], self.ticks_per_day)


def parse_config(raw: dict, digest: str, path: str | None = None) -> tuple[ScenarioConfig | None, list[str]]:
    """Validate a scenario document and fill its defaults in place; the
    caller's dict becomes ``config.raw``.  Parsing a filled document again
    changes nothing.  The config keeps the structure it was validated
    against."""
    from .build import build_structure

    errors: list[str] = []
    SCHEMA.walk(raw, (), errors)
    errors = errors or reference_errors(raw)
    if errors:
        return None, errors
    config = ScenarioConfig(raw["name"], raw["seed"], raw["horizon_days"],
                            raw["ticks_per_day"], raw, digest, path)
    try:
        config.structure = build_structure(config)
    except (BuildError, ValueError) as exc:
        return None, [f"build: {exc}"]
    errors = cross_errors(config)
    return (None, errors) if errors else (config, [])


def _reject_constant(name: str):
    # json.loads accepts NaN, Infinity and -Infinity; RFC 8259 JSON does not
    raise ValueError(f"{name} is not a JSON number")


def read_scenario(path: str | Path) -> tuple[dict | None, str, list[str]]:
    """Read and decode a scenario file, unvalidated: (document, sha256 of the
    bytes, errors).  A caller may change the document, say its seed, before
    ``parse_config`` validates it."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        return None, "", [f"cannot read {path}: {exc}"]
    try:
        raw = json.loads(blob, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, a bad byte, or a constant
        return None, "", [f"{path}: invalid JSON: {exc}"]
    if not isinstance(raw, dict):
        return None, "", [f"{path}: top level must be an object"]
    return raw, hashlib.sha256(blob).hexdigest(), []


def load_scenario(path: str | Path) -> tuple[ScenarioConfig | None, list[str]]:
    """Parse and fully cross-validate a scenario file."""
    raw, digest, errors = read_scenario(path)
    return (None, errors) if raw is None else parse_config(raw, digest, str(path))


def reference_errors(raw: dict) -> list[str]:
    """Ids, references and rules between fields, on a document the schema
    walk accepted: every field is present and well typed."""
    errors: list[str] = []
    land, pop, ict = raw["landscape"], raw["population"], raw["ict"]
    hospitals, lights = raw["health"]["hospitals"], raw["mobility"]["traffic_lights"]
    known: dict[str, set[str]] = {}
    for where, items in (("landscape.nodes", land["nodes"]), ("landscape.roadways", land["roadways"]),
                         ("landscape.places", land["places"]), ("ict.nodes", ict["nodes"]),
                         ("health.hospitals", hospitals)):
        known[where] = set()
        for i, item in enumerate(items):
            if item["id"] in known[where]:
                errors.append(f"{where}[{i}]: duplicate id {item['id']!r}")
            known[where].add(item["id"])
    embedded = [dict(owner["ict"], id=owner["id"]) for owner in hospitals + lights if "ict" in owner]
    for where, items, key, target in (
        ("landscape.roadways", land["roadways"], "a", "landscape.nodes"),
        ("landscape.roadways", land["roadways"], "b", "landscape.nodes"),
        ("landscape.places", land["places"], "node", "landscape.nodes"),
        ("ict.nodes", ict["nodes"], "depends_on", "ict.nodes"),
        ("ict.attackers", ict["attackers"], "target", "ict.nodes"),
        ("health.hospitals", hospitals, "node", "landscape.nodes"),
        ("health.hospitals", hospitals, "referral_peers", "health.hospitals"),
        ("mobility.traffic_lights", lights, "node", "landscape.nodes"),
        ("mobility.traffic_lights", lights, "roadways", "landscape.roadways"),
        ("ict upstream of", embedded, "upstream", "ict.nodes"),
    ):
        for item in items:
            for ref in item[key] if isinstance(item[key], list) else [item[key]]:
                if ref is not None and ref not in known[target]:
                    errors.append(f"{where} {item['id']!r}: {key} {ref!r} is not in {target}")
    try:
        TopologicalSorter({node["id"]: node["depends_on"] for node in ict["nodes"]}).prepare()
    except CycleError as exc:
        errors.append(f"ict.nodes: dependency graph has a cycle: {' -> '.join(exc.args[1])}")

    templates, jitter = pop["timetables"], pop["boundary_jitter_h"]
    for name, entries in templates.items():
        where = f"population.timetables.{name}"
        hours = [hour for hour, _ in entries]
        # a window must survive the jitter plus one tick in transit, or
        # citizens would miss boundaries while on the road; the last window
        # runs to midnight
        gaps = [b - a for a, b in zip(hours, hours[1:] + [24])]
        if not hours or hours[0] != 0:
            errors.append(f"{where}: first window must start at hour 0")
        elif min(gaps) <= 0:
            errors.append(f"{where}: window starts must be strictly increasing")
        elif len(hours) > 1 and min(gaps) < 2 * jitter + 2:
            errors.append(f"{where}: windows narrower than {2 * jitter + 2}h cannot "
                          f"absorb a +-{jitter}h jitter plus travel time")
    for name in sorted(pop["timetable_mix"].keys() - templates.keys()):
        errors.append(f"population.timetable_mix: unknown template {name!r}")
    needed = {kind for entries in templates.values() for _, kind in entries if kind != "home"}
    for dname, dspec in pop["districts"].items():
        where = f"population.districts.{dname}"
        missing = needed - {pl["kind"] for pl in land["places"] if pl["district"] == dname}
        if dspec["citizens"] and missing and not pop["lockdown"]:
            errors.append(f"{where}: no place of kind {sorted(missing)!r} in district")
        if dspec["citizens"] and not any(node["district"] == dname for node in land["nodes"]):
            errors.append(f"{where}: district has no landscape nodes to host homes")

    for i, ev in enumerate(raw["hazards"]):
        if "tick" not in ev and "day" not in ev:
            errors.append(f"hazards[{i}]: needs a trigger tick or day")
    errors += [f"mitigations.{name}: reserved variant name"
               for name in BASE_VARIANTS if name in raw["mitigations"]]
    return errors


def cross_errors(config: ScenarioConfig) -> list[str]:
    """Checks against the config's structure: selector resolution, and each
    hazard override and mitigation op applied to a scratch map of the params
    as built, by the same rule that applies it in a run (``change_params``)."""
    from .build import mitigate

    world = config.structure
    errors = validate(config.schedule(), world)
    for name, bundle in config.raw["mitigations"].items():
        errors += mitigate(world, world.built_params(), name, bundle)
    errors += [f"observe.subagent_roles: unknown role {role!r}"
               for role in config.raw["observe"]["subagent_roles"] if role not in world.registry.rules]
    return errors
