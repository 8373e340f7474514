"""A scenario's structure, built once, and the runs of its variants on it.

Every functional entity becomes an agent made of one subagent per system
it participates in; subagent ids are "<agent>::<system>".  A subagent's
params hold only what a run reads, so a hazard or mitigation can change
nothing else: a relation is a layer edge (an attacker's ``attacks``
target, a light's ``controls`` roadways), a place's id is its agent's id,
an agent's district is on its records for selectors to match, and the
street graph and each place's node come from the scenario document.
Citizens get a social, healthcare (patient), mobility (passenger) and
urban-landscape (moving entity) subagent; the passenger is the citizen's
vehicle id, the moving entity the citizen in the landscape, and neither
has state or params.  A patient starts susceptible: an epidemic is seeded
by a ``disease_seed`` hazard.
Hospitals and traffic lights embed their own ICT node as a leaf depending
on their district node.  Homes are generated per household and cycle over
the district's street nodes.

Per-citizen randomness used at build time (timetable jitter, workplace
binding, template choice) is drawn from the citizen's own stream, so a
citizen's schedule depends only on (seed, citizen id), never on how many
citizens exist or in what order they were created.
"""

from __future__ import annotations

from itertools import accumulate

from .federation import ADAPTERS
from .hazards import HazardError, change_params, resolve_selector
from .kernel import BuildError, World
from .rng import Stream
from .routing import StreetGraph
from .scenario import (ATTACKER, BASE_VARIANTS, BUILT_NAME, HOSPITAL, ICT_NODE, PLACE, RISK,
                       ROADWAY, ScenarioConfig)
from .systems import default_registry
from .systems.ict import EDGE_ATTACKS, EDGE_DEPENDS
from .systems.mobility import EDGE_CONTROLS


# params shared by many subagents, never written, as no record's are: those
# of every subagent without params, and of a hospital's or a home's place
NO_PARAMS: dict = {}
UNLIMITED_PLACE = {"capacity": None}


def subagent_id(agent_id: str, system: str) -> str:
    return f"{agent_id}::{system}"


def _params(fields: dict, entry: dict, **extra) -> dict:
    """The params built from a scenario entry: its ``fields``, each under
    its built name, and ``extra``."""
    return {BUILT_NAME.get(name, name): entry[name] for name in fields} | extra


def _ict_node(agent_id: str, spec: dict) -> tuple:
    """The ICT subagent of an ict.nodes entry or of a hospital's or light's ict block."""
    return (subagent_id(agent_id, "ict"), "ict", "cyber-infrastructure", _params(ICT_NODE, spec))


def build_structure(config: ScenarioConfig) -> World:
    """The frozen structure every variant of the scenario shares, from a
    config whose defaults parse_config has filled in; parse_config keeps it."""
    registry = default_registry()
    world = World(config.seed, registry)
    raw = config.raw
    land, ict, mobility = raw["landscape"], raw["ict"], raw["mobility"]
    hospitals = raw["health"]["hospitals"]
    place_nodes: dict[str, str] = {}

    for node in ict["nodes"]:
        world.add_agent(node["id"], [_ict_node(node["id"], node)], node["district"])
    for atk in ict["attackers"]:
        world.add_agent(atk["id"], [(subagent_id(atk["id"], "ict"), "ict", "cyber-attacker",
                                     _params(ATTACKER, atk))], atk["district"])

    for hosp in hospitals:
        hid = hosp["id"]
        members = [(subagent_id(hid, "healthcare"), "healthcare", "hospital", _params(
            HOSPITAL, hosp, referral_peers=[subagent_id(p, "healthcare")
                                            for p in hosp["referral_peers"]]))]
        if "ict" in hosp:
            members.append(_ict_node(hid, hosp["ict"]))
        members.append((subagent_id(hid, "urban_landscape"), "urban_landscape", "place",
                        UNLIMITED_PLACE))
        world.add_agent(hid, members, hosp["district"])
        place_nodes[hid] = hosp["node"]

    for light in mobility["traffic_lights"]:
        lid = light["id"]
        members = [(subagent_id(lid, "mobility"), "mobility", "traffic-light", NO_PARAMS)]
        if "ict" in light:
            members.append(_ict_node(lid, light["ict"]))
        members.append((subagent_id(lid, "urban_landscape"), "urban_landscape", "fixed-entity",
                        NO_PARAMS))
        world.add_agent(lid, members, light["district"])

    for rw in land["roadways"]:
        rid = rw["id"]
        world.add_agent(rid, [
            (subagent_id(rid, "mobility"), "mobility", "roadway", _params(ROADWAY, rw)),
            (subagent_id(rid, "urban_landscape"), "urban_landscape", "street", NO_PARAMS),
        ], rw["district"])

    for pl in land["places"]:
        world.add_agent(pl["id"], [(subagent_id(pl["id"], "urban_landscape"), "urban_landscape",
                                    "place", _params(PLACE, pl))], pl["district"])
        place_nodes[pl["id"]] = pl["node"]

    _build_population(world, config, place_nodes)

    # layer edges, declared after all endpoints exist
    for node in ict["nodes"]:
        for up in node["depends_on"]:
            world.add_edge("ict", subagent_id(node["id"], "ict"),
                           subagent_id(up, "ict"), EDGE_DEPENDS)
    for owner in hospitals + mobility["traffic_lights"]:
        if "ict" in owner and owner["ict"]["upstream"] is not None:
            world.add_edge("ict", subagent_id(owner["id"], "ict"),
                           subagent_id(owner["ict"]["upstream"], "ict"), EDGE_DEPENDS)
    for light in mobility["traffic_lights"]:
        for rid in light["roadways"]:
            world.add_edge("mobility", subagent_id(light["id"], "mobility"),
                           subagent_id(rid, "mobility"), EDGE_CONTROLS)
    for atk in ict["attackers"]:
        world.add_edge("ict", subagent_id(atk["id"], "ict"),
                       subagent_id(atk["target"], "ict"), EDGE_ATTACKS)

    world.finalize()
    _attach_services(world, land, mobility, place_nodes)
    return world


def build_world(config: ScenarioConfig, variant: str = RISK) -> World:
    """A fresh run of one variant on the config's structure.  A mitigation
    variant applies its ops to a copy of the params map before initial
    states are derived, as the alternative would be provisioned up front in
    the real city."""
    structure = config.structure
    params = structure.built_params()
    if variant not in BASE_VARIANTS:
        bundle = config.raw["mitigations"].get(variant)
        if bundle is None:
            raise BuildError(
                f"unknown variant {variant!r}; declared mitigations: {config.mitigation_names}"
            )
        errors = mitigate(structure, params, variant, bundle)
        if errors:
            raise BuildError(errors[0])
    world = structure.start(params)
    if "street_graph" in world.services:
        world.services["traffic"] = _traffic_federate(world, config.seed, config.raw["mobility"])
    return world


def _build_population(world: World, config: ScenarioConfig,
                      place_nodes: dict[str, str]) -> None:
    raw = config.raw
    pop, land, disease = raw["population"], raw["landscape"], raw["health"]["disease"]
    templates = pop["timetables"]
    mix = pop["timetable_mix"] or {name: 1.0 for name in templates}
    bounds = list(zip(accumulate(mix[name] for name in sorted(mix)), sorted(mix)))
    total = sum(mix[name] for name in sorted(mix))
    contact_k, jitter, lockdown = pop["contact_k"], pop["boundary_jitter_h"], pop["lockdown"]
    hospital_of_district = {
        h["district"]: subagent_id(h["id"], "healthcare") for h in raw["health"]["hospitals"]
    }
    places_by_kind: dict[str | None, dict[str, list[str]]] = {}
    for pl in land["places"]:
        places_by_kind.setdefault(pl["district"], {}).setdefault(
            pl["kind"], []).append(pl["id"])
    for district in places_by_kind.values():
        for kind in district.values():
            kind.sort()

    entries: dict[tuple[str, str], tuple[str, str]] = {}  # equal schedule entries share one
    for district in sorted(pop["districts"]):
        dspec = pop["districts"][district]
        count = dspec["citizens"]
        if count == 0:
            continue
        lo, hi = dspec["household_size"]
        district_nodes = sorted(n["id"] for n in land["nodes"] if n["district"] == district)
        hh_rng = Stream(config.seed, f"population:{district}").at(0, "households")
        sizes: list[int] = []
        remaining = count
        while remaining > 0:
            size = min(hh_rng.randint(lo, hi), remaining)
            sizes.append(size)
            remaining -= size
        # the structure's params are never written, so equal ones are shared
        patient = dict(disease, home_hospital=hospital_of_district.get(district),
                       vaccinated=False)
        index = 0
        for hh_index, size in enumerate(sizes):
            home_id = f"home_{district}_{hh_index}"
            home_node = district_nodes[hh_index % len(district_nodes)]
            world.add_agent(home_id, [(subagent_id(home_id, "urban_landscape"),
                                       "urban_landscape", "place", UNLIMITED_PLACE)], district)
            place_nodes[home_id] = home_node
            members = [f"cit_{district}_{index + j}" for j in range(size)]
            social = [subagent_id(m, "social") for m in members]
            for j, agent_id in enumerate(members):
                schedule = _build_schedule(
                    config.seed, agent_id, templates, bounds, total, jitter, lockdown,
                    home_id, places_by_kind.get(district, {}), entries,
                )
                world.add_agent(agent_id, [
                    (social[j], "social", "citizen", {
                        "home_place": home_id, "household": social[:j] + social[j + 1:],
                        "contact_k": contact_k, "schedule": schedule,
                    }),
                    (subagent_id(agent_id, "healthcare"), "healthcare", "patient", patient),
                    (subagent_id(agent_id, "mobility"), "mobility", "passenger", NO_PARAMS),
                    (subagent_id(agent_id, "urban_landscape"), "urban_landscape",
                     "moving-entity", NO_PARAMS),
                ], district)
            index += size


def _build_schedule(seed: int, agent_id: str, templates: dict,
                    bounds: list[tuple[float, str]], total: float,
                    jitter: int, lockdown: bool, home_id: str,
                    kinds: dict[str, list[str]],
                    entries: dict[tuple[str, str], tuple[str, str]]) -> list[tuple[str, str]]:
    """24-entry (place, activity) array from a template plus seeded jitter;
    ``bounds`` pairs each template with its running total of shares."""
    if lockdown or not templates:
        return [(home_id, "home")] * 24
    rng = Stream(seed, subagent_id(agent_id, "social")).at(0, "timetable")
    u = rng.random() * total
    windows = templates[next((name for bound, name in bounds if u < bound), bounds[-1][1])]
    boundaries: list[tuple[int, str]] = []
    previous = -1
    for hour, kind in windows:
        if hour == 0:
            jittered = 0
        else:
            jittered = max(previous + 1, min(23, hour + rng.randint(-jitter, jitter)))
        boundaries.append((jittered, kind))
        previous = jittered
    binding: dict[str, str] = {"home": home_id}
    for _, kind in boundaries:
        if kind not in binding:
            options = kinds.get(kind, [])
            binding[kind] = options[rng.randint(0, len(options) - 1)] if options else home_id
    slot = {kind: entries.setdefault((place, kind), (place, kind)) for kind, place in binding.items()}
    schedule: list[tuple[str, str]] = []
    pointer = 0
    for hour in range(24):
        while pointer + 1 < len(boundaries) and boundaries[pointer + 1][0] <= hour:
            pointer += 1
        schedule.append(slot[boundaries[pointer][1]])
    return schedule


def mitigate(structure: World, params: dict[str, dict], variant: str,
             bundle: list[dict]) -> list[str]:
    """Apply a mitigation bundle's ops in order to ``params``, a map of the
    params as built; returns one error per op that does not fit."""
    errors = []
    for i, op in enumerate(bundle):
        try:
            change_params(structure, params, resolve_selector(structure, op["selector"]),
                          [(op["param"], op["op"], op["value"])])
        except HazardError as exc:
            errors.append(f"mitigations.{variant}[{i}]: {exc}")
    return errors


def _attach_services(world: World, land: dict, mobility: dict,
                     place_nodes: dict[str, str]) -> None:
    """The street graph, with its per-origin shortest-path trees, and the
    place nodes; each run adds its own traffic federate.  Route costs
    (``length_m / free_flow_mps``) stay as built, because every run shares
    the trees."""
    roadways = land["roadways"]
    if not roadways and not mobility["traffic_lights"]:
        return
    graph = StreetGraph()
    for rw in roadways:
        graph.add_roadway(subagent_id(rw["id"], "mobility"), rw["a"], rw["b"],
                          rw["length_m"] / rw["free_flow_mps"])
    world.services["street_graph"] = graph
    world.services["place_nodes"] = dict(place_nodes)


def _traffic_federate(run: World, seed: int, mobility: dict):
    """A freshly initialised federate over the run's roadways, with their
    params after any mitigation, and their lights; the mobility settlement
    sends it only the lights and roadways that change."""
    controllers = run.layers["mobility"].sources
    adapter = ADAPTERS[mobility["adapter"]](
        v_min_frac=mobility["v_min_frac"], light_off_factor=mobility["light_off_factor"])
    adapter.initialize({
        "lights": run.role_members("traffic-light"),
        "roadways": {rid: {"free_flow_mps": run.params[rid]["free_flow_mps"],
                           "capacity": run.params[rid]["capacity"],
                           "lights": controllers.get((rid, EDGE_CONTROLS), [])}
                     for rid in run.role_members("roadway")},
    }, seed)
    return adapter
