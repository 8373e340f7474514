"""ICT layer: cyber-attackers and cyber-infrastructure nodes.

An armed attacker emits a one-shot attack at its target node.  A node hit
by an attack is compromised with probability equal to its vulnerability;
a compromised node re-transmits the attack one hop per tick to the nodes
that depend on it, each hop gated by the attack's propagation probability
and the receiver's own vulnerability.  Defended attacks stop.  Separately
from compromise, unavailability cascades through the dependency graph
instantly: a node whose upstream provider is down reports itself
effectively unavailable in the same tick, even though it is not itself
compromised and keeps no recovery clock.
"""

from __future__ import annotations

from ..hazards import param_kind
from ..kernel import CoordinatorContext, Registry, RuleContext, RuleSet

ROLE_NODE = "cyber-infrastructure"
ROLE_ATTACKER = "cyber-attacker"

# attack type -> (default propagation probability, recovery time scale)
ATTACK_TYPES = {
    "ddos": (0.9, 0.5),
    "botnet": (0.6, 1.0),
    "ransomware": (0.3, 2.0),
}

EDGE_DEPENDS = "depends_on"
EDGE_ATTACKS = "attacks"


def _init_node(params: dict, stream) -> dict:
    vulnerability = params["vulnerability"]
    if not 0.0 <= vulnerability <= 1.0:
        raise ValueError(f"vulnerability {vulnerability} outside [0, 1]")
    if params["recovery_ticks"] < 1:
        raise ValueError("recovery_ticks must be >= 1")
    return {
        "available": True,
        "effective_available": True,
        "down_since": None,
        "compromised_at": None,
        "recovery_due": None,
        "attack_prop": None,
        "attack_recovery_scale": None,
    }


def _init_attacker(params: dict, stream) -> dict:
    if params["attack_type"] not in ATTACK_TYPES:
        raise ValueError(f"unknown attack type {params['attack_type']!r}")
    prop = params.get("propagation_probability")  # None: the attack type's own
    if prop is not None and param_kind(prop) != "number":
        raise ValueError(f"propagation_probability {prop!r} is not a number")
    if prop is not None and not 0.0 <= prop <= 1.0:
        raise ValueError(f"propagation_probability {prop} outside [0, 1]")
    return {"active": False, "emitted_at": None, "attacks_emitted": 0}


def attacker_internal(ctx: RuleContext) -> dict | None:
    """One-shot attack generation: armed attackers emit once and disarm."""
    state = ctx.state
    if not state["active"]:
        return None
    return {
        "active": False,
        "emitted_at": ctx.tick,
        "attacks_emitted": state["attacks_emitted"] + 1,
    }


def _wave_spec(attacker_params: dict) -> tuple[float, float]:
    default_prop, recovery_scale = ATTACK_TYPES[attacker_params["attack_type"]]
    prop = attacker_params.get("propagation_probability")
    if prop is None:
        prop = default_prop
    return float(prop), float(recovery_scale)


def node_internal(ctx: RuleContext) -> dict | None:
    """Nominal operation plus recovery: restore once the clock runs out."""
    state = ctx.state
    if state["available"] or ctx.tick < state["recovery_due"]:
        return None
    new = dict(state)
    new.update(
        available=True, down_since=None, compromised_at=None,
        recovery_due=None, attack_prop=None, attack_recovery_scale=None,
    )
    return new


def node_network(ctx: RuleContext) -> dict | None:
    """Attack defense and re-transmission.

    Arrivals this tick: direct emissions from attacker neighbors, and waves
    from upstream providers freshly compromised last tick.  Every potential
    arrival consumes the same draws whether or not it succeeds, keeping
    draw streams aligned across paired scenarios.  A successful arrival on
    an already-down node rewinds its clock (last write wins).
    """
    hit: tuple[float, float] | None = None
    for attacker in ctx.dependents(EDGE_ATTACKS):
        a_state = ctx.peer_state(attacker)
        if a_state["emitted_at"] != ctx.tick:
            continue
        prop, scale = _wave_spec(ctx.params_of(attacker))
        if ctx.rng(f"def:{attacker}").random() < ctx.params["vulnerability"]:
            if hit is None:
                hit = (prop, scale)
    for provider in ctx.providers(EDGE_DEPENDS):
        p_state = ctx.peer_state(provider)
        if p_state["compromised_at"] != ctx.tick - 1:
            continue
        transmitted = ctx.rng(f"prop:{provider}").random() < p_state["attack_prop"]
        defended = ctx.rng(f"def:{provider}").random() >= ctx.params["vulnerability"]
        if transmitted and not defended and hit is None:
            hit = (p_state["attack_prop"], p_state["attack_recovery_scale"])
    if hit is None:
        return None
    prop, scale = hit
    recovery = max(1, round(ctx.params["recovery_ticks"] * scale))
    new = dict(ctx.state)
    new.update(
        available=False,
        down_since=ctx.tick,
        compromised_at=ctx.tick,
        recovery_due=ctx.tick + recovery,
        attack_prop=prop,
        attack_recovery_scale=scale,
    )
    return new


def dependency_order(nodes: list[str], providers) -> list[str] | None:
    """``nodes`` ordered so that each comes after all its providers, or None
    if the dependencies have a cycle.  Iterative (Kahn's algorithm), so the
    depth of a chain is not limited; providers outside ``nodes`` are
    ignored."""
    waiting = {sid: 0 for sid in nodes}
    dependents: dict[str, list[str]] = {sid: [] for sid in nodes}
    for sid in nodes:
        for up in providers(sid):
            if up in waiting:
                waiting[sid] += 1
                dependents[up].append(sid)
    order = [sid for sid in nodes if not waiting[sid]]
    for sid in order:  # grows while it is walked
        for dep in dependents[sid]:
            waiting[dep] -= 1
            if not waiting[dep]:
                order.append(dep)
    return order if len(order) == len(waiting) else None


def _settlement_plan(cctx: CoordinatorContext) -> list[tuple[str, list[str]]]:
    order = dependency_order(cctx.members(ROLE_NODE),
                             lambda sid: cctx.providers(sid, EDGE_DEPENDS))
    if order is None:
        raise ValueError("ICT dependency graph has a cycle")
    return [(sid, cctx.providers(sid, EDGE_DEPENDS)) for sid in order]


def ict_settlement(cctx: CoordinatorContext) -> None:
    """Effective availability over the acyclic dependency graph.

    A whole hierarchy outage shows up in the same tick's metrics: a node is
    effectively available iff it is up and all its providers are.  Nodes
    are visited in dependency order, computed once per world.
    """
    effective: dict[str, bool] = {}
    for sid, providers in cctx.derived("ict_dependency_order", lambda: _settlement_plan(cctx)):
        state = cctx.get(sid)
        value = state["available"] and all(effective[p] for p in providers)
        effective[sid] = value
        if state["effective_available"] != value:
            new = dict(state)
            new["effective_available"] = value
            cctx.set(sid, new)


def _observe_node(record) -> list[tuple[str, object]]:
    state = record.state
    return [
        ("availability", int(state["available"])),
        ("effective_available", int(state["effective_available"])),
    ]


def _observe_attacker(record) -> list[tuple[str, object]]:
    return [("attacks_emitted", record.state["attacks_emitted"])]


def _aggregate(world) -> list[tuple[str, object]]:
    nodes = world.layer_role_order.get(("ict", ROLE_NODE))
    if not nodes:
        return []
    states = [world.states[s] for s in nodes]
    return [
        ("node_count", len(nodes)),
        ("available_count", sum(1 for s in states if s["effective_available"])),
        ("compromised_count", sum(1 for s in states if not s["available"])),
    ]


def register(registry: Registry) -> None:
    registry.register_role(ROLE_NODE, RuleSet(
        init_state=_init_node,
        internal=node_internal,
        network=node_network,
        observe=_observe_node,
    ))
    registry.register_role(ROLE_ATTACKER, RuleSet(
        init_state=_init_attacker,
        internal=attacker_internal,
        observe=_observe_attacker,
    ))
    registry.register_coordinator("ict", ict_settlement)
    registry.register_aggregator("ict", _aggregate)
