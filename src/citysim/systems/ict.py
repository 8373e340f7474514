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

The ICT settlement advances the whole layer in one pass: each armed
attacker emits; last tick's unavailable nodes and those changed outside
recover when their clock runs out and send last tick's wave; the nodes an
attack can reach take their arrivals; and the nodes reachable from the
down ones over the dependency edges are effectively unavailable.
"""

from __future__ import annotations

from ..kernel import CoordinatorContext, Registry, RuleSet

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
    return {
        "available": True,
        "effective_available": True,
        "compromised_at": None,
        "recovery_due": None,
        "attack_prop": None,
        "attack_recovery_scale": None,
    }


def _init_attacker(params: dict, stream) -> dict:
    return {"active": False, "emitted_at": None, "attacks_emitted": 0}


def _emit(state: dict, tick: int) -> dict:
    """One-shot attack generation: an armed attacker emits once and disarms."""
    if not state["active"]:
        return state
    return {"active": False, "emitted_at": tick, "attacks_emitted": state["attacks_emitted"] + 1}


def _wave_spec(attacker_params: dict) -> tuple[float, float]:
    default_prop, recovery_scale = ATTACK_TYPES[attacker_params["attack_type"]]
    prop = attacker_params["propagation_probability"]
    if prop is None:
        prop = default_prop
    return float(prop), float(recovery_scale)


def _recover(state: dict, tick: int) -> dict:
    """Nominal operation plus recovery: restore once the clock runs out."""
    if state["available"] or tick < state["recovery_due"]:
        return state
    return dict(state, available=True, compromised_at=None, recovery_due=None,
                attack_prop=None, attack_recovery_scale=None)


def _arrival(cctx: CoordinatorContext, sid: str, providers: list[str],
             wave: dict[str, tuple[float, float]]) -> tuple[float, float] | None:
    """The (propagation, recovery scale) of the first attack that gets
    through to ``sid`` this tick, or None.

    Arrivals are direct emissions from attackers, then waves from providers
    compromised last tick.  Every potential arrival consumes the same draws,
    on the node's own stream, whether or not it succeeds, keeping draw
    streams aligned across paired scenarios.
    """
    hit = None
    vulnerability = cctx.params(sid)["vulnerability"]
    for attacker in cctx.dependents(sid, EDGE_ATTACKS):
        if cctx.get(attacker)["emitted_at"] != cctx.tick:
            continue
        spec = _wave_spec(cctx.params(attacker))
        if cctx.rng(sid, f"def:{attacker}").random() < vulnerability and hit is None:
            hit = spec
    for provider in providers:
        spec = wave.get(provider)
        if spec is None:
            continue
        transmitted = cctx.rng(sid, f"prop:{provider}").random() < spec[0]
        defended = cctx.rng(sid, f"def:{provider}").random() >= vulnerability
        if transmitted and not defended and hit is None:
            hit = spec
    return hit


def ict_settlement(cctx: CoordinatorContext) -> None:
    """Attack emission, recovery, arrivals and effective availability;
    publishes the effectively unavailable nodes as ``ict_unavailable``.

    After the attackers emit, the nodes that may be down are walked in id
    order: last tick's unavailable nodes and those changed outside the
    settlements (any other node is up, as every node starts up).  A
    walked node whose clock has run out recovers and sends no wave; one
    compromised last tick sends its wave, with the attack it had before any
    hit of this tick.  Each node an attack can reach takes its arrivals: a
    successful one compromises it, or on a down node rewinds its clock.
    The down nodes and every node reachable from them over the dependency
    edges are effectively unavailable, so a whole hierarchy outage shows up
    in the same tick's metrics.
    """
    tick = cctx.tick
    # the nodes an attack can reach this tick: the targets of the attackers
    # that emitted, and the dependents of the wave
    reached: set[str] = set()
    for attacker in cctx.members(ROLE_ATTACKER):
        state = cctx.get(attacker)
        emitted = _emit(state, tick)
        if emitted is not state:
            cctx.set(attacker, emitted)
            reached.update(cctx.providers(attacker, EDGE_ATTACKS))
    last_unavailable = cctx.published("ict_unavailable") or frozenset()
    walked = sorted(last_unavailable.union(cctx.changed_outside(ROLE_NODE)))
    down: list[str] = []
    wave: dict[str, tuple[float, float]] = {}  # compromised last tick -> its attack
    for sid in walked:
        before = cctx.get(sid)
        state = _recover(before, tick)
        if state is not before:
            cctx.set(sid, state)
        if state["compromised_at"] == tick - 1:
            wave[sid] = (state["attack_prop"], state["attack_recovery_scale"])
            reached.update(cctx.dependents(sid, EDGE_DEPENDS))
        if not state["available"]:
            down.append(sid)
    for sid in sorted(reached):
        hit = _arrival(cctx, sid, cctx.providers(sid, EDGE_DEPENDS), wave)
        if hit is not None:
            prop, scale = hit
            recovery = max(1, round(cctx.params(sid)["recovery_ticks"] * scale))
            cctx.set(sid, dict(cctx.get(sid), available=False, effective_available=False,
                               compromised_at=tick, recovery_due=tick + recovery,
                               attack_prop=prop, attack_recovery_scale=scale))
            down.append(sid)
    unavailable: set[str] = set()
    while down:
        sid = down.pop()
        if sid not in unavailable:
            unavailable.add(sid)
            down.extend(cctx.dependents(sid, EDGE_DEPENDS))
    for sid in sorted(unavailable.union(walked)):
        state = cctx.get(sid)
        if state["effective_available"] == (sid in unavailable):
            cctx.set(sid, dict(state, effective_available=sid not in unavailable))
    cctx.publish("ict_unavailable", frozenset(unavailable))


def _observe_node(state, params) -> list[tuple[str, object]]:
    return [
        ("availability", int(state["available"])),
        ("effective_available", int(state["effective_available"])),
    ]


def _observe_attacker(state, params) -> list[tuple[str, object]]:
    return [("attacks_emitted", state["attacks_emitted"])]


def _tally_node(state) -> tuple[bool, bool]:
    return state["effective_available"], state["available"]


def _aggregate(world, tallies) -> list[tuple[str, object]]:
    counts = tallies.get(ROLE_NODE)
    if counts is None:
        return []
    return [
        ("node_count", sum(counts.values())),
        ("available_count", sum(n for (effective, _), n in counts.items() if effective)),
        ("compromised_count", sum(n for (_, available), n in counts.items() if not available)),
    ]


def register(registry: Registry) -> None:
    registry.register_role(ROLE_NODE, RuleSet(
        init_state=_init_node,
        observe=_observe_node,
        tally=_tally_node,
    ))
    registry.register_role(ROLE_ATTACKER, RuleSet(
        init_state=_init_attacker,
        observe=_observe_attacker,
    ))
    registry.register_coordinator("ict", ict_settlement)
    registry.register_aggregator("ict", _aggregate)
