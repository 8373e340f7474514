"""Federation contract for an external traffic simulator, plus the built-in
reference federate.

The engine drives any traffic backend through four calls: initialize,
inject (route insertions, traffic-light set-state, roadway capacity and
free-flow speed), advance (lockstep, one tick at a time), and query
(per-roadway mean speed and intensity, per-light status).  The reference
federate is a mesoscopic stand-in: each roadway's mean speed follows a
speed-density relation, and a switched-off traffic light shrinks the
effective capacity of the roadways it controls, raising occupancy pressure
and lowering speed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class LockstepError(Exception):
    pass


class FederationAdapter(ABC):
    """Synchronous, lockstep contract an external traffic simulator must meet."""

    @abstractmethod
    def initialize(self, network: dict, seed: int) -> None: ...

    @abstractmethod
    def inject(self, commands: list[dict]) -> None:
        """Commands for the next ``advance``, each a dict with a ``kind``:
        ``route`` (``vehicle_id``, ``edges``: roadway ids), ``light``
        (``light_id``, ``status``: "on" or "off") or ``roadway``
        (``roadway_id``, ``capacity``, ``free_flow_mps``: the roadway's
        new values).  Light and roadway commands are deltas: the federate
        keeps what ``initialize`` or the last command gave each light and
        roadway until a command changes it.  A route's edge list is the
        caller's: the federate reads it and never mutates it.  An
        unknown kind or id raises LockstepError."""

    @abstractmethod
    def advance(self, tick: int) -> None: ...

    @abstractmethod
    def query(self) -> dict:
        """Observables of the last advanced tick: each roadway's mean speed
        and intensity, each light's status.  The caller must treat the
        returned dict and everything in it as read-only; an adapter may hand
        out the same objects until its next ``advance``."""


def roadway_mean_speed(free_flow: float, occupancy: float, capacity: float,
                       v_min_frac: float, throughput_factor: float) -> float:
    """Speed-density relation for one roadway at one tick.

    Speed falls linearly with occupancy over effective capacity and is
    floored at v_min_frac * free_flow, never 0.  An off traffic light
    multiplies throughput (effective capacity) by its factor.
    """
    effective_capacity = capacity * throughput_factor
    if effective_capacity <= 0:
        return v_min_frac * free_flow
    fraction = 1.0 - occupancy / effective_capacity
    return free_flow * max(v_min_frac, fraction)


class ReferenceTrafficSimulator(FederationAdapter):
    """In-process mesoscopic federate implementing the adapter contract.

    Ticks are an hour long, so an injected vehicle traverses its whole
    route within the tick it was injected: a roadway's intensity at a tick,
    the occupancy in its speed law, is the number of vehicles whose route
    crosses it that tick.  The model is a pure function of (injected
    routes, light states, roadway specs), deterministic by construction;
    the seed is accepted for contract compatibility.
    """

    def __init__(self, v_min_frac: float, light_off_factor: float):
        self.v_min_frac = v_min_frac
        self.light_off_factor = light_off_factor
        self._roadways: dict[str, dict] = {}
        self._lights_of: dict[str, list[str]] = {}
        self._light_state: dict[str, str] = {}
        self._pending_routes: list[list[str]] = []
        self._tick = 0
        self._observables: dict = {"roadways": {}, "lights": {}}

    def initialize(self, network: dict, seed: int) -> None:
        self._roadways = {rid: dict(spec) for rid, spec in network["roadways"].items()}
        self._lights_of = {rid: list(spec.get("lights", [])) for rid, spec in network["roadways"].items()}
        self._light_state = {lid: "on" for lid in network.get("lights", [])}
        self._tick = 0
        self._observables = {
            "roadways": {
                rid: {"mean_speed": spec["free_flow_mps"], "intensity": 0}
                for rid, spec in self._roadways.items()
            },
            "lights": dict(self._light_state),
        }

    def inject(self, commands: list[dict]) -> None:
        for cmd in commands:
            if cmd["kind"] == "route":
                self._pending_routes.append(cmd["edges"])
            elif cmd["kind"] == "light":
                if cmd["light_id"] not in self._light_state:
                    raise LockstepError(f"unknown traffic light {cmd['light_id']!r}")
                self._light_state[cmd["light_id"]] = cmd["status"]
            elif cmd["kind"] == "roadway":
                spec = self._roadways.get(cmd["roadway_id"])
                if spec is None:
                    raise LockstepError(f"unknown roadway {cmd['roadway_id']!r}")
                spec.update(capacity=cmd["capacity"], free_flow_mps=cmd["free_flow_mps"])
            else:
                raise LockstepError(f"unknown inject command kind {cmd['kind']!r}")

    def advance(self, tick: int) -> None:
        if tick != self._tick + 1:
            raise LockstepError(
                f"lockstep violation: advance to {tick} after tick {self._tick}"
            )
        demand: dict[str, int] = {rid: 0 for rid in self._roadways}
        for route in self._pending_routes:
            for rid in route:
                if rid not in demand:
                    raise LockstepError(f"route references unknown roadway {rid!r}")
                demand[rid] += 1
        roadway_obs = {}
        for rid, spec in self._roadways.items():
            factor = 1.0
            if any(self._light_state.get(lid) == "off" for lid in self._lights_of[rid]):
                factor = self.light_off_factor
            speed = roadway_mean_speed(
                spec["free_flow_mps"], demand[rid], spec["capacity"],
                self.v_min_frac, factor,
            )
            roadway_obs[rid] = {"mean_speed": speed, "intensity": demand[rid]}
        self._observables = {"roadways": roadway_obs, "lights": dict(self._light_state)}
        self._pending_routes = []
        self._tick = tick

    def query(self) -> dict:
        """Observables of exactly the last advanced tick, as ``advance``
        built them (read-only, see ``FederationAdapter.query``)."""
        return self._observables


ADAPTERS = {"reference": ReferenceTrafficSimulator}
