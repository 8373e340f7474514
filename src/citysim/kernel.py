"""Multi-layer world of agents and subagents with a staged tick pipeline.

A functional city entity (an agent) is split into one subagent per system
it participates in.  Each simulated hour every subagent's state advances
through three stages:

  internal  -- self-contained dynamics; reads only the subagent's own
               previous state and parameters.
  network   -- interaction with subagents of the same system layer; reads
               the post-internal snapshot of that layer.  Systems that need
               serialized arbitration (bed assignment, place settlement,
               the traffic federate) run a deterministic settlement pass
               here, after the per-subagent map.
  coupling  -- interaction between the subagents of one agent; reads the
               post-network snapshot of the agent's own members.

Each stage is evaluated for every subagent against the previous stage's
completed snapshot, so trajectories do not depend on registration or
iteration order.  State dicts are treated as immutable once published:
rules return a fresh dict (or None for "unchanged") and must never mutate
the dict handed to them.

A settlement may publish a read-only product for other layers, such as the
tick's contact graph.  It is replaced whole, never mutated, and visible from
the next stage on: a network rule sees what the previous tick's settlement
published.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .rng import Stream, TickRng

SYSTEMS = ("ict", "healthcare", "mobility", "social", "urban_landscape")

STAGE_INTERNAL = "internal"
STAGE_NETWORK = "network"
STAGE_COUPLING = "coupling"
STAGES = (STAGE_INTERNAL, STAGE_NETWORK, STAGE_COUPLING)


class KernelError(Exception):
    pass


class BuildError(KernelError):
    pass


class SimulationAbort(KernelError):
    """A rule raised a domain error; carries the offending subagent and tick."""

    def __init__(self, subagent_id: str, tick: int, cause: BaseException | str):
        self.subagent_id = subagent_id
        self.tick = tick
        self.cause = cause
        super().__init__(f"run aborted at tick {tick} in subagent {subagent_id!r}: {cause}")


@dataclass
class RuleSet:
    """Named, parameterizable behavior bound to a subagent role tag."""

    init_state: Callable[[dict, Stream], dict]
    internal: Callable | None = None
    network: Callable | None = None
    coupling: Callable | None = None
    observe: Callable | None = None  # record -> list[(metric name, value)]


class Registry:
    """Role tag -> RuleSet, plus per-system settlement passes and aggregators."""

    def __init__(self):
        self.rules: dict[str, RuleSet] = {}
        self.coordinators: dict[str, Callable] = {}
        self.aggregators: dict[str, Callable] = {}

    def register_role(self, role: str, ruleset: RuleSet) -> None:
        if role in self.rules:
            raise BuildError(f"role {role!r} registered twice")
        self.rules[role] = ruleset

    def register_coordinator(self, system: str, fn: Callable) -> None:
        self.coordinators[system] = fn

    def register_aggregator(self, system: str, fn: Callable) -> None:
        self.aggregators[system] = fn


@dataclass
class SubAgentRecord:
    """One subagent: identity, parameters, mutable state, rng stream binding."""

    id: str
    system: str
    agent_id: str
    role: str
    params: dict
    stream: Stream
    world: "World | None" = field(default=None, repr=False)
    # system -> subagent id for every member of this agent; one dict shared
    # by all of the agent's records
    siblings: dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def state(self) -> dict:
        return self.world.states[self.id]


@dataclass
class Agent:
    id: str
    members: dict[str, str]  # system -> subagent id; its records' siblings


class SystemLayer:
    """Membership set and intra-system dependency edges of one system."""

    def __init__(self, system: str):
        self.system = system
        self.members: set[str] = set()
        self.edges: list[tuple[str, str, str]] = []
        # (subagent, label) -> ascending ids at the other end of its outgoing
        # (targets) or incoming (sources) edges with that label; from finalize
        self.targets: dict[tuple[str, str], list[str]] = {}
        self.sources: dict[tuple[str, str], list[str]] = {}

    def add_edge(self, frm: str, to: str, label: str) -> None:
        if frm not in self.members or to not in self.members:
            raise BuildError(
                f"edge {frm!r}->{to!r} ({label}) references a subagent outside "
                f"the {self.system} layer"
            )
        self.edges.append((frm, to, label))

    def finalize(self) -> None:
        for frm, to, label in sorted(self.edges):
            self.targets.setdefault((frm, label), []).append(to)
            self.sources.setdefault((to, label), []).append(frm)


class RuleContext:
    """Read interface handed to rules; enforces the stage read discipline.

    internal: own state only.  network: own state plus same-layer peers.
    coupling: own state plus same-agent siblings.  Parameters of any
    subagent are readable everywhere (they are configuration, not state).
    """

    __slots__ = ("_world", "_stage", "_prev", "tick", "sid", "_record")

    def __init__(self, world: "World", stage: str, prev: dict, tick: int):
        self._world = world
        self._stage = stage
        self._prev = prev
        self.tick = tick
        self.sid = ""
        self._record: SubAgentRecord | None = None

    @property
    def params(self) -> dict:
        return self._record.params

    @property
    def state(self) -> dict:
        return self._prev[self.sid]

    def rng(self, label: str) -> TickRng:
        return self._record.stream.at(self.tick, label)

    def params_of(self, sid: str) -> dict:
        return self._world.records[sid].params

    def peer_state(self, sid: str) -> dict:
        if self._stage != STAGE_NETWORK:
            raise KernelError(f"peer_state only available in the network stage, not {self._stage}")
        layer = self._world.layers[self._record.system]
        if sid not in layer.members:
            raise KernelError(
                f"{self.sid!r} tried to read {sid!r} across layers "
                f"(own layer {self._record.system})"
            )
        return self._prev[sid]

    def providers(self, label: str) -> list[str]:
        """Targets of this subagent's outgoing edges with the given label,
        ascending.  The list is shared: read it, never mutate it."""
        return self._world.layers[self._record.system].targets.get((self.sid, label), [])

    def dependents(self, label: str) -> list[str]:
        """Sources of this subagent's incoming edges with the given label,
        ascending.  The list is shared: read it, never mutate it."""
        return self._world.layers[self._record.system].sources.get((self.sid, label), [])

    def sibling(self, system: str) -> tuple[str, dict] | None:
        """State of this agent's subagent in another system (coupling stage)."""
        if self._stage != STAGE_COUPLING:
            raise KernelError(f"sibling only available in the coupling stage, not {self._stage}")
        sid = self._world.counterpart(self.sid, system)
        if sid is None:
            return None
        return sid, self._prev[sid]

    def counterpart(self, sid: str, system: str) -> str | None:
        """Structural lookup: the given subagent's sibling in another system."""
        return self._world.counterpart(sid, system)

    def published(self, name: str):
        """The product last published under this name (None before the first)."""
        return self._world.published.get(name)


class CoordinatorContext:
    """Write interface for a system's settlement pass within the network stage.

    Reads the post-internal snapshot, sees the network map's output for its
    own layer, and may overwrite states of its own layer's members only.
    """

    __slots__ = ("_world", "system", "_prev", "_nxt", "tick", "_members")

    def __init__(self, world: "World", system: str, prev: dict, nxt: dict, tick: int):
        self._world = world
        self.system = system
        self._prev = prev
        self._nxt = nxt
        self.tick = tick
        self._members = world.layers[system].members

    def members(self, role: str) -> list[str]:
        """Sorted members of this layer with one role.  The list is shared by
        every tick: read it, never mutate it."""
        return self._world.layer_role_order.get((self.system, role), [])

    def get(self, sid: str) -> dict:
        if sid not in self._members:
            raise KernelError(f"{self.system} settlement read state of foreign subagent {sid!r}")
        return self._nxt[sid]

    def set(self, sid: str, state: dict) -> None:
        if sid not in self._members:
            raise KernelError(f"{self.system} settlement wrote to foreign subagent {sid!r}")
        self._nxt[sid] = state

    def params(self, sid: str) -> dict:
        return self._world.records[sid].params

    def rng(self, sid: str, label: str) -> TickRng:
        return self._world.records[sid].stream.at(self.tick, label)

    def service(self, name: str):
        return self._world.services[name]

    def providers(self, sid: str, label: str) -> list[str]:
        """As ``RuleContext.providers``, for any member of this layer."""
        return self._world.layers[self.system].targets.get((sid, label), [])

    def log(self, message: str) -> None:
        self._world.run_log.append((self.tick, message))

    def publish(self, name: str, value) -> None:
        """Replace the product published under this name; never mutate it."""
        self._world.published[name] = value

    def derived(self, name: str, compute: Callable[[], object]):
        """A value computed once per world from its frozen structure (members
        and edges), such as a settlement's evaluation order."""
        if name not in self._world.derived:
            self._world.derived[name] = compute()
        return self._world.derived[name]


class World:
    """All agents, subagents and layers, plus the tick loop state."""

    def __init__(self, master_seed: int, registry: Registry):
        self.master_seed = master_seed
        self.registry = registry
        self.tick = 0
        self.records: dict[str, SubAgentRecord] = {}
        self.agents: dict[str, Agent] = {}
        self.layers: dict[str, SystemLayer] = {s: SystemLayer(s) for s in SYSTEMS}
        self.states: dict[str, dict] = {}
        self.services: dict[str, object] = {}
        self.run_log: list[tuple[int, str]] = []
        self.derived: dict[str, object] = {}
        self.published: dict[str, object] = {}
        self._stage_plan: dict[str, list[tuple[SubAgentRecord, Callable]]] = {}
        self._role_order: dict[str, list[str]] | None = None
        self.layer_role_order: dict[tuple[str, str], list[str]] = {}
        self._finalized = False

    # -- assembly -----------------------------------------------------------

    def add_agent(self, agent_id: str, subagents: list[tuple[str, str, str, dict]]) -> None:
        """Register an agent and its (subagent id, system, role, params) members."""
        if self._finalized:
            raise BuildError("world already finalized")
        if agent_id in self.agents:
            raise BuildError(f"duplicate agent id {agent_id!r}")
        siblings: dict[str, str] = {}
        for sid, system, role, params in subagents:
            if system not in SYSTEMS:
                raise BuildError(f"unknown system {system!r} for subagent {sid!r}")
            if system in siblings:
                raise BuildError(
                    f"agent {agent_id!r} has two subagents in system {system!r}"
                )
            if sid in self.records:
                raise BuildError(f"duplicate subagent id {sid!r}")
            if role not in self.registry.rules:
                raise BuildError(f"no rules registered for role {role!r} (subagent {sid!r})")
            siblings[system] = sid
            record = SubAgentRecord(
                id=sid, system=system, agent_id=agent_id, role=role,
                params=params, stream=Stream(self.master_seed, sid), world=self,
                siblings=siblings,
            )
            self.records[sid] = record
            self.layers[system].members.add(sid)
        self.agents[agent_id] = Agent(agent_id, siblings)
        self._role_order = None

    def add_edge(self, system: str, frm: str, to: str, label: str) -> None:
        if self._finalized:
            raise BuildError("world already finalized")
        if system not in SYSTEMS:
            raise BuildError(f"unknown system {system!r}")
        for sid in (frm, to):
            if sid not in self.records:
                raise BuildError(f"edge references unknown subagent {sid!r}")
        self.layers[system].add_edge(frm, to, label)

    def finalize(self) -> None:
        """Freeze structure, derive initial states, precompute stage plans and
        the sorted member lists per role and per (layer, role)."""
        if self._finalized:
            raise BuildError("world already finalized")
        for layer in self.layers.values():
            layer.finalize()
        ordered = [self.records[sid] for sid in sorted(self.records)]
        self._role_order = {}
        for rec in ordered:
            self._role_order.setdefault(rec.role, []).append(rec.id)
            self.layer_role_order.setdefault((rec.system, rec.role), []).append(rec.id)
            ruleset = self.registry.rules[rec.role]
            if ruleset.observe is None:
                raise BuildError(f"role {rec.role!r} has no observability function")
            self.states[rec.id] = ruleset.init_state(rec.params, rec.stream)
        for stage in STAGES:
            plan: list[tuple[SubAgentRecord, Callable]] = []
            for rec in ordered:
                fn = getattr(self.registry.rules[rec.role], stage)
                if fn is not None:
                    plan.append((rec, fn))
            self._stage_plan[stage] = plan
        self._finalized = True

    # -- queries ------------------------------------------------------------

    def counterpart(self, sid: str, system: str) -> str | None:
        return self.records[sid].siblings.get(system)

    def role_members(self, role: str) -> list[str]:
        """Sorted ids of the subagents with this role (a fresh list)."""
        return list(self._roles().get(role, ()))

    def _roles(self) -> dict[str, list[str]]:
        """Role -> sorted member ids.  Finalize derives it; before that it is
        derived on first use, because mitigations resolve their selectors
        while the world is being built."""
        if self._role_order is None:
            order: dict[str, list[str]] = {}
            for sid in sorted(self.records):
                order.setdefault(self.records[sid].role, []).append(sid)
            self._role_order = order
        return self._role_order

    # -- dynamics -----------------------------------------------------------

    def step(self) -> None:
        """Advance every subagent one tick through the three-stage pipeline."""
        if not self._finalized:
            raise KernelError("world not finalized")
        tick = self.tick + 1
        prev = self.states
        for stage in STAGES:
            nxt = dict(prev)
            ctx = RuleContext(self, stage, prev, tick)
            for rec, fn in self._stage_plan[stage]:
                ctx.sid = sid = rec.id
                ctx._record = rec
                try:
                    out = fn(ctx)
                except KernelError:
                    raise
                except Exception as exc:
                    raise SimulationAbort(sid, tick, exc) from exc
                if out is not None:
                    nxt[sid] = out
            if stage == STAGE_NETWORK:
                for system in SYSTEMS:
                    coord = self.registry.coordinators.get(system)
                    if coord is not None:
                        cctx = CoordinatorContext(self, system, prev, nxt, tick)
                        try:
                            coord(cctx)
                        except KernelError:
                            raise
                        except Exception as exc:
                            raise SimulationAbort(f"<{system} settlement>", tick, exc) from exc
            prev = nxt
        self.states = prev
        self.tick = tick
