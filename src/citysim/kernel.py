"""Multi-layer world of agents and subagents, advanced one tick at a time.

A functional city entity (an agent) is split into one subagent per system
it participates in.  Each simulated hour the world advances in two steps:

  settlements  -- each system advances its own layer: one deterministic
                  pass per system in ``SYSTEMS`` order over a copy of last
                  tick's states.  The pass applies each member's own
                  dynamics before anything reads that member, then the
                  interaction inside the system, on its network.
  coupling     -- per-subagent map of interaction between systems; a rule
                  reads the post-settlement states of its agent's members.

The coupling map is evaluated against the completed post-settlement
snapshot, so trajectories do not depend on registration or iteration
order.  State dicts are treated as immutable once published: rules return
a fresh dict (or None for "unchanged") and must never mutate the dict
handed to them.

Every change the kernel sees is a settlement's ``set``, a coupling rule's
new state or ``World.change``, which is how a change made outside the tick
(a hazard, a test) reaches it.  The run keeps them in one change log,
``World.changes``: each subagent changed since the last step began, with
its state before that change.  Readers never drain it, so any number of
them (the recorders' rollups) can take what changed from it.  A
settlement gets the members of its layer changed outside the settlements
(``changed_outside``), which is how a settlement that walks only its
active members hears of a change it did not make.

A coupling rule runs only after a change it can see: a change of one of
its agent's siblings, or a change of its own subagent made outside its
settlement (its own new state, or ``World.change``).  A write by its own
settlement does not wake it.  A run starts with every subagent that has a
rule changed outside, so each rule runs at tick 1.  A timer that ends a
state, such as a convalescence, is kept by the settlement of the layer
that owns it, which gives the subagent a new state at that tick.  The
calls run in subagent id order.

A settlement may publish a read-only product for the settlements of other
layers, such as the tick's trips or where its citizens were placed.  It is
replaced whole, never mutated, and committed when the last settlement has
run, so every settlement reads what was published in the previous tick,
wherever its system sits in ``SYSTEMS``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

from .rng import Stream, TickRng

SYSTEMS = ("ict", "healthcare", "mobility", "social", "urban_landscape")


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
    """Named, parameterizable behavior bound to a subagent role tag.

    ``coupling`` is the role's rule in the coupling map.  It runs only
    after a change of a sibling or a change of its own subagent made
    outside its settlement, so it must return None whenever it is called
    with nothing changed, for the kernel then skips it; and it must not
    depend on what its own settlement writes to its own subagent, which
    does not wake it.  ``tally`` gives the class a member's state counts
    in for its system's rollup; the recorder keeps those counts from the
    change log.
    """

    init_state: Callable[[dict], dict]  # params -> the state at tick 0
    coupling: Callable | None = None
    observe: Callable | None = None  # (state, params) -> list[(metric name, value)]
    tally: Callable | None = None  # state -> a hashable class
    # not fields; kept for tracers that read every stage rule by name
    internal = None
    network = None

# the rules of a role that is structure only: no state, no coupling rule,
# nothing observed
STATELESS = RuleSet(init_state=lambda params: {}, observe=lambda state, params: [])


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


@dataclass(slots=True)
class SubAgentRecord:
    """One subagent's place in the structure: identity, the params it was
    built with, rng stream binding and its agent's district, which
    selectors match."""

    id: str
    system: str
    agent_id: str
    role: str
    params: dict
    stream: Stream
    district: str | None = None
    # system -> subagent id for every member of this agent; one dict shared
    # by all of the agent's records
    siblings: dict[str, str] = field(default_factory=dict, repr=False)
    # the siblings other than itself with a coupling rule; from finalize
    wakes: tuple[str, ...] = field(default=(), repr=False)


class SystemLayer:
    """Intra-system dependency edges of one system; its members are the
    records with that system."""

    def __init__(self, system: str):
        self.system = system
        self.edges: list[tuple[str, str, str]] = []
        # (subagent, label) -> ascending ids at the other end of its outgoing
        # (targets) or incoming (sources) edges with that label; from finalize
        self.targets: dict[tuple[str, str], list[str]] = {}
        self.sources: dict[tuple[str, str], list[str]] = {}

    def finalize(self) -> None:
        for frm, to, label in sorted(self.edges):
            self.targets.setdefault((frm, label), []).append(to)
            self.sources.setdefault((to, label), []).append(frm)


class RuleContext:
    """Read interface handed to a coupling rule: its own state and params,
    and the post-settlement states of its agent's siblings."""

    __slots__ = ("_world", "_prev", "tick", "sid")

    def __init__(self, world: "World", prev: dict, tick: int):
        self._world = world
        self._prev = prev
        self.tick = tick
        self.sid = ""

    @property
    def params(self) -> dict:
        return self._world.params[self.sid]

    @property
    def state(self) -> dict:
        return self._prev[self.sid]

    def sibling(self, system: str) -> dict | None:
        """State of this agent's subagent in another system, or None if the
        agent has none there."""
        sid = self._world.counterpart(self.sid, system)
        return None if sid is None else self._prev[sid]


class CoordinatorContext:
    """Write interface for a system's settlement pass.

    Reads and overwrites the states of its own layer's members only, in the
    tick's snapshot, which starts as a copy of last tick's states.  Products
    it publishes go into ``products``, which the kernel commits when the
    last settlement has run.
    """

    __slots__ = ("_world", "system", "_nxt", "tick", "_records", "_products", "_outside")

    def __init__(self, world: "World", system: str, nxt: dict, tick: int, products: dict,
                 outside: set[str]):
        self._world = world
        self.system = system
        self._nxt = nxt
        self.tick = tick
        self._records = world.records
        self._products = products
        self._outside = outside

    def members(self, role: str, system: str | None = None) -> list[str]:
        """Sorted members of this layer (or of ``system``'s) with one role.
        The list is shared by every tick: read it, never mutate it."""
        return self._world.layer_role_order.get((system or self.system, role), [])

    def get(self, sid: str) -> dict:
        if self._records[sid].system != self.system:
            raise KernelError(f"{self.system} settlement read state of foreign subagent {sid!r}")
        return self._nxt[sid]

    def set(self, sid: str, state: dict) -> None:
        if self._records[sid].system != self.system:
            raise KernelError(f"{self.system} settlement wrote to foreign subagent {sid!r}")
        self._world.changes.setdefault(sid, self._nxt[sid])
        self._nxt[sid] = state

    def changed_outside(self, role: str) -> list[str]:
        """The members of this layer with one role changed outside the
        settlements since the last step began, by a coupling rule or
        ``World.change``, in no order."""
        records, system = self._records, self.system
        return [sid for sid in self._outside
                if records[sid].system == system and records[sid].role == role]

    def params(self, sid: str) -> dict:
        return self._world.params[sid]

    def agent_id(self, sid: str) -> str:
        """The id of the agent the subagent belongs to, such as a place's id."""
        return self._records[sid].agent_id

    def built(self, sid: str) -> dict:
        """The params the subagent was built with, which the run's own
        (``params``) replace where a mitigation or hazard changed them."""
        return self._records[sid].params

    def rng(self, sid: str, label: str) -> TickRng:
        return self._records[sid].stream.at(self.tick, label)

    def stream(self, sid: str) -> Stream:  # the structure's own: keeping it keeps no run
        return self._records[sid].stream

    def service(self, name: str):
        return self._world.services[name]

    def providers(self, sid: str, label: str) -> list[str]:
        """Targets of the member's outgoing edges with the given label,
        ascending.  The list is shared: read it, never mutate it."""
        return self._world.layers[self.system].targets.get((sid, label), [])

    def dependents(self, sid: str, label: str) -> list[str]:
        """Sources of the member's incoming edges with the given label,
        ascending.  The list is shared: read it, never mutate it."""
        return self._world.layers[self.system].sources.get((sid, label), [])

    def log(self, message: str) -> None:
        self._world.run_log.append((self.tick, message))

    def counterpart(self, sid: str, system: str) -> str | None:
        """Structural lookup: the given subagent's sibling in another system."""
        return self._world.counterpart(sid, system)

    def published(self, name: str):
        """The product last published under this name before this tick
        (None before the first)."""
        return self._world.published.get(name)

    def publish(self, name: str, value) -> None:
        """Replace the product published under this name from the next tick
        on; never mutate it."""
        self._products[name] = value

    def derived(self, name: str, compute: Callable[[], object]):
        """A value computed once per structure from its members and edges,
        such as the social settlement's boundary index; every run shares it."""
        if name not in self._world.derived:
            self._world.derived[name] = compute()
        return self._world.derived[name]


class World:
    """A city's frozen structure, or one run on it.

    ``finalize`` freezes the structure: registry, records (with the params
    each subagent was built with), layers and edge index, role orders, the
    coupling plan, ``derived`` and the services a build attaches.  ``start``
    begins a run: a shallow copy that shares all of that and owns its
    ``params`` map (sharing the records' dicts until a change copies one),
    the states derived from it, ``tick``, ``published``, ``run_log``, a
    ``services`` dict, its change log and the subagents changed outside the
    settlements since the last step began.  A structure holds neither
    params map nor states; it cannot step.

    ``changes`` maps each subagent changed since the last step began to
    its state before that change.  ``version`` counts the steps begun and
    the ``World.change`` calls of the run, and ``changes_since`` is the
    version the log opened at: a reader that read at that version finds in
    the log exactly what changed since.
    """

    def __init__(self, master_seed: int, registry: Registry):
        self.master_seed = master_seed
        self.registry = registry
        self.records: dict[str, SubAgentRecord] = {}
        self.layers: dict[str, SystemLayer] = {s: SystemLayer(s) for s in SYSTEMS}
        self.services: dict[str, object] = {}
        self.derived: dict[str, object] = {}
        self.params: dict[str, dict] | None = None
        self.states: dict[str, dict] | None = None
        self.tick = 0
        self.run_log: list[tuple[int, str]] = []
        self.published: dict[str, object] = {}
        # the records with a coupling rule, in id order; role -> its rule
        self._plan: list[SubAgentRecord] = []
        self._rules: dict[str, Callable] = {}
        self.changes: dict[str, dict] = {}
        self.version = self.changes_since = 0
        # per run, the subagents changed outside the settlements since the
        # last step began; a run starts with those that have a rule
        self._outside: set[str] = set()
        self._role_order: dict[str, list[str]] = {}
        self.layer_role_order: dict[tuple[str, str], list[str]] = {}
        self._finalized = False

    # -- assembly -----------------------------------------------------------

    def add_agent(self, agent_id: str, subagents: list[tuple[str, str, str, dict]],
                  district: str | None = None) -> None:
        """Register an agent in a district and its (subagent id, system,
        role, params) members."""
        if self._finalized:
            raise BuildError("world already finalized")
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
            self.records[sid] = SubAgentRecord(
                id=sid, system=system, agent_id=agent_id, role=role,
                params=params, stream=Stream(self.master_seed, sid), district=district,
                siblings=siblings,
            )

    def add_edge(self, system: str, frm: str, to: str, label: str) -> None:
        if self._finalized:
            raise BuildError("world already finalized")
        if system not in SYSTEMS:
            raise BuildError(f"unknown system {system!r}")
        for sid in (frm, to):
            if sid not in self.records:
                raise BuildError(f"edge references unknown subagent {sid!r}")
            if self.records[sid].system != system:
                raise BuildError(f"edge {frm!r}->{to!r} ({label}) references a subagent "
                                 f"outside the {system} layer")
        self.layers[system].edges.append((frm, to, label))

    def finalize(self) -> None:
        """Freeze the structure: records in id order, edge index, coupling
        plan and sorted member lists per role and per (layer, role).  The
        params come from a document the scenario schema accepted, so
        nothing here checks them; ``start`` derives each run's states."""
        if self._finalized:
            raise BuildError("world already finalized")
        for layer in self.layers.values():
            layer.finalize()
        self.records = {sid: self.records[sid] for sid in sorted(self.records)}
        agents: dict[str, dict[str, str]] = {}  # agent id -> its members
        for rec in self.records.values():
            if agents.setdefault(rec.agent_id, rec.siblings) is not rec.siblings:
                raise BuildError(f"duplicate agent id {rec.agent_id!r}")
            self._role_order.setdefault(rec.role, []).append(rec.id)
            self.layer_role_order.setdefault((rec.system, rec.role), []).append(rec.id)
            if self.registry.rules[rec.role].observe is None:
                raise BuildError(f"role {rec.role!r} has no observability function")
        self._rules = {role: ruleset.coupling
                       for role, ruleset in self.registry.rules.items() if ruleset.coupling}
        self._plan = [rec for rec in self.records.values() if rec.role in self._rules]
        for siblings in agents.values():
            ruled = tuple(s for s in siblings.values() if self.records[s].role in self._rules)
            for sid in siblings.values():
                rec = self.records[sid]
                rec.wakes = ruled if rec.role not in self._rules else tuple(
                    s for s in ruled if s != sid)
        self._finalized = True

    def start(self, params: dict[str, dict] | None = None) -> "World":
        """A fresh run at tick 0 with this params map (default: as built),
        in which every subagent with a coupling rule counts as changed."""
        if not self._finalized:
            raise KernelError("world not finalized")
        run = copy.copy(self)
        run.params = self.built_params() if params is None else params
        run.states = {
            sid: self.registry.rules[rec.role].init_state(run.params[sid])
            for sid, rec in self.records.items()
        }
        run.tick, run.run_log, run.published, run.services = 0, [], {}, dict(self.services)
        run.changes, run.version, run.changes_since = {}, 0, 0
        run._outside = {rec.id for rec in self._plan}
        return run

    # -- queries ------------------------------------------------------------

    def built_params(self) -> dict[str, dict]:
        """A new params map of the records' params, each as built."""
        return {sid: rec.params for sid, rec in self.records.items()}

    def counterpart(self, sid: str, system: str) -> str | None:
        return self.records[sid].siblings.get(system)

    def role_members(self, role: str) -> list[str]:
        """Sorted ids of the subagents with this role (a fresh list)."""
        if not self._finalized:
            raise KernelError("world not finalized")
        return list(self._role_order.get(role, ()))

    # -- dynamics -----------------------------------------------------------

    def change(self, sid: str, state: dict | None = None) -> None:
        """A change made outside the tick, such as a hazard's: the new state
        of ``sid`` if one is given, else a change of its params already made
        in ``self.params``.  The rules that read it run at the next step."""
        self.changes.setdefault(sid, self.states[sid])
        if state is not None:
            self.states[sid] = state
        self._outside.add(sid)
        self.version += 1

    def _calls(self, settled: dict, outside: set[str]) -> list[SubAgentRecord]:
        """This tick's coupling rule calls, in subagent id order: the rules
        of the siblings of the subagents the settlements changed
        (``settled``) or that were changed outside them since the map last
        ran (``outside``), and the rules of the latter themselves."""
        records, rules = self.records, self._rules
        woken = {sid for sid in outside if records[sid].role in rules}
        for sid in chain(settled, outside):
            woken.update(records[sid].wakes)
        return [records[sid] for sid in sorted(woken)]

    def _couple(self, prev: dict, tick: int, outside: set[str]) -> None:
        """Apply this tick's coupling rule calls to ``prev``, after all of
        them have read it."""
        ctx = RuleContext(self, prev, tick)
        rules, outs = self._rules, []
        for rec in self._calls(self.changes, outside):
            ctx.sid = sid = rec.id
            try:
                out = rules[rec.role](ctx)
            except KernelError:
                raise
            except Exception as exc:
                raise SimulationAbort(sid, tick, exc) from exc
            if out is not None:
                outs.append((sid, out))
        changes = self.changes
        for sid, out in outs:
            changes.setdefault(sid, prev[sid])
            prev[sid] = out
        self._outside.update(sid for sid, _ in outs)

    def step(self) -> None:
        """Advance the world one tick: the settlements in ``SYSTEMS`` order
        over a copy of last tick's states, then the coupling map.  Opens a
        new change log."""
        if self.states is None:
            raise KernelError("world not started")
        tick = self.tick + 1
        nxt = dict(self.states)
        products: dict[str, object] = {}
        outside, self._outside = self._outside, set()
        self.changes, self.changes_since = {}, self.version
        self.version += 1
        for system in SYSTEMS:
            coord = self.registry.coordinators.get(system)
            if coord is not None:
                try:
                    coord(CoordinatorContext(self, system, nxt, tick, products, outside))
                except KernelError:
                    raise
                except Exception as exc:
                    raise SimulationAbort(f"<{system} settlement>", tick, exc) from exc
        self.published.update(products)
        self._couple(nxt, tick, outside)
        self.states = nxt
        self.tick = tick
