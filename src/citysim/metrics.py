"""Observability: subagent metrics, system aggregates, service levels, deaths.

Service Level is a [0, 1] degradation index per system: 1 is full service,
0 is complete degradation.  The three system formulas are deliberately tiny
pure functions so they can be checked against hand arithmetic:

  ICT         available nodes / total nodes
  healthcare  mean over hospitals of max(0, 1 - unattended / capacity)
  mobility    mean over stations of min(speed_risk / speed_baseline, 1)

The mobility formula needs a paired baseline run; it is computed post hoc
from tick-aligned station series, never inside a single run.

A run's rows are kept as blocks: one ``(scope, ((metric, value), ...))``
tuple per observed subagent observation and per system rollup.  A tick
holds references to its blocks in row order.  The recorder reads what
changed from the world's change log: only an observed subagent in the log
gets a new block, the others add the block they already have, and the
export formats each distinct block once.
"""

from __future__ import annotations

import logging
import math
import operator
from collections import Counter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .kernel import World

log = logging.getLogger(__name__)


class MetricSample(NamedTuple):
    tick: int
    scope: str  # subagent id, system name, or "city"
    name: str
    value: float | int | str


# -- service level formulas --------------------------------------------------

def sl_ict(available_flags: Sequence[bool]) -> float:
    """Fraction of available infrastructure nodes (attackers excluded by caller)."""
    if not available_flags:
        raise ValueError("ICT service level needs a non-empty layer")
    return sum(1 for a in available_flags if a) / len(available_flags)


def sl_healthcare(hospitals: Sequence[tuple[float, float]]) -> float:
    """Mean per-hospital term over (unattended patients, current general capacity).

    Capacity is the current, possibly degraded bed count.  A non-positive
    capacity counts as fully degraded (term 0).
    """
    if not hospitals:
        raise ValueError("healthcare service level needs at least one hospital")
    total = 0.0
    for unattended, capacity in hospitals:
        if capacity <= 0:
            log.warning("hospital with non-positive capacity %s treated as fully degraded", capacity)
            continue
        total += max(0.0, 1.0 - unattended / capacity)
    return total / len(hospitals)


def sl_mobility(risk_speeds: Mapping[str, float],
                baseline_speeds: Mapping[str, float]) -> float:
    """Mean clamped speed ratio over common stations at one tick.

    Stations with a zero baseline speed are skipped (logged); if nothing is
    left the tick reports 1.0 so exports never carry NaN.
    """
    ratios = []
    for station in sorted(risk_speeds):
        if station not in baseline_speeds:
            continue
        base = baseline_speeds[station]
        if base <= 0:
            log.warning("station %s skipped: baseline speed %s", station, base)
            continue
        ratios.append(min(risk_speeds[station] / base, 1.0))
    if not ratios:
        return 1.0
    return sum(ratios) / len(ratios)


# -- subagent / system observation -------------------------------------------

Block = tuple  # (scope, ((metric, value), ...)): rows that share tick and scope


def observe_subagent(world: World, sid: str) -> Block | None:
    """Apply the role's observability function to the run's state and params
    of one subagent; exports only declared keys.  None if it declares none."""
    fn = world.registry.rules[world.records[sid].role].observe
    pairs = tuple(fn(world.states[sid], world.params[sid]))
    for name, value in pairs:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"non-finite metric {name}={value} on {sid}")
    return (sid, pairs) if pairs else None


def aggregate_system(world: World, system: str, tallies: Mapping[str, Counter]) -> Block | None:
    """Domain-specific system rollups (registered per system), from the
    world and the tallies of the roles that declare one; None if there are
    none."""
    fn = world.registry.aggregators.get(system)
    pairs = tuple(fn(world, tallies)) if fn is not None else ()
    return (system, pairs) if pairs else None


class Rows:
    """One run's rows, read-only: iterating yields its ``MetricSample``s in
    row order, built one at a time, and ``len`` counts them.

    ``ticks`` holds (tick, blocks) per observed tick; a block appears in
    every tick that reuses it.  ``blocks`` holds each distinct block once,
    in the order it was first recorded.  No block is empty.
    """

    def __init__(self):
        self.ticks: list[tuple[int, list[Block]]] = []
        self.blocks: list[Block] = []

    def __len__(self) -> int:
        return sum(len(pairs) for _, blocks in self.ticks for _, pairs in blocks)

    def __iter__(self) -> Iterator[MetricSample]:
        new = tuple.__new__  # a row without a Python-level __new__
        for tick, blocks in self.ticks:
            for scope, pairs in blocks:
                for name, value in pairs:
                    yield new(MetricSample, (tick, scope, name, value))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rows):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class Recorder:
    """Collects one run's rows, SL series and station speeds tick by tick.

    ``observed_roles`` limits which roles get per-subagent rows in the
    export; population-scale roles are covered by the system aggregates so
    exports stay a few MB instead of hundreds.  Each tick records, in row
    order, the block of every observed subagent that has rows, then the
    system rollups, the service levels and the cumulative deaths.
    ``rollups`` keeps this tick's system aggregates by (system, metric),
    the one count of population state.

    What changed since the last observation is read from the world's change
    log, in one pass that serves the rows and the rollups.  An observed
    subagent in the log gets its block anew from its observe function; the
    others keep the block they have, so an unchanged subagent adds the
    block it already has.  A member of a role with a ``tally`` moves from
    the class of its old state to that of its new one.  Every params change
    reaches the log through ``World.change``.  Whenever the log does not
    start where the recorder last observed, as at its first observation or
    after a change made between an observation and the next step, every
    block is taken and every tally counted anew.  Reading the log leaves it
    as it is for the other readers.
    """

    DEFAULT_ROLES = (
        "hospital", "cyber-infrastructure", "cyber-attacker",
        "roadway", "traffic-light",
    )

    def __init__(self, world: World, observed_roles: Sequence[str] | None = None):
        self.world = world
        roles = self.DEFAULT_ROLES if observed_roles is None else tuple(observed_roles)
        self.rows = Rows()
        self.sl: dict[str, list[float]] = {"ict": [], "healthcare": []}
        self.deaths: list[int] = []
        self.station_speeds: dict[str, list[float]] = {
            sid: [] for sid in world.role_members("roadway")
            if world.params[sid]["station"]
        }
        self._hospitals = world.role_members("hospital")
        self.rollups: dict[tuple[str, str], object] = {}
        # observed subagent -> its block (None if it has no rows), in row order
        self._blocks: dict[str, Block | None] = dict.fromkeys(sorted(
            sid for role in set(roles) for sid in world.role_members(role)))
        # role -> its tally function, for the roles with one and with members
        self._tallied: dict[str, Callable] = {
            role: rules.tally for role, rules in world.registry.rules.items()
            if rules.tally and world.role_members(role)}
        self._tallies: dict[str, Counter] = {}
        self._version: int | None = None  # the world's version when last observed

    def observe(self) -> None:
        world = self.world
        rows, blocks, tallied, states = self.rows, self._blocks, self._tallied, world.states
        if world.changes_since != self._version:
            for sid in blocks:
                blocks[sid] = observe_subagent(world, sid)
            rows.blocks += filter(None, blocks.values())
            self._tallies = {role: Counter(fn(states[sid]) for sid in world.role_members(role))
                             for role, fn in tallied.items()}
        else:
            records, tallies = world.records, self._tallies
            for sid, old in world.changes.items():
                if sid in blocks:
                    block = blocks[sid] = observe_subagent(world, sid)
                    if block is not None:
                        rows.blocks.append(block)
                role = records[sid].role
                new = states[sid]
                if new is old or role not in tallied:
                    continue
                before, after = tallied[role](old), tallied[role](new)
                if before != after:
                    counts = tallies[role]
                    counts[before] -= 1
                    counts[after] += 1
        self._version = world.version
        tick_blocks = list(filter(None, blocks.values()))
        tail = [block for system in world.layers
                if (block := aggregate_system(world, system, self._tallies)) is not None]
        self.rollups = {(system, name): value for system, pairs in tail for name, value in pairs}
        ict_nodes = self.rollups.get(("ict", "node_count"))
        if ict_nodes:
            value = self.rollups["ict", "available_count"] / ict_nodes
            self.sl["ict"].append(value)
            tail.append(("ict", (("service_level", value),)))
        if self._hospitals:
            terms = [
                (states[s]["unattended_this_tick"], states[s]["general_capacity"])
                for s in self._hospitals
            ]
            value = sl_healthcare(terms)
            self.sl["healthcare"].append(value)
            tail.append(("healthcare", (("service_level", value),)))
        deaths = self.rollups.get(("healthcare", "total_dead"), 0)
        self.deaths.append(deaths)
        tail.append(("city", (("cumulative_deaths", deaths),)))
        tick_blocks += tail
        rows.blocks += tail
        rows.ticks.append((world.tick, tick_blocks))
        for sid in self.station_speeds:
            self.station_speeds[sid].append(states[sid]["mean_speed"])
