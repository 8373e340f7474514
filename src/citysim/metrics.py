"""Observability: subagent metrics, system aggregates, service levels, deaths.

Service Level is a [0, 1] degradation index per system: 1 is full service,
0 is complete degradation.  The three system formulas are deliberately tiny
pure functions so they can be checked against hand arithmetic:

  ICT         available nodes / total nodes
  healthcare  mean over hospitals of max(0, 1 - unattended / capacity)
  mobility    mean over stations of min(speed_risk / speed_baseline, 1)

The mobility formula needs a paired baseline run; it is computed post hoc
from tick-aligned station series, never inside a single run.
"""

from __future__ import annotations

import logging
import math
from typing import Mapping, NamedTuple, Sequence

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

def observe_subagent(world: World, sid: str) -> list[MetricSample]:
    """Apply the role's observability function to the run's state and params
    of one subagent; exports only declared keys."""
    fn = world.registry.rules[world.records[sid].role].observe
    tick = world.tick
    samples = []
    for name, value in fn(world.states[sid], world.params[sid]):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"non-finite metric {name}={value} on {sid}")
        samples.append(MetricSample(tick, sid, name, value))
    return samples


def aggregate_system(world: World, system: str) -> list[MetricSample]:
    """Domain-specific system rollups (registered per system)."""
    fn = world.registry.aggregators.get(system)
    if fn is None:
        return []
    return [MetricSample(world.tick, system, name, value) for name, value in fn(world)]


class Recorder:
    """Collects one run's samples, SL series and station speeds tick by tick.

    ``observed_roles`` limits which roles get per-subagent rows in the
    export; population-scale roles are covered by the system aggregates so
    exports stay a few MB instead of hundreds.  An observed subagent whose
    state and params are the objects it had when last observed gets the
    same (metric, value) pairs again without a call to its observe function.
    ``rollups`` keeps this tick's system aggregates by (system, metric), the
    one count of population state.
    """

    DEFAULT_ROLES = (
        "hospital", "cyber-infrastructure", "cyber-attacker",
        "roadway", "traffic-light",
    )

    def __init__(self, world: World, observed_roles: Sequence[str] | None = None):
        self.world = world
        roles = self.DEFAULT_ROLES if observed_roles is None else tuple(observed_roles)
        self._observed = sorted(
            sid for role in set(roles) for sid in world.role_members(role)
        )
        self.rows: list[MetricSample] = []
        self.sl: dict[str, list[float]] = {"ict": [], "healthcare": []}
        self.deaths: list[int] = []
        self.station_speeds: dict[str, list[float]] = {
            sid: [] for sid in world.role_members("roadway")
            if world.params[sid]["station"]
        }
        self._ict_nodes = world.role_members("cyber-infrastructure")
        self._hospitals = world.role_members("hospital")
        self.rollups: dict[tuple[str, str], object] = {}
        # observed subagent -> (state, params, pairs) when last observed
        self._seen: dict[str, tuple[dict, dict, list[tuple[str, object]]]] = {}

    def observe(self) -> None:
        world = self.world
        tick = world.tick
        rows, seen, states, params_of = self.rows, self._seen, world.states, world.params
        append, new = rows.append, tuple.__new__  # a row without a Python-level __new__
        for sid in self._observed:
            state, params = states[sid], params_of[sid]
            last = seen.get(sid)
            if last is not None and last[0] is state and last[1] is params:
                for name, value in last[2]:
                    append(new(MetricSample, (tick, sid, name, value)))
                continue
            samples = observe_subagent(world, sid)
            seen[sid] = (state, params, [(s.name, s.value) for s in samples])
            rows.extend(samples)
        rollups = [s for system in world.layers for s in aggregate_system(world, system)]
        self.rows.extend(rollups)
        self.rollups = {(s.scope, s.name): s.value for s in rollups}
        if self._ict_nodes:
            flags = [world.states[s]["effective_available"] for s in self._ict_nodes]
            value = sl_ict(flags)
            self.sl["ict"].append(value)
            self.rows.append(MetricSample(tick, "ict", "service_level", value))
        if self._hospitals:
            terms = [
                (world.states[s]["unattended_this_tick"], world.states[s]["general_capacity"])
                for s in self._hospitals
            ]
            value = sl_healthcare(terms)
            self.sl["healthcare"].append(value)
            self.rows.append(MetricSample(tick, "healthcare", "service_level", value))
        deaths = self.rollups.get(("healthcare", "total_dead"), 0)
        self.deaths.append(deaths)
        self.rows.append(MetricSample(tick, "city", "cumulative_deaths", deaths))
        for sid in self.station_speeds:
            self.station_speeds[sid].append(world.states[sid]["mean_speed"])
