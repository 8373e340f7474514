"""Independent oracles used to validate the engine from the outside.

Nothing here touches the kernel or the rule modules: the epidemic oracle
is a closed-form difference-equation integrator, the attack oracle is a
plain breadth-first walk over the dependency graph, and the ward-occupancy
oracle is a direct array simulation.  Tests compare engine output against
these, so they must stay independent of the code paths they check.
"""

from __future__ import annotations

import numpy as np


def sir_prevalence(population: int, initial_infected: int, beta: float,
                   contact_k: int, infectious_hours: int, horizon: int) -> np.ndarray:
    """Deterministic discrete-time epidemic curve for a fully mixed group.

    Contacts: each person draws `contact_k` distinct partners per hour and
    links are symmetrized, giving an effective degree of
    2k - k^2/(n-1).  A susceptible with m infectious partners (at most n-1)
    escapes with probability (1-beta)^m; infections last `infectious_hours`.
    Returns the prevalence (infected count) series, length horizon + 1.
    """
    n = population
    degree = 2.0 * contact_k - (contact_k ** 2) / (n - 1)
    susceptible = float(n - initial_infected)
    infected = float(initial_infected)
    new_infections = np.zeros(horizon + 1)
    new_infections[0] = initial_infected
    prevalence = np.zeros(horizon + 1)
    prevalence[0] = infected
    for t in range(1, horizon + 1):
        pressure = 1.0 - (1.0 - beta * min(infected, n - 1) / (n - 1)) ** degree
        fresh = susceptible * pressure
        recovered = new_infections[t - infectious_hours] if t >= infectious_hours else 0.0
        susceptible -= fresh
        infected += fresh - recovered
        new_infections[t] = fresh
        prevalence[t] = infected
    return prevalence


def single_peaked(series: np.ndarray, smooth_window: int = 24,
                  tolerance: float = 0.05) -> bool:
    """True when the (smoothed) curve rises to one maximum and then falls.

    Robust criterion for noisy data: after smoothing, the curve must cross
    half its peak exactly once on the way up and once on the way down, and
    never rebound above peak * (0.5 + tolerance) after the down-crossing.
    """
    kernel = np.ones(smooth_window) / smooth_window
    smooth = np.convolve(series, kernel, mode="valid")
    peak = smooth.max()
    if peak <= 0:
        return False
    above = smooth >= 0.5 * peak
    changes = np.flatnonzero(np.diff(above.astype(int)))
    if len(changes) != 2:
        return False
    down = changes[1]
    return not np.any(smooth[down + 1:] > peak * (0.5 + tolerance))


def compromise_times(dependents_of: dict[str, list[str]], first_hit: str,
                     hit_tick: int) -> dict[str, int]:
    """Breadth-first compromise times for fully deterministic parameters
    (vulnerability 1, propagation 1): the initial node falls at hit_tick
    and the attack moves one dependency hop per tick."""
    times = {first_hit: hit_tick}
    frontier = [first_hit]
    while frontier:
        nxt = []
        for node in frontier:
            for child in dependents_of.get(node, ()):
                if child not in times:
                    times[child] = times[node] + 1
                    nxt.append(child)
        frontier = nxt
    return times


def ward_occupancy_mc(arrivals_per_tick: int, service_lo: int, service_hi: int,
                      horizon: int, runs: int, seed: int) -> float:
    """Monte-Carlo mean ward occupancy for a steady admission trickle.

    Direct array simulation: each arrival occupies a bed for a uniform
    integer stay; occupancy at t counts arrivals whose stay covers t.
    Mean is taken over the second half of the horizon, past warm-up.
    """
    rng = np.random.default_rng(seed)
    occupancy_sum = 0.0
    window = slice(horizon // 2, horizon)
    for _ in range(runs):
        occupancy = np.zeros(horizon + 1)
        for t in range(horizon):
            stays = rng.integers(service_lo, service_hi + 1, size=arrivals_per_tick)
            for stay in stays:
                occupancy[t:min(t + stay, horizon + 1)] += 1
        occupancy_sum += occupancy[window].mean()
    return occupancy_sum / runs
