"""Independent oracles used to validate the engine from the outside.

Nothing here touches the kernel or the rule modules: the epidemic oracle
is a closed-form difference-equation integrator and the attack oracle a
plain breadth-first walk over the dependency graph.  The CLI, demos and
tests compare the engine against them (test-only oracles live in the
tests), so they must stay independent of the code paths they check.
"""

from __future__ import annotations

import numpy as np


def sir_prevalence(population: int, initial_infected: int, beta: float,
                   contact_k: int, infectious_hours: int,
                   horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic discrete-time epidemic curve for a fully mixed group.

    Contacts: each person draws `contact_k` distinct partners per hour and
    links are symmetrized, giving an effective degree of
    2k - k^2/(n-1).  A susceptible with m infectious partners (at most n-1)
    escapes with probability (1-beta)^m; infections last `infectious_hours`.
    Returns the prevalence (infected count) and susceptible count series,
    each of length horizon + 1.
    """
    n = population
    degree = 2.0 * contact_k - (contact_k ** 2) / (n - 1)
    susceptible = float(n - initial_infected)
    infected = float(initial_infected)
    new_infections = np.zeros(horizon + 1)
    new_infections[0] = initial_infected
    prevalence = np.zeros(horizon + 1)
    prevalence[0] = infected
    susceptibles = np.zeros(horizon + 1)
    susceptibles[0] = susceptible
    for t in range(1, horizon + 1):
        pressure = 1.0 - (1.0 - beta * min(infected, n - 1) / (n - 1)) ** degree
        fresh = susceptible * pressure
        recovered = new_infections[t - infectious_hours] if t >= infectious_hours else 0.0
        susceptible -= fresh
        infected += fresh - recovered
        new_infections[t] = fresh
        prevalence[t] = infected
        susceptibles[t] = susceptible
    return prevalence, susceptibles


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

