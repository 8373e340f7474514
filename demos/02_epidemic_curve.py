"""Stochastic epidemic on a contact network vs. the closed-form integrator.

500 people share one place around the clock; each draws 4 distinct
contacts per hour, links are symmetrized, and transmission rolls an
independent per-contact dice every hour.  The engine's realized
prevalence curve is compared against the difference-equation integrator
from citysim.oracles, which knows nothing about the engine - same
parameters, independent arithmetic.

Run:  python demos/02_epidemic_curve.py       (about 15 s)
"""

import numpy as np

from citysim.hazards import HazardSchedule, apply_due
from citysim.kernel import World
from citysim.oracles import sir_prevalence, single_peaked
from citysim.scenario import DISEASE_DEFAULTS
from citysim.systems import default_registry

N, SEEDS, BETA, K, DURATION = 500, 25, 0.004, 4, 120
HORIZON = 40 * 24


def build_commons_world() -> World:
    """Everyone lives at one shared place: the fully mixed limit.  A
    ``disease_seed`` event at tick 0 infects SEEDS of them."""
    world = World(master_seed=2028, registry=default_registry())
    world.add_agent("commons", [(
        "commons::urban_landscape", "urban_landscape", "place", {"capacity": None})])
    schedule = [("commons", "commons")] * 24
    for i in range(N):
        cid = f"c{i:04d}"
        patient_params = dict(DISEASE_DEFAULTS)
        patient_params.update(
            beta=BETA, mild_hours=[DURATION, DURATION],
            home_hospital=None, vaccinated=False,
        )
        world.add_agent(cid, [
            (f"{cid}::social", "social", "citizen", {
                "home_place": "commons", "household": [],
                "contact_k": K, "schedule": schedule,
            }),
            (f"{cid}::healthcare", "healthcare", "patient", patient_params),
        ])
    world.finalize()
    run = world.start()
    seed = HazardSchedule.from_config([{"tick": 0, "kind": "disease_seed",
                                        "selector": {"role": "patient"},
                                        "payload": {"count": SEEDS}}], 24)
    apply_due(run, 0, seed)
    return run


def main():
    world = build_commons_world()
    patients = world.role_members("patient")
    prevalence = [float(SEEDS)]
    for _ in range(HORIZON):
        world.step()
        prevalence.append(float(sum(
            1 for p in patients if world.states[p]["infection"] == "infected")))
    engine = np.array(prevalence)
    oracle, _ = sir_prevalence(N, SEEDS, BETA, K, DURATION, HORIZON)

    scale = 50 / max(engine.max(), oracle.max())
    print("day  engine oracle   (# = engine, . = oracle)")
    for day in range(0, 41, 2):
        t = day * 24
        e, o = engine[t], oracle[t]
        bar = ["#" if i < e * scale else " " for i in range(50)]
        dot = min(int(o * scale), 49)
        bar[dot] = "."
        print(f"{day:3d} {e:7.0f} {o:6.0f}   |{''.join(bar)}|")

    sup = np.max(np.abs(engine - oracle))
    untouched = sum(1 for p in patients
                    if world.states[p]["infection"] == "susceptible")
    print(f"\nsup-norm gap: {sup:.1f} people = {sup / oracle.max():.1%} of peak")
    print(f"single-peaked: {single_peaked(engine)}")
    print(f"final attack fraction (engine): {(N - untouched) / N:.2f}")


if __name__ == "__main__":
    main()
