"""A minimal hand-built world, stepped tick by tick.

Shows the core moving parts without any scenario file: agents are split
into per-system subagents, and every tick takes two steps.  First each
system's settlement advances its own layer in one pass (the subagents' own
dynamics, then interaction over the layer's network); then the coupling
map lets each subagent react to its agent's other subagents, every rule
reading the same completed post-settlement snapshot - so update order can
never change the result.

Run:  python demos/01_minimal_world.py
"""

from citysim.kernel import World
from citysim.systems import default_registry


def main():
    world = World(master_seed=42, registry=default_registry())

    # a hospital agent: a healthcare subagent plus its own ICT node
    world.add_agent("clinic", [
        ("clinic::healthcare", "healthcare", "hospital", {
            "nominal_general_capacity": 8,
            "nominal_icu_capacity": 2,
            "base_care_quality": 1.0,
            "referral_peers": [],
            "district": "demo",
            "capacity_degradation_factor": 0.5,
            "quality_degradation_factor": 0.75,
        }),
        ("clinic::ict", "ict", "cyber-infrastructure", {
            "vulnerability": 1.0,
            "recovery_ticks": 3,
            "district": "demo",
        }),
    ])

    # an attacker agent living in the ICT layer
    world.add_agent("intruder", [
        ("intruder::ict", "ict", "cyber-attacker", {
            "target": "clinic::ict",
            "attack_type": "ddos",
            "propagation_probability": None,  # None: the attack type's own
            "district": "demo",
        }),
    ])
    world.add_edge("ict", "intruder::ict", "clinic::ict", "attacks")
    world.finalize()
    world = world.start()  # a run on the frozen structure, at tick 0

    agents = {record.agent_id for record in world.records.values()}
    print(f"world has {len(world.records)} subagents in "
          f"{len(agents)} agents; tick = {world.tick}")
    print("healthcare layer:",
          sorted(sid for sid, rec in world.records.items() if rec.system == "healthcare"))

    # arm the attacker by hand (scenarios do this through a hazard event);
    # World.change is the one way to change a state from outside the tick
    world.change("intruder::ict", dict(world.states["intruder::ict"], active=True))

    print("\ntick  clinic ICT up  clinic beds  note")
    was_down = False
    for _ in range(7):
        world.step()
        node = world.states["clinic::ict"]
        hospital = world.states["clinic::healthcare"]
        note = ""
        if node["compromised_at"] == world.tick:
            note = "<- attack lands, node compromised"
        elif was_down and node["available"]:
            note = "<- recovered (ddos attacks heal fast), capacity restored"
        was_down = not node["available"]
        print(f"{world.tick:4d}  {str(node['effective_available']):13s} "
              f"{hospital['general_capacity']:11d}  {note}")

    # the hospital halved its bed capacity while its ICT node was down:
    # that is the cross-system coupling stage at work.


if __name__ == "__main__":
    main()
