"""Healthcare layer: patients and hospitals.

Disease course per patient: susceptible -> infected(mild) -> maybe severe
-> maybe critical -> dead or recovered.  Each stage lasts a drawn number
of hours, then a single branch draw decides the next stage, which makes
cohort fractions directly comparable to binomial oracles.  Stage timing
and the severe/critical branches are independent of treatment; treatment
(an ICU bed, scaled by the hospital's current care quality) only changes
the death probability at critical resolution.  Severe and critical
patients are bedridden: they stay home unless admitted, and recovery from
either is followed by a convalescence window before normal activity.

Bed assignment is a serialized settlement pass: discharges free beds the
same tick, critical inpatients are moved to ICU when one is free, then
unplaced severe/critical patients are admitted home-hospital-first with
referral to the least-occupied peer.  Patients placed nowhere are counted
as unattended against the hospital they first approached and retry every
tick.
"""

from __future__ import annotations

from ..kernel import CoordinatorContext, Registry, RuleContext, RuleSet

ROLE_PATIENT = "patient"
ROLE_HOSPITAL = "hospital"

EDGE_REFERS = "refers"

INFECTIONS = ("susceptible", "infected", "recovered", "dead")
SEVERITIES = ("none", "mild", "severe", "critical")


WINDOW = "[lo, hi] integers with 1 <= lo <= hi"


def is_window(value) -> bool:
    """A stage duration range in hours, or the scenario's household sizes."""
    return (len(value) == 2 and type(value[0]) is int and type(value[1]) is int
            and 1 <= value[0] <= value[1])


def _init_patient(params: dict, stream) -> dict:
    for key in ("beta", "p_severe", "p_worsen", "p_die_treated", "p_die_untreated"):
        if not 0.0 <= params[key] <= 1.0:
            raise ValueError(f"{key}={params[key]} outside [0, 1]")
    for key in ("mild_hours", "severe_hours", "critical_hours"):
        if not is_window(params[key]):
            raise ValueError(f"{key}={params[key]} is not {WINDOW}")
    state = {
        "infection": "susceptible",
        "severity": "none",
        "ticks_in_state": 0,
        "stage_duration": None,
        "located_in": None,
        "bed_class": None,
        "care_quality": 1.0,
        "infected_at": None,
        "rest_until": 0,
    }
    if params.get("initially_infected"):
        rng = stream.at(0, "init_course")
        lo, hi = params["mild_hours"]
        state.update(
            infection="infected", severity="mild",
            stage_duration=rng.randint(int(lo), int(hi)), infected_at=0,
        )
    return state


def _enter_stage(state: dict, severity: str, duration: int) -> None:
    state.update(severity=severity, ticks_in_state=0, stage_duration=duration)


def _resolve(state: dict, outcome: str, tick: int, convalescence: int) -> None:
    state.update(
        infection=outcome, severity="none", ticks_in_state=0, stage_duration=None,
    )
    if outcome == "recovered" and convalescence:
        state["rest_until"] = tick + convalescence


def patient_internal(ctx: RuleContext) -> dict | None:
    """Infection and disease progression for one patient."""
    state = ctx.state
    if state["infection"] != "infected":
        return None
    new = dict(state)
    new["ticks_in_state"] += 1
    if new["ticks_in_state"] < state["stage_duration"]:
        return new
    p = ctx.params
    rng = ctx.rng("course")
    u = rng.random()
    severity = state["severity"]
    if severity == "mild":
        if u < p["p_severe"]:
            lo, hi = p["severe_hours"]
            _enter_stage(new, "severe", rng.randint(int(lo), int(hi)))
        else:
            _resolve(new, "recovered", ctx.tick, 0)
    elif severity == "severe":
        if u < p["p_worsen"]:
            lo, hi = p["critical_hours"]
            _enter_stage(new, "critical", rng.randint(int(lo), int(hi)))
        else:
            _resolve(new, "recovered", ctx.tick, int(p.get("convalescence_hours", 0)))
    else:  # critical
        if state["bed_class"] == "icu":
            p_die = min(1.0, max(0.0, p["p_die_treated"] * (2.0 - state["care_quality"])))
        else:
            p_die = p["p_die_untreated"]
        if u < p_die:
            _resolve(new, "dead", ctx.tick, 0)
        else:
            _resolve(new, "recovered", ctx.tick, int(p.get("convalescence_hours", 0)))
    return new


def patient_network(ctx: RuleContext) -> dict | None:
    """Disease transmission over the contact graph that the social
    settlement published in the previous tick.

    The patient's citizen sibling's contacts are mapped to their patients;
    a contact without one is skipped.  Each infectious contact gets an
    independent draw keyed by its patient id, so a contact set change in
    one scenario never shifts another contact's draw.
    """
    state = ctx.state
    if state["infection"] != "susceptible":
        return None
    graph = ctx.published("contacts")
    contacts = graph.get(ctx.counterpart(ctx.sid, "social")) if graph else None
    if not contacts:
        return None
    beta = ctx.params["beta"]
    if ctx.params.get("vaccinated"):
        beta *= ctx.params["vaccination_factor"]
    for contact in contacts:
        src = ctx.counterpart(contact, "healthcare")
        if src is None or ctx.peer_state(src)["infection"] != "infected":
            continue
        if ctx.rng(f"inf:{src}").random() < beta:
            rng = ctx.rng("inf_course")
            lo, hi = ctx.params["mild_hours"]
            new = dict(state)
            new.update(
                infection="infected", severity="mild", ticks_in_state=0,
                stage_duration=rng.randint(int(lo), int(hi)), infected_at=ctx.tick,
            )
            return new
    return None


def _init_hospital(params: dict, stream) -> dict:
    if params["nominal_general_capacity"] < 0 or params["nominal_icu_capacity"] < 0:
        raise ValueError("negative hospital capacity")
    if not 0.0 <= params["base_care_quality"] <= 1.0:
        raise ValueError("care quality outside [0, 1]")
    return {
        "general_capacity": int(round(params["nominal_general_capacity"])),
        "icu_capacity": int(round(params["nominal_icu_capacity"])),
        "general_occupancy": 0,
        "icu_occupancy": 0,
        "care_quality": params["base_care_quality"],
        "unattended_this_tick": 0,
        "degraded": False,
    }


def hospital_coupling(ctx: RuleContext) -> dict | None:
    """Capacity and care-quality reaction to the agent's own ICT node.

    While the node is effectively unavailable both bed classes shrink by
    the degradation factor and care quality is scaled down.  Shrinking
    never evicts admitted patients; it only blocks new admissions until
    occupancy falls below the reduced capacity.
    """
    sib = ctx.sibling("ict")
    if sib is None:
        return None
    _, ci_state = sib
    up = ci_state["effective_available"]
    state = ctx.state
    if up == (not state["degraded"]):
        return None
    p = ctx.params
    new = dict(state)
    if up:
        new.update(
            general_capacity=int(round(p["nominal_general_capacity"])),
            icu_capacity=int(round(p["nominal_icu_capacity"])),
            care_quality=p["base_care_quality"],
            degraded=False,
        )
    else:
        new.update(
            general_capacity=int(round(p["nominal_general_capacity"] * p["capacity_degradation_factor"])),
            icu_capacity=int(round(p["nominal_icu_capacity"] * p["capacity_degradation_factor"])),
            care_quality=p["base_care_quality"] * p["quality_degradation_factor"],
            degraded=True,
        )
    return new


def _bed_field(bed_class: str) -> tuple[str, str]:
    if bed_class == "icu":
        return "icu_occupancy", "icu_capacity"
    return "general_occupancy", "general_capacity"


def healthcare_settlement(cctx: CoordinatorContext) -> None:
    """Patient reception, discharge and referral, serialized in patient id order."""
    hospitals = cctx.members(ROLE_HOSPITAL)
    patients = cctx.members(ROLE_PATIENT)
    if not hospitals or not patients:
        return
    work = {h: dict(cctx.get(h)) for h in hospitals}
    for h in work:
        work[h]["unattended_this_tick"] = 0

    def has_space(h: str, bed_class: str) -> bool:
        occ, cap = _bed_field(bed_class)
        return work[h][occ] < work[h][cap]

    def place(pid: str, pst: dict, h: str, bed_class: str) -> dict:
        occ, _ = _bed_field(bed_class)
        work[h][occ] += 1
        new = dict(pst)
        new.update(located_in=h, bed_class=bed_class, care_quality=work[h]["care_quality"])
        cctx.set(pid, new)
        return new

    def release(pst: dict) -> None:
        occ, _ = _bed_field(pst["bed_class"])
        work[pst["located_in"]][occ] -= 1

    def pick_referral(home: str, bed_class: str) -> str | None:
        occ_field, _ = _bed_field(bed_class)
        options = [
            (work[h][occ_field], h)
            for h in cctx.params(home)["referral_peers"]
            if h in work and has_space(h, bed_class)
        ]
        return min(options)[1] if options else None

    for pid in patients:
        pst = cctx.get(pid)
        infection = pst["infection"]
        # discharge: recovered or dead inpatients free their bed this tick
        if pst["located_in"] is not None and infection in ("recovered", "dead"):
            release(pst)
            new = dict(pst)
            new.update(located_in=None, bed_class=None)
            cctx.set(pid, new)
            continue
        if infection != "infected":
            continue
        severity = pst["severity"]
        # escalation: critical inpatient in a general bed wants an ICU bed
        if pst["located_in"] is not None:
            if severity == "critical" and pst["bed_class"] == "general":
                target = None
                if has_space(pst["located_in"], "icu"):
                    target = pst["located_in"]
                else:
                    target = pick_referral(pst["located_in"], "icu")
                if target is not None:
                    release(pst)
                    pst = place(pid, pst, target, "icu")
            # refresh care context for all inpatients (degradation mid-stay)
            current = work[pst["located_in"]]["care_quality"]
            if pst["care_quality"] != current:
                new = dict(pst)
                new["care_quality"] = current
                cctx.set(pid, new)
            continue
        # admission attempt for unplaced severe/critical patients
        if severity not in ("severe", "critical"):
            continue
        home = cctx.params(pid).get("home_hospital")
        if home is None or home not in work:
            continue
        bed_class = "icu" if severity == "critical" else "general"
        if has_space(home, bed_class):
            place(pid, pst, home, bed_class)
        else:
            peer = pick_referral(home, bed_class)
            if peer is not None:
                place(pid, pst, peer, bed_class)
            else:
                work[home]["unattended_this_tick"] += 1

    # bookkeeping self-check: counters must match patient placements exactly
    recount = {h: {"general_occupancy": 0, "icu_occupancy": 0} for h in work}
    for pid in patients:
        pst = cctx.get(pid)
        if pst["located_in"] is not None:
            if pst["severity"] not in ("severe", "critical"):
                raise ValueError(f"inpatient {pid} with severity {pst['severity']!r}")
            occ, _ = _bed_field(pst["bed_class"])
            recount[pst["located_in"]][occ] += 1
    for h in hospitals:
        for occ in ("general_occupancy", "icu_occupancy"):
            if recount[h][occ] != work[h][occ]:
                raise ValueError(
                    f"occupancy bookkeeping mismatch at {h}: "
                    f"{occ} counter {work[h][occ]} vs recount {recount[h][occ]}"
                )
        cctx.set(h, work[h])


def _observe_patient(record) -> list[tuple[str, object]]:
    state = record.state
    return [
        ("infection_status", state["infection"]),
        ("health_status", state["severity"]),
    ]


def _observe_hospital(record) -> list[tuple[str, object]]:
    state = record.state
    return [
        ("general_occupancy", state["general_occupancy"]),
        ("icu_occupancy", state["icu_occupancy"]),
        ("general_capacity", state["general_capacity"]),
        ("icu_capacity", state["icu_capacity"]),
        ("unattended", state["unattended_this_tick"]),
        ("care_quality", state["care_quality"]),
    ]


def _aggregate(world) -> list[tuple[str, object]]:
    out = []
    patients = world.layer_role_order.get(("healthcare", ROLE_PATIENT))
    if patients:
        counts = {k: 0 for k in INFECTIONS}
        for sid in patients:
            counts[world.states[sid]["infection"]] += 1
        out.extend(
            ("total_" + name, counts[name]) for name in INFECTIONS
        )
    hospitals = world.layer_role_order.get(("healthcare", ROLE_HOSPITAL))
    if hospitals:
        states = [world.states[h] for h in hospitals]
        out.append(("total_occupancy", sum(s["general_occupancy"] + s["icu_occupancy"] for s in states)))
        out.append(("total_unattended", sum(s["unattended_this_tick"] for s in states)))
    return out


def register(registry: Registry) -> None:
    registry.register_role(ROLE_PATIENT, RuleSet(
        init_state=_init_patient,
        internal=patient_internal,
        network=patient_network,
        observe=_observe_patient,
    ))
    registry.register_role(ROLE_HOSPITAL, RuleSet(
        init_state=_init_hospital,
        coupling=hospital_coupling,
        observe=_observe_hospital,
    ))
    registry.register_coordinator("healthcare", healthcare_settlement)
    registry.register_aggregator("healthcare", _aggregate)
