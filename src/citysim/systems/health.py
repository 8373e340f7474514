"""Healthcare layer: patients and hospitals.

Disease course per patient: susceptible -> infected(mild) -> maybe severe
-> maybe critical -> dead or recovered.  Each stage lasts a drawn number
of hours and ends at its due tick (``stage_end``), then a single branch
draw decides the next stage, which makes cohort fractions directly
comparable to binomial oracles.  Stage timing and the severe/critical
branches are independent of treatment; treatment (an ICU bed, scaled by
the hospital's current care quality) only changes the death probability
at critical resolution.  Severe and critical patients are bedridden: they
stay home unless admitted, and recovery from either is followed by a
convalescence window before normal activity.

The healthcare settlement advances the layer in one walk over the active
patients in id order.  Each patient first progresses, then takes its bed:
discharges free beds the same tick, critical inpatients are moved to ICU
when one is free, then unplaced severe/critical patients are admitted
home-hospital-first with referral to the least-occupied peer.  Patients
placed nowhere are counted as unattended against the hospital they first
approached and retry every tick.  A patient whose convalescence ends gets
an equal new state, the change that lets its citizen resume its routine.
Transmission follows the walk, from the infectious side, over their
citizens' contacts in the social settlement's previous placement, which
draws contacts only at the places asked about.  It touches only
susceptible patients and bed assignment only infected ones, so the order
of the two does not show.

The active patients are the infected, the inpatients and the
convalescent up to their ``rest_until``.  The settlement publishes them
for its next tick, and that tick walks them and the patients changed
outside the settlements.  Every other patient is neither infected nor in
a bed nor at the end of a convalescence, so the walk would leave it as it
is: it does not progress, take a bed, transmit or add to the recount.  The
first tick of a run walks every patient.
"""

from __future__ import annotations

from ..kernel import CoordinatorContext, Registry, RuleContext, RuleSet

ROLE_PATIENT = "patient"
ROLE_HOSPITAL = "hospital"

EDGE_REFERS = "refers"

INFECTIONS = ("susceptible", "infected", "recovered", "dead")
SEVERITIES = ("none", "mild", "severe", "critical")


def _init_patient(params: dict, stream) -> dict:
    state = {
        "infection": "susceptible",
        "severity": "none",
        "stage_end": None,
        "located_in": None,
        "bed_class": None,
        "care_quality": 1.0,
        "rest_until": 0,
    }
    if params["initially_infected"]:
        rng = stream.at(0, "init_course")
        lo, hi = params["mild_hours"]
        state.update(infection="infected", severity="mild",
                     stage_end=rng.randint(int(lo), int(hi)))
    return state


def _enter_stage(state: dict, severity: str, end: int) -> None:
    state.update(severity=severity, stage_end=end)


def _resolve(state: dict, outcome: str, tick: int, convalescence: int) -> None:
    state.update(infection=outcome, severity="none", stage_end=None)
    if outcome == "recovered" and convalescence:
        state["rest_until"] = tick + convalescence


def _progress(cctx: CoordinatorContext, pid: str, state: dict) -> dict:
    """Disease progression for one patient: nothing until its stage's due tick."""
    tick = cctx.tick
    if state["infection"] != "infected" or tick < state["stage_end"]:
        return state
    new = dict(state)
    p = cctx.params(pid)
    rng = cctx.rng(pid, "course")
    u = rng.random()
    severity = state["severity"]
    if severity == "mild":
        if u < p["p_severe"]:
            lo, hi = p["severe_hours"]
            _enter_stage(new, "severe", tick + rng.randint(int(lo), int(hi)))
        else:
            _resolve(new, "recovered", tick, 0)
    elif severity == "severe":
        if u < p["p_worsen"]:
            lo, hi = p["critical_hours"]
            _enter_stage(new, "critical", tick + rng.randint(int(lo), int(hi)))
        else:
            _resolve(new, "recovered", tick, int(p["convalescence_hours"]))
    else:  # critical
        if state["bed_class"] == "icu":
            p_die = min(1.0, max(0.0, p["p_die_treated"] * (2.0 - state["care_quality"])))
        else:
            p_die = p["p_die_untreated"]
        if u < p_die:
            _resolve(new, "dead", tick, 0)
        else:
            _resolve(new, "recovered", tick, int(p["convalescence_hours"]))
    return new


def _init_hospital(params: dict, stream) -> dict:
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
    """Capacity and care quality from the hospital's params and its own ICT
    node, taken anew on every call, so a change of either reaches them.

    While the node is effectively unavailable both bed classes shrink by
    the degradation factor and care quality is scaled down.  Shrinking
    never evicts admitted patients; it only blocks new admissions until
    occupancy falls below the reduced capacity.
    """
    node = ctx.sibling("ict")
    if node is None:
        return None
    up = node["effective_available"]
    p, state = ctx.params, ctx.state
    factor = 1 if up else p["capacity_degradation_factor"]
    new = dict(
        state,
        general_capacity=int(round(p["nominal_general_capacity"] * factor)),
        icu_capacity=int(round(p["nominal_icu_capacity"] * factor)),
        care_quality=p["base_care_quality"] if up
        else p["base_care_quality"] * p["quality_degradation_factor"],
        degraded=not up,
    )
    return None if new == state else new


def _bed_field(bed_class: str) -> tuple[str, str]:
    if bed_class == "icu":
        return "icu_occupancy", "icu_capacity"
    return "general_occupancy", "general_capacity"


def _transmit(cctx: CoordinatorContext, sources: list[str]) -> list[str]:
    """Disease transmission over last tick's placement, tried from each
    infectious patient to its citizen's contacts there; returns the
    patients it infected.

    A contact without a patient is skipped.  Each susceptible contact draws
    ``inf:<source patient>`` on its own stream, so every draw is a pure
    function of (seed, id, tick, label) and a patient is infected iff any
    infectious contact succeeds, whatever order the tries come in.
    """
    placement = cctx.published("placement")
    infected: list[str] = []
    if placement is None:
        return infected
    for src in sources:
        for contact in placement.contacts(cctx.counterpart(src, "social")):
            pid = cctx.counterpart(contact, "healthcare")
            if pid is None:
                continue
            state = cctx.get(pid)
            if state["infection"] != "susceptible":
                continue
            p = cctx.params(pid)
            beta = p["beta"] * p["vaccination_factor"] if p["vaccinated"] else p["beta"]
            if cctx.rng(pid, f"inf:{src}").random() < beta:
                lo, hi = p["mild_hours"]
                new = dict(state)
                new.update(infection="infected", severity="mild", stage_end=(
                    cctx.tick + cctx.rng(pid, "inf_course").randint(int(lo), int(hi))))
                cctx.set(pid, new)
                infected.append(pid)
    return infected


def healthcare_settlement(cctx: CoordinatorContext) -> None:
    """Progression, reception, discharge and referral in one walk over the
    active patients in id order, then transmission from the patients
    infected after their progression; publishes the next tick's active
    patients as ``active_patients``.  A patient gets one new state in the
    walk, and only if it changed or its convalescence ends, so that its
    citizen's coupling rule runs then."""
    patients = cctx.members(ROLE_PATIENT)
    if not patients:
        return
    tick = cctx.tick
    last_active = cctx.published("active_patients")
    if last_active is not None:
        patients = sorted(last_active.union(cctx.changed_outside(ROLE_PATIENT)))
    hospitals = cctx.members(ROLE_HOSPITAL)
    work = {h: dict(cctx.get(h), unattended_this_tick=0) for h in hospitals}
    # bookkeeping self-check: counters must match patient placements exactly
    recount = {h: {"general_occupancy": 0, "icu_occupancy": 0} for h in work}

    def has_space(h: str, bed_class: str) -> bool:
        occ, cap = _bed_field(bed_class)
        return work[h][occ] < work[h][cap]

    def place(pst: dict, h: str, bed_class: str) -> dict:
        occ, _ = _bed_field(bed_class)
        work[h][occ] += 1
        return dict(pst, located_in=h, bed_class=bed_class, care_quality=work[h]["care_quality"])

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

    def take_bed(pid: str, pst: dict) -> dict:
        # discharge: recovered or dead inpatients free their bed this tick
        if pst["located_in"] is not None and pst["infection"] in ("recovered", "dead"):
            release(pst)
            return dict(pst, located_in=None, bed_class=None)
        if pst["infection"] != "infected":
            return pst
        severity = pst["severity"]
        # escalation: critical inpatient in a general bed wants an ICU bed
        if pst["located_in"] is not None:
            if severity == "critical" and pst["bed_class"] == "general":
                if has_space(pst["located_in"], "icu"):
                    target = pst["located_in"]
                else:
                    target = pick_referral(pst["located_in"], "icu")
                if target is not None:
                    release(pst)
                    pst = place(pst, target, "icu")
            # refresh care context for all inpatients (degradation mid-stay)
            current = work[pst["located_in"]]["care_quality"]
            if pst["care_quality"] != current:
                pst = dict(pst, care_quality=current)
            return pst
        # admission attempt for unplaced severe/critical patients
        if severity not in ("severe", "critical"):
            return pst
        home = cctx.params(pid)["home_hospital"]
        if home is None or home not in work:
            return pst
        bed_class = "icu" if severity == "critical" else "general"
        if has_space(home, bed_class):
            return place(pst, home, bed_class)
        peer = pick_referral(home, bed_class)
        if peer is not None:
            return place(pst, peer, bed_class)
        work[home]["unattended_this_tick"] += 1
        return pst

    sources = []  # infectious after progression
    active = []  # the next tick's, but for those transmission infects
    for pid in patients:
        before = cctx.get(pid)
        pst = _progress(cctx, pid, before)
        if pst is before and before["rest_until"] == tick:
            pst = dict(before)  # an equal new state: the end of its convalescence
        if pst["infection"] == "infected":
            sources.append(pid)
        pst = take_bed(pid, pst)
        if pst["located_in"] is not None:
            if pst["severity"] not in ("severe", "critical"):
                raise ValueError(f"inpatient {pid} with severity {pst['severity']!r}")
            occ, _ = _bed_field(pst["bed_class"])
            recount[pst["located_in"]][occ] += 1
        if pst is not before:
            cctx.set(pid, pst)
        if pst["infection"] == "infected" or pst["located_in"] is not None \
                or pst["rest_until"] > tick:
            active.append(pid)
    for h in hospitals:
        for occ in ("general_occupancy", "icu_occupancy"):
            if recount[h][occ] != work[h][occ]:
                raise ValueError(
                    f"occupancy bookkeeping mismatch at {h}: "
                    f"{occ} counter {work[h][occ]} vs recount {recount[h][occ]}"
                )
        if work[h] != cctx.get(h):
            cctx.set(h, work[h])
    cctx.publish("active_patients", frozenset(active).union(_transmit(cctx, sources)))


def _observe_patient(state, params) -> list[tuple[str, object]]:
    return [
        ("infection_status", state["infection"]),
        ("health_status", state["severity"]),
    ]


def _observe_hospital(state, params) -> list[tuple[str, object]]:
    return [
        ("general_occupancy", state["general_occupancy"]),
        ("icu_occupancy", state["icu_occupancy"]),
        ("general_capacity", state["general_capacity"]),
        ("icu_capacity", state["icu_capacity"]),
        ("unattended", state["unattended_this_tick"]),
        ("care_quality", state["care_quality"]),
    ]


def _aggregate(world, tallies) -> list[tuple[str, object]]:
    out = []
    counts = tallies.get(ROLE_PATIENT)
    if counts is not None:
        out.extend(("total_" + name, counts[name]) for name in INFECTIONS)
    hospitals = world.layer_role_order.get(("healthcare", ROLE_HOSPITAL))
    if hospitals:
        states = [world.states[h] for h in hospitals]
        out.append(("total_occupancy", sum(s["general_occupancy"] + s["icu_occupancy"] for s in states)))
        out.append(("total_unattended", sum(s["unattended_this_tick"] for s in states)))
    return out


def register(registry: Registry) -> None:
    registry.register_role(ROLE_PATIENT, RuleSet(
        init_state=_init_patient,
        observe=_observe_patient,
        tally=lambda state: state["infection"],
    ))
    registry.register_role(ROLE_HOSPITAL, RuleSet(
        init_state=_init_hospital,
        coupling=hospital_coupling,
        observe=_observe_hospital,
    ))
    registry.register_coordinator("healthcare", healthcare_settlement)
    registry.register_aggregator("healthcare", _aggregate)
