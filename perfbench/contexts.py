"""The hypothesis contexts each workload runs under.

Building them is part of a workload's set-up, so ``build`` imports the
engine itself: the set-up probe times that import and this function
together, in a fresh interpreter.  The contexts do not depend on the seed.
"""

from __future__ import annotations

# Starting contexts of the batch_session segments, as the generator's own
# state: (GCH, V=L, 0# status) where the status is True, False or None.
SEGMENT_STARTS = {
    "none": (False, False, None),
    "sharp": (False, False, True),
    "no-sharp": (False, False, False),
    "GCH": (True, False, None),
    "V=L": (True, True, False),
    "SCH": (False, False, None),
}

# CLI --assume flag sets of the cli_oneshot workload.
CLI_FLAGS = ((), ("gch",), ("v=l",), ("sharp",), ("no-sharp",), ("gch", "sharp"), ("gch", "no-sharp"))

# Number of SCH instances in engine_sweep's long-list context.
SCH_HEAVY_SIZE = 48


def _sch_segment(ac):
    w = ac.OMEGA
    return [
        ac.SchAssumption(ac.ALEPH1, ac.AtLeast(ac.aleph(w))),
        ac.SchAssumption(ac.ALEPH2, ac.UnboundedBelow(ac.Aleph(ac.ALEPH1))),
        ac.SchAssumption(ac.ALEPH1, ac.ExplicitSet((ac.aleph(ac.cnf_add(w, ac.ORD_ONE)),))),
    ]


def _sch_heavy(ac):
    """Instances that mostly cover nothing, so every lookup scans the list."""
    out = []
    for k in range(SCH_HEAVY_SIZE):
        mu = ac.aleph(1 + k % 4)
        far = ac.omega_power(ac.from_int(k + 2), k % 3 + 1)
        kind = k % 3
        if kind == 0:
            scope = ac.ExplicitSet((ac.aleph(ac.cnf_add(far, ac.ORD_ONE)), ac.aleph(far)))
        elif kind == 1:
            scope = ac.UnboundedBelow(ac.Aleph(ac.aleph(far), ac.ORD_ONE))
        else:
            scope = ac.AtLeast(ac.Aleph(ac.Aleph(ac.aleph(far))))
        out.append(ac.SchAssumption(mu, scope))
    return out


def build(workload: str) -> dict:
    import alephcalc as ac

    sharp, no_sharp = ac.ZeroSharp.EXISTS, ac.ZeroSharp.NOT_EXISTS
    if workload == "batch_session":
        return {
            "none": ac.EMPTY_CONTEXT,
            "sharp": ac.build_context(zero_sharp=sharp),
            "no-sharp": ac.build_context(zero_sharp=no_sharp),
            "GCH": ac.build_context(gch=True),
            "V=L": ac.build_context(v_equals_l=True),
            "SCH": ac.build_context(sch=_sch_segment(ac)),
        }
    if workload == "engine_sweep":
        return {
            "none": ac.EMPTY_CONTEXT,
            "GCH": ac.build_context(gch=True),
            "V=L": ac.build_context(v_equals_l=True),
            "sharp": ac.build_context(zero_sharp=sharp),
            "no-sharp": ac.build_context(zero_sharp=no_sharp),
            "SCH-heavy": ac.build_context(sch=_sch_heavy(ac)),
        }
    if workload == "cli_oneshot":
        import alephcalc.cli

        alephcalc.cli.build_parser()
        status = {"sharp": sharp, "no-sharp": no_sharp}
        return {
            flags: ac.build_context(
                gch="gch" in flags,
                v_equals_l="v=l" in flags,
                zero_sharp=next((status[f] for f in flags if f in status), ac.ZeroSharp.UNKNOWN),
            )
            for flags in CLI_FLAGS
        }
    raise ValueError(f"unknown workload {workload!r}")
