"""The golden table that ``workmix verify`` checks: the paper's numbers, one row each.

Only ``cli.verify_goldens`` imports this module, so no other command
compiles the table or the loop that checks it.  Every row reads its model
functions through their modules when it runs (``numerics.reg_inc_beta``,
never a ``from`` import), so a function replaced on its module, by a test or
a tracer, is the one that runs, and no row keeps a copy of it.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from . import aggregate as agg
from . import boundary as bnd
from . import numerics
from . import replicator as rep
from . import sweep as swp

def golden_checks(
    scenario_csv: Callable[[str, int], str],
) -> list[tuple[str, Callable[[], Any], Any, float | None]]:
    """Rows ``(name, compute, want, tol)``; each compute looks its functions up when run.

    ``scenario_csv(name, precision)`` renders a builtin scenario as the CLI
    does; the CLI passes its own, so the CSV rows run through its functions.
    """
    shape25 = numerics.BetaShape(2.0, 5.0)
    agg_defaults = agg.DEFAULT_AGGREGATE
    rep_defaults = rep.DEFAULT_REPLICATOR
    bnd_defaults = bnd.DEFAULT_BOUNDARY

    def boundary_sim(index: int, attr: str) -> float:
        return getattr(bnd.simulate_boundary(bnd_defaults, 20)[index], attr)

    def replicator_sim(index: int, attr: str) -> float:
        return getattr(rep.simulate_replicator(rep_defaults, 20)[index], attr)

    def calibrated() -> bnd.ContinuousParams:
        return bnd.calibrate(0.10, 0.599906, 20, 1.0, 1.5, 2.5, shape25)

    # One default grid per verify, computed by the first sweep check.  Its one
    # q value makes (p, gamma) a key.
    grid_shares = functools.cache(lambda: {
        (cell.p, cell.gamma): cell.final_share for cell in swp.run_grid(swp.DEFAULT_GRID)
    })

    return [
        ("beta cdf at x=0.0926, shape (2,5)",
         lambda: numerics.reg_inc_beta(0.0926, shape25), 0.100009, 1e-5),
        ("beta cdf at x=0.3094, shape (2,5)",
         lambda: numerics.reg_inc_beta(0.3094, shape25), 0.599906, 1e-5),
        ("inverse beta cdf at 0.10, shape (2,5)",
         lambda: numerics.inv_reg_inc_beta(0.10, shape25), 0.0926, 5e-4),
        ("simpson oracle at x=0.0926, shape (2,5)",
         lambda: numerics.oracle_beta_cdf(0.0926, shape25, 10000), 0.100009, 1e-6),
        ("bisection root of cdf - 0.10",
         lambda: numerics.bisect_root(
             lambda x: numerics.reg_inc_beta(x, shape25) - 0.10, 0.0, 1.0, 1e-12
         ),
         0.0926, 5e-4),
        ("aggregate one step from 0.10", lambda: agg.step(0.10, agg_defaults), 0.185, 1e-9),
        ("aggregate one step from 0.185",
         lambda: agg.step(0.185, agg_defaults), 0.25725, 1e-9),
        ("aggregate equilibrium", lambda: agg.equilibrium(agg_defaults), 0.6667, 5e-5),
        ("aggregate closed form t=10",
         lambda: agg.closed_form(10, agg_defaults), 0.5551045, 1e-6),
        ("aggregate closed form t=20",
         lambda: agg.closed_form(20, agg_defaults), 0.6447029, 1e-6),
        ("aggregate simulated share 2030",
         lambda: agg.simulate(agg_defaults, 20)[5].share, 0.41523, 5e-5),
        ("aggregate simulated share 2040",
         lambda: agg.simulate(agg_defaults, 20)[15].share, 0.61717, 5e-5),
        ("replicator routine step from 0.30",
         lambda: rep.replicator_step(0.30, 0, rep_defaults.routine, 0.2), 0.3084, 1e-9),
        ("replicator complex step from 0.05",
         lambda: rep.replicator_step(0.05, 0, rep_defaults.complex, 0.2), 0.04335, 1e-9),
        ("replicator routine share 2045",
         lambda: replicator_sim(20, "x_routine"), 0.873048, 1e-5),
        ("replicator complex share 2045",
         lambda: replicator_sim(20, "x_complex"), 0.006080, 1e-5),
        ("replicator total share 2045",
         lambda: replicator_sim(20, "x_total"), 0.526261, 1e-5),
        ("replicator routine share 2035",
         lambda: replicator_sim(10, "x_routine"), 0.498857, 1e-5),
        ("replicator total share 2035",
         lambda: replicator_sim(10, "x_total"), 0.304990, 1e-5),
        ("machine payoff at theta=0, t=0",
         lambda: bnd.payoff_machine(0.0, 0, bnd_defaults), 1.3704, 1e-9),
        ("payoff advantage at theta=0, t=0",
         lambda: bnd.payoff_machine(0.0, 0, bnd_defaults)
         - bnd.payoff_human(0.0, bnd_defaults),
         0.3704, 1e-4),
        ("payoff advantage at theta=1, t=0",
         lambda: bnd.payoff_machine(1.0, 0, bnd_defaults)
         - bnd.payoff_human(1.0, bnd_defaults),
         -3.6296, 1e-4),
        ("automation boundary t=0",
         lambda: bnd.automation_boundary(0, bnd_defaults), 0.0926, 5e-4),
        ("automation boundary t=10",
         lambda: bnd.automation_boundary(10, bnd_defaults), 0.2010, 5e-4),
        ("automation boundary t=20",
         lambda: bnd.automation_boundary(20, bnd_defaults), 0.3094, 5e-4),
        ("automated share t=0", lambda: bnd.automated_share(0, bnd_defaults), 0.100009, 1e-5),
        ("automated share t=20",
         lambda: bnd.automated_share(20, bnd_defaults), 0.599906, 1e-5),
        ("boundary trajectory theta 2030", lambda: boundary_sim(5, "theta"), 0.1468, 5e-4),
        ("boundary trajectory share 2030", lambda: boundary_sim(5, "share"), 0.216, 5e-4),
        ("boundary trajectory theta 2040", lambda: boundary_sim(15, "theta"), 0.2552, 5e-4),
        ("boundary trajectory share 2040", lambda: boundary_sim(15, "share"), 0.478, 5e-4),
        ("calibrated machine intercept", lambda: calibrated().alpha_m, 1.3704, 5e-4),
        ("calibrated improvement rate", lambda: calibrated().gamma, 0.04336, 5e-5),
        ("advantage grid entry (2025, theta=0.10)",
         lambda: bnd.advantage_grid(bnd_defaults, [2025, 2045], [0.0, 0.10, 0.30])[0][1],
         -0.0296, 1e-4),
        ("advantage grid entry (2045, theta=0.30)",
         lambda: bnd.advantage_grid(bnd_defaults, [2025, 2045], [0.0, 0.10, 0.30])[1][2],
         0.0376, 1e-4),
        ("sweep cell p=2.0 gamma=0.05", lambda: grid_shares()[2.0, 0.05], 0.667, 0.0015),
        ("sweep cell p=3.0 gamma=0.03", lambda: grid_shares()[3.0, 0.03], 0.398, 0.0015),
        ("sweep cell p=1.5 gamma=0.07", lambda: grid_shares()[1.5, 0.07], 0.856, 0.0015),
        ("half-automation year, default boundary",
         lambda: swp.cross50(bnd_defaults, 20), 2041, None),
        ("aggregate csv row 2026 at precision 4",
         lambda: scenario_csv("paper-aggregate", 4), "2026,0.1850", None),
        ("aggregate csv row 2030 at precision 4",
         lambda: scenario_csv("paper-aggregate", 4), "2030,0.4152", None),
        ("sweep csv axis row p=2.0 gamma=0.05",
         lambda: scenario_csv("paper-grid", 4), "2.0,5,0.05", None),
    ]


def verify(scenario_csv: Callable[[str, int], str]) -> tuple[str, bool]:
    """Run every golden check; returns (report text, all passed).

    A float ``want`` passes within ``tol``, a string ``want`` must occur in
    the computed text, and any other ``want`` must equal the computed value.
    """
    lines = []
    passed = 0
    checks = golden_checks(scenario_csv)
    for name, compute, want, tol in checks:
        try:
            got = compute()
            if isinstance(want, float):
                ok = abs(got - want) <= tol
                detail = f"got {got:.10f}, want {want:.10f} within {tol:g}"
            elif isinstance(want, str):
                ok = want in got
                detail = f"expected substring {want!r}"
            else:
                ok = got == want
                detail = f"got {got!r}, want {want!r}"
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok  " if ok else "FAIL"
        if ok:
            passed += 1
        lines.append(f"{status} {name:<42} {detail}")
    lines.append(f"{passed}/{len(checks)} golden checks passed")
    return "\n".join(lines) + "\n", passed == len(checks)
