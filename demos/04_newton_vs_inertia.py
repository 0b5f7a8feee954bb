"""Watch Newton's method respond to the strength of the inertial term.

The free-flow momentum balance carries a nonlinear drag F |u|^{p-2} u.
With F = 0 the problem is linear and one Newton step lands on the exact
discrete solution; as F grows the iteration count climbs gently while
each solve still converges quadratically near the end.
"""

from bfdarcy import (
    Discretization,
    PhysicalParams,
    generate_stacked_rect,
    manufactured_problem,
    newton_solve,
)

rect_B = (-0.5, 0.5, 0.5, 1.5)
rect_D = (-0.5, 0.5, -0.5, 0.5)
# Every solve below runs on this one mesh with the same boundary-condition
# layout, so the mesh is discretized once and the solves share it.
_, layout = manufactured_problem(PhysicalParams())
disc = Discretization.build(generate_stacked_rect(rect_B, rect_D, 16, 16, 16), layout)

print("F        iterations   final increment")
for F in (0.0, 1.0, 10.0, 1.0e2, 1.0e3, 1.0e4):
    params = PhysicalParams(mu=1.0, forchheimer=F, power=3.0, K_B=1.0, K_D=0.1)
    _, data = manufactured_problem(params)
    fields, report = newton_solve(disc, params, data)
    print("%-8g %6d        %.2e" % (F, report.iterations, report.increments[-1]))

# The increment history of one stiff solve shows the quadratic tail:
# once the iterate is close, the error roughly squares every step.
params = PhysicalParams(mu=1.0, forchheimer=1.0e3, power=3.0, K_B=1.0, K_D=0.1)
_, data = manufactured_problem(params)
_, report = newton_solve(disc, params, data)
print("\nincrement history for F = 1e3:")
for k, inc in enumerate(report.increments, start=1):
    print("  step %d: %.3e" % (k, inc))

# The exponent p steers how stiff the nonlinearity is at the same F.
print("\niteration counts at F = 100 for increasing exponent p:")
for p in (3.0, 3.5, 4.0):
    params = PhysicalParams(mu=1.0, forchheimer=1.0e2, power=p, K_B=1.0, K_D=0.1)
    _, data = manufactured_problem(params)
    _, report = newton_solve(disc, params, data)
    print("  p = %.1f: %d iterations" % (p, report.iterations))
