"""Run every independent oracle against one module of each type.

The point of the verification layer is that none of it reuses the
construction formulas: structure constants come from elementary
matrices, dimensions from the Weyl product, weight multiplicities from
the Freudenthal recursion, and the central element and contravariant
form have closed predicted values. A single corrupted matrix entry
should light up several of these at once; the end of this script does
exactly that.
"""

import json
from fractions import Fraction

from gtrep import (Operator, build_gl, build_so, casimir_scalar,
                   check_branching, freudenthal_multiplicities, pos,
                   run_verification)

so = build_so(("-1", "-2"))
print("o(5) module with highest weight (-1,-2), dim", so.dim)
print(json.dumps(run_verification(so, level="full").to_json(),
                 indent=2))
print()

print("restriction to o(3):")
for c in check_branching(so).checks:
    print("  %-55s %s" % (c["name"], "ok" if c["pass"] else "FAIL"))
print()

gl = build_gl((3, 1, 0, 0))
print("gl(4) module with highest weight (3,1,0,0), dim", gl.dim)
print("Casimir scalar:", casimir_scalar(gl))
hist = freudenthal_multiplicities("A", gl.lam)
print("distinct weights: %d, largest multiplicity: %d"
      % (len(hist), max(hist.values())))
print()

print("now corrupt one entry of one generator and re-verify:")
# F(-2,-1) is stored; F(1,2) = -F(-2,-1) is read from it, corrupted too
bad = dict(so.gens[(-2, -1)].items())
bad[pos(0, 0, so.dim)] = Fraction(1, 3)
so.gens[(-2, -1)] = Operator(so.dim, bad)
report = run_verification(so, level="full")
for c in report.checks:
    print("  %-55s %s" % (c["name"], "ok" if c["pass"] else "FAIL"))
print("summary:", report.summary())
