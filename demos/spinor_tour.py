"""Walk through the smallest odd orthogonal modules.

Builds the 2-dimensional spinor module and the 3-dimensional vector
module of o(3), prints every nonzero generator entry, and confirms the
two striking small facts: the raising generator sends the primed basis
vector to half the plain one, and the primed-lowering operator of the
spinor module is identically zero.
"""

from gtrep import Operator, build_phi_minus, build_so, rowcol


def show(rep, title):
    print("== %s  (dim %d) ==" % (title, rep.dim))
    for c, pat in enumerate(rep.patterns):
        print("  basis[%d]: sigma=%s primed=%s weight=%s"
              % (c, pat.sigma, pat.to_json()["primed_rows"][-1],
                 [str(x) for x in rep.decode(pat.weight())]))
    # a build stores F(i,j) for i + j <= 0; gen reads every slot
    idx = range(-rep.n, rep.n + 1)
    for slot in [(i, j) for i in idx for j in idx]:
        op = rep.gen(*slot)
        if op:
            ent = ", ".join("(%d,%d)=%s" % (*rowcol(p, rep.dim), v)
                            for p, v in op.items())
            print("  F%s: %s" % (slot, ent))
    print()


spinor = build_so(("-1/2",))
show(spinor, "spinor module of o(3)")

print("raising applied to the primed vector:",
      spinor.gen(0, 1).column(1))
print("raising applied to the plain vector:  ",
      spinor.gen(0, 1).column(0))

phi = build_phi_minus(spinor, 1)
print("primed-lowering operator is zero:", phi == Operator(2))
print()

vector = build_so(("-1",))
show(vector, "vector module of o(3)")

big = build_so(("-1/2", "-1/2", "-1/2"))
print("rank 3 spinor module has dimension", big.dim)
