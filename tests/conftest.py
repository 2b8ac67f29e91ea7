"""Shared corpus and cached builds for the test suite."""

from gtrep import (Operator, build_gl, build_so, check_weight_gl,
                   check_weight_so)
from gtrep.sorep import deformed_column

# small integral and half-integral weights at desk scale, covering ranks
# 1-4 (unitary side) and 1-3 (orthogonal side), both parity classes
A_CORPUS = [
    (3,),
    (1, 0), (2, 0), (1, 1),
    (2, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0),
    (3, 1, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0),
]

B_CORPUS = [
    ("0",), ("-1",), ("-1/2",),
    ("0", "0"), ("0", "-1"), ("-1/2", "-1/2"), ("-1", "-1"),
    ("0", "-2"), ("-1", "-2"), ("-1/2", "-3/2"),
    ("0", "0", "-1"), ("-1/2", "-1/2", "-1/2"), ("0", "-1", "-1"),
]

_reps = {}


def gl_rep(lam):
    key = ("A", lam)
    if key not in _reps:
        _reps[key] = build_gl(check_weight_gl(lam))
    return _reps[key]


def so_rep(w):
    key = ("B", w)
    if key not in _reps:
        _reps[key] = build_so(check_weight_so(w))
    return _reps[key]


def fresh_so_rep(w):
    # for tests that mutate generator matrices
    return build_so(check_weight_so(w))


def fresh_gl_rep(lam):
    return build_gl(check_weight_gl(lam))


def deformed_raise(basis, k):
    # the raising generator at level k with every column on the deformed
    # route: the reference the plain route must agree with
    op = Operator(basis.dim)
    for c, pat in enumerate(basis.patterns):
        for tgt, v in deformed_column(basis, k, c, pat).items():
            op.add_to(basis.index[tgt], c, v)
    return op
