import pytest

from syzex.algebra import AlgebraSpec, build_algebra
from syzex.corpus import vertex_module
from syzex.linalg import Matrix, hstack, rref
from syzex.rep import Hom, Representation


def from_columns(p, cols, nrows):
    """The matrix with these columns; nrows x 0 when there are none."""
    cols = [tuple(c) for c in cols]
    return Matrix.from_rows(p, cols).transpose() if cols else Matrix.zero(p, nrows, 0)


def col(m, j):
    return tuple(m.entry(i, j) for i in range(m.nrows))


def entries(m):
    """The rows of m as tuples of ints, in either row layout."""
    return tuple(m.row(i) for i in range(m.nrows))


def mat_vec(m, v):
    """m v over GF(p), entry by entry."""
    return tuple(sum(m.entry(i, j) * v[j] for j in range(m.ncols)) % m.p for i in range(m.nrows))


def solve_matrix(A, B):
    """X with A X = B (free variables zero), or None if inconsistent.

    Row r of the reduced augmented matrix [A | B] carries the value of the
    r-th pivot variable in its B block, read entry by entry.
    """
    if A.nrows != B.nrows:
        raise ValueError("shape mismatch")
    red, pivots = rref(hstack([A, B]))
    n = A.ncols
    if pivots and pivots[-1] >= n:
        return None
    values = [(pc, j, red.entry(r, n + j)) for r, pc in enumerate(pivots) for j in range(B.ncols)]
    return Matrix.from_entries(A.p, n, B.ncols, values)


def solve_vec(m, b):
    """Some x with m x = b (free variables zero) through solve_matrix, or None."""
    x = solve_matrix(m, from_columns(m.p, [b], m.nrows))
    return None if x is None else col(x, 0)


def invertible(h):
    """Whether a Hom is invertible at every vertex."""
    return all(m.nrows == m.ncols and m.rank() == m.nrows for m in h.mats)


def vanishes(h):
    """Whether a Hom is zero at every vertex."""
    return all(m.is_zero() for m in h.mats)


def then(f, g):
    """The Hom f followed by g."""
    return Hom(f.source, g.target, tuple(b.mul(a) for a, b in zip(f.mats, g.mats)))


def member_named(uni, name):
    """The class of S<v>, P<v> or I<v> in a universe's registry, interned if absent."""
    return uni.registry.intern(vertex_module(uni.algebra, name))[0]


def conjugate(rep, rng):
    """rep transported along random invertible per-vertex base changes."""
    p = rep.algebra.p
    q = rep.algebra.quiver
    changes = []
    for d in rep.dim:
        g = Matrix.zero(p, 0, 0)
        while g.nrows != d or g.rank() != d:
            g = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(d)] for _ in range(d)])
        changes.append((g, solve_matrix(g, Matrix.identity(p, d))))
    action = tuple(
        changes[q.arrow_target(ai)][0].mul(rep.action[ai]).mul(changes[q.arrow_source(ai)][1])
        for ai in range(len(q.arrows))
    )
    return Representation(rep.algebra, rep.dim, action)


def kron2_spec(p=2):
    return AlgebraSpec(
        p,
        ["0", "1"],
        [{"name": "x0", "from": "0", "to": "1"}, {"name": "x1", "from": "0", "to": "1"}],
        [],
    )


def beilinson2_spec(p=2):
    arrows = []
    for l in (1, 2):
        for i in range(3):
            arrows.append({"name": "x%d_%d" % (i, l), "from": str(l - 1), "to": str(l)})
    relations = []
    for i in range(3):
        for j in range(i + 1, 3):
            relations.append(
                [
                    {"coeff": 1, "path": ["x%d_1" % i, "x%d_2" % j]},
                    {"coeff": -1, "path": ["x%d_1" % j, "x%d_2" % i]},
                ]
            )
    return AlgebraSpec(p, ["0", "1", "2"], arrows, relations)


def fivevertex_spec(p=2):
    arrows = [
        {"name": "alpha", "from": "2", "to": "1"},
        {"name": "beta1", "from": "3", "to": "2"},
        {"name": "beta2", "from": "4", "to": "2"},
        {"name": "beta3", "from": "5", "to": "2"},
    ]
    relations = [[{"coeff": 1, "path": ["beta%d" % i, "alpha"]}] for i in (1, 2, 3)]
    return AlgebraSpec(p, ["1", "2", "3", "4", "5"], arrows, relations)


def semisimple3_spec(p=2):
    return AlgebraSpec(p, ["a", "b", "c"], [], [])


def dualnumbers_spec(p=2):
    return AlgebraSpec(
        p, ["1"], [{"name": "x", "from": "1", "to": "1"}], [[{"coeff": 1, "path": ["x", "x"]}]]
    )


@pytest.fixture(scope="session")
def kron2():
    return build_algebra(kron2_spec())


@pytest.fixture(scope="session")
def beilinson2():
    return build_algebra(beilinson2_spec())


@pytest.fixture(scope="session")
def fivevertex():
    return build_algebra(fivevertex_spec())


@pytest.fixture(scope="session")
def semisimple3():
    return build_algebra(semisimple3_spec())


@pytest.fixture(scope="session")
def dualnumbers():
    return build_algebra(dualnumbers_spec())
