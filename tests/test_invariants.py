"""Hypothesis-driven invariants for the exact linear algebra and hom layers."""

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import entries, mat_vec, solve_vec
from syzex.algebra import AlgebraSpec, build_algebra
from syzex.homology import gldim_bounded, projective_cover, syzygy
from syzex.linalg import Matrix, kernel_basis, rref
from syzex.rep import direct_sum, hom_space, is_iso


def matrices(p, max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda nr: st.integers(1, max_dim).flatmap(
            lambda nc: st.lists(
                st.lists(st.integers(0, p - 1), min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            ).map(lambda rows: Matrix.from_rows(p, rows))
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(matrices))
def test_rref_idempotent(m):
    red, pivots = rref(m)
    red2, pivots2 = rref(red)
    assert red2 == red and pivots2 == pivots


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(matrices))
def test_rank_nullity_and_transpose(m):
    assert m.rank() == m.transpose().rank()
    ker, _ = kernel_basis(m)
    assert ker.nrows + m.rank() == m.ncols
    for v in entries(ker):
        assert all(x == 0 for x in mat_vec(m, v))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(matrices), st.data())
def test_solve_exactness(m, data):
    x = tuple(data.draw(st.integers(0, m.p - 1)) for _ in range(m.ncols))
    b = mat_vec(m, x)
    got = solve_vec(m, b)
    assert got is not None and mat_vec(m, got) == b


def kron_reps():
    def build(bits):
        algebra = build_algebra(
            AlgebraSpec(
                2,
                ["0", "1"],
                [{"name": "x0", "from": "0", "to": "1"}, {"name": "x1", "from": "0", "to": "1"}],
                [],
            )
        )
        d0, d1 = 1 + bits[0] % 2, 1 + bits[1] % 2
        from syzex.rep import Representation

        m0 = Matrix.from_rows(2, [[bits[2 + i * d0 + j] % 2 for j in range(d0)] for i in range(d1)])
        m1 = Matrix.from_rows(2, [[bits[6 + i * d0 + j] % 2 for j in range(d0)] for i in range(d1)])
        return Representation(algebra, (d0, d1), (m0, m1))

    return st.lists(st.integers(0, 1), min_size=12, max_size=12).map(build)


@settings(max_examples=40, deadline=None)
@given(kron_reps(), kron_reps())
def test_hom_additivity(m, n):
    # same session-level algebra object is required for hom computations
    n = type(n)(m.algebra, n.dim, n.action)
    lhs = hom_space(direct_sum([m, n]), m).dimension
    assert lhs == hom_space(m, m).dimension + hom_space(n, m).dimension
    rhs = hom_space(m, direct_sum([m, n])).dimension
    assert rhs == hom_space(m, m).dimension + hom_space(m, n).dimension


@settings(max_examples=30, deadline=None)
@given(kron_reps())
def test_iso_reflexive_and_symmetric(m):
    n = type(m)(m.algebra, m.dim, m.action)
    assert is_iso(m, n) is True
    assert is_iso(n, m) is True


def test_gldim_bounds_syzygies(fivevertex, beilinson2):
    for algebra in (fivevertex, beilinson2):
        g = gldim_bounded(algebra)
        for v in range(algebra.n_vertices):
            for probe in (algebra.simple(v), algebra.injective(v)):
                assert projective_cover(syzygy(probe, g)).kernel.total_dim == 0


def test_iso_equivalence_on_sample(kron2):
    from syzex.extdim import UniverseParams, generate_universe

    uni = generate_universe(kron2, UniverseParams(4))
    sample = uni.sorted_members()
    for a in sample:
        assert is_iso(a, a) is True
    for a in sample:
        for b in sample:
            ab = is_iso(a, b)
            assert ab == is_iso(b, a)
            if ab:
                for c in sample:
                    bc = is_iso(b, c)
                    if bc:
                        assert is_iso(a, c) is True
