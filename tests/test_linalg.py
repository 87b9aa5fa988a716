import itertools
import random

import pytest

from syzex.linalg import (
    Matrix,
    hstack,
    inv_mod,
    kernel_basis,
    quotient_maps,
    rref,
    solve,
    solve_matrix,
    vstack,
)


def brute_kernel(m):
    """Oracle: enumerate all of GF(p)^ncols and keep the null vectors."""
    vecs = []
    for v in itertools.product(range(m.p), repeat=m.ncols):
        if all(x == 0 for x in m.mul_vec(v)):
            vecs.append(v)
    return vecs


def brute_solve(m, b):
    for v in itertools.product(range(m.p), repeat=m.ncols):
        if m.mul_vec(v) == tuple(b):
            return v
    return None


def hand_rref_2x2_ones():
    # [[1,1],[1,1]] over GF(2): subtract row 0 from row 1
    return [[1, 1], [0, 0]], 1


def test_inv_mod_gf5():
    for x in range(1, 5):
        assert x * inv_mod(x, 5) % 5 == 1
    assert inv_mod(7, 5) == 3
    with pytest.raises(ZeroDivisionError):
        inv_mod(10, 5)


def test_rref_identity_gf2():
    m = Matrix.identity(2, 2)
    red, rank = rref(m)
    assert red == m and rank == 2


def test_rref_zero():
    m = Matrix.zero(2, 3, 4)
    red, rank = rref(m)
    assert red.is_zero() and rank == 0


def test_rref_all_ones_gf2():
    expected, expected_rank = hand_rref_2x2_ones()
    red, rank = rref(Matrix.from_rows(2, [[1, 1], [1, 1]]))
    assert red.entries() == tuple(tuple(r) for r in expected)
    assert rank == expected_rank


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(2, 3)) == []


def test_kernel_zero_matrix_standard_basis():
    ker = kernel_basis(Matrix.zero(2, 2, 3))
    assert sorted(ker) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_kernel_one_one_gf2_oracle():
    m = Matrix.from_rows(2, [[1, 1]])
    expected = [v for v in brute_kernel(m) if any(v)]
    assert expected == [(1, 1)]
    assert kernel_basis(m) == [(1, 1)]


def test_solve_identity():
    m = Matrix.identity(3, 2)
    assert solve(m, (1, 2)) == (1, 2)


def test_solve_zero_inconsistent():
    assert solve(Matrix.zero(2, 2, 2), (1, 0)) is None


def test_solve_column_repeat_gf2_oracle():
    m = Matrix.from_rows(2, [[1, 0], [1, 0]])
    assert brute_solve(m, (1, 0)) is None
    assert solve(m, (1, 0)) is None
    assert solve(m, (1, 1)) == (1, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_idempotent_random(p):
    rng = random.Random(7 + p)
    for _ in range(40):
        nr, nc = rng.randint(0, 5), rng.randint(1, 5)
        m = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]) if nr else Matrix.zero(p, 0, nc)
        red, rank = rref(m)
        red2, rank2 = rref(red)
        assert red2 == red and rank2 == rank


@pytest.mark.parametrize("p", [2, 3])
def test_rank_transpose_and_kernel_dim(p):
    rng = random.Random(11 + p)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)])
        assert m.rank() == m.transpose().rank()
        assert len(kernel_basis(m)) + m.rank() == nc
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.mul_vec(v))


@pytest.mark.parametrize("p", [2, 3])
def test_solve_returns_exact_solution(p):
    rng = random.Random(13 + p)
    for _ in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)])
        x = tuple(rng.randrange(p) for _ in range(nc))
        b = m.mul_vec(x)
        got = solve(m, b)
        assert got is not None
        assert m.mul_vec(got) == tuple(b)


def test_mul_matches_naive():
    rng = random.Random(17)
    for p in (2, 3):
        for _ in range(30):
            a = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(3)] for _ in range(2)])
            b = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(4)] for _ in range(3)])
            c = a.mul(b)
            for i in range(2):
                for j in range(4):
                    expect = sum(a.entry(i, k) * b.entry(k, j) for k in range(3)) % p
                    assert c.entry(i, j) == expect


def test_stacking_and_solve_matrix():
    a = Matrix.from_rows(2, [[1, 0], [1, 1]])
    b = Matrix.identity(2, 2)
    assert hstack([a, b]).ncols == 4
    assert vstack([a, b]).nrows == 4
    x = solve_matrix(a, b)
    assert a.mul(x) == b


def test_quotient_maps_gf2_and_gf3():
    for p in (2, 3):
        sub = Matrix.from_columns(p, [(1, 1, 0)], 3)
        proj, lift = quotient_maps(sub)
        assert proj.nrows == 2 and lift.ncols == 2
        assert proj.mul(lift) == Matrix.identity(p, 2)
        assert proj.mul(sub).is_zero()
