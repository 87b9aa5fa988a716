import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import split_oracle
from conftest import entries, from_columns, mat_vec, solve_matrix, solve_vec
from split_oracle import _kernel_rows, column_space_basis
from syzex.errors import SpecError
from syzex.linalg import (
    Matrix,
    _kernel3,
    _entries,
    _width,
    block_diagonal,
    combine,
    coordinates,
    flat,
    hstack,
    is_prime,
    kernel_basis,
    nonzeros,
    null_rows,
    quotient_maps,
    rref,
    unflat,
    vstack,
)


_ONES3 = bytes.maketrans(b"\x00\x01\x02", b"010")
_TWOS3 = bytes.maketrans(b"\x00\x01\x02", b"001")


def pack3(row) -> tuple:
    """A GF(3) tuple row as its (ones, twos) pair: bit j of ones is set where
    entry j is 1, bit j of twos where it is 2."""
    digits = b"0" + bytes(row)[::-1]
    return int(digits.translate(_ONES3), 2), int(digits.translate(_TWOS3), 2)


def brute_kernel(m):
    """Oracle: enumerate all of GF(p)^ncols and keep the null vectors."""
    vecs = []
    for v in itertools.product(range(m.p), repeat=m.ncols):
        if all(x == 0 for x in mat_vec(m, v)):
            vecs.append(v)
    return vecs


def brute_solve(m, b):
    for v in itertools.product(range(m.p), repeat=m.ncols):
        if mat_vec(m, v) == tuple(b):
            return v
    return None


def hand_rref_2x2_ones():
    # [[1,1],[1,1]] over GF(2): subtract row 0 from row 1
    return [[1, 1], [0, 0]], [0]


def test_rref_identity_gf2():
    m = Matrix.identity(2, 2)
    red, pivots = rref(m)
    assert red == m and pivots == [0, 1]


def test_rref_zero():
    m = Matrix.zero(2, 3, 4)
    red, pivots = rref(m)
    assert red.is_zero() and pivots == []


def test_rref_all_ones_gf2():
    expected, expected_pivots = hand_rref_2x2_ones()
    red, pivots = rref(Matrix.from_rows(2, [[1, 1], [1, 1]]))
    assert entries(red) == tuple(tuple(r) for r in expected)
    assert pivots == expected_pivots


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(2, 3)) == (Matrix.zero(2, 0, 3), [])


def test_kernel_zero_matrix_standard_basis():
    ker, free = kernel_basis(Matrix.zero(2, 2, 3))
    assert sorted(entries(ker)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert free == [0, 1, 2]


def test_kernel_one_one_gf2_oracle():
    m = Matrix.from_rows(2, [[1, 1]])
    expected = [v for v in brute_kernel(m) if any(v)]
    assert expected == [(1, 1)]
    ker, free = kernel_basis(m)
    assert entries(ker) == ((1, 1),) and free == [1]


def test_solve_identity():
    m = Matrix.identity(3, 2)
    assert solve_vec(m, (1, 2)) == (1, 2)


def test_solve_zero_inconsistent():
    assert solve_vec(Matrix.zero(2, 2, 2), (1, 0)) is None


def test_solve_column_repeat_gf2_oracle():
    m = Matrix.from_rows(2, [[1, 0], [1, 0]])
    assert brute_solve(m, (1, 0)) is None
    assert solve_vec(m, (1, 0)) is None
    assert solve_vec(m, (1, 1)) == (1, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_idempotent_random(p):
    rng = random.Random(7 + p)
    for _ in range(40):
        nr, nc = rng.randint(0, 5), rng.randint(1, 5)
        m = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]) if nr else Matrix.zero(p, 0, nc)
        red, pivots = rref(m)
        red2, pivots2 = rref(red)
        assert red2 == red and pivots2 == pivots


@pytest.mark.parametrize("p", [2, 3])
def test_rank_transpose_and_kernel_dim(p):
    rng = random.Random(11 + p)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)])
        assert m.rank() == m.transpose().rank()
        ker, _ = kernel_basis(m)
        assert ker.nrows + m.rank() == nc
        for v in entries(ker):
            assert all(x == 0 for x in mat_vec(m, v))


@pytest.mark.parametrize("p", [2, 3])
def test_solve_returns_exact_solution(p):
    rng = random.Random(13 + p)
    for _ in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)])
        x = tuple(rng.randrange(p) for _ in range(nc))
        b = mat_vec(m, x)
        got = solve_vec(m, b)
        assert got is not None
        assert mat_vec(m, got) == tuple(b)


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
        sub = from_columns(p, [(1, 1, 0)], 3)
        proj, lift = quotient_maps(sub)
        assert proj.nrows == 2 and lift.ncols == 2
        assert proj.mul(lift) == Matrix.identity(p, 2)
        assert proj.mul(sub).is_zero()


def random_matrix(rng, p, nrows, ncols, rank):
    """A nrows x ncols matrix of rank at most `rank`, as a product of random factors."""
    if 0 in (nrows, ncols, rank):
        return Matrix.zero(p, nrows, ncols)
    left = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)])
    right = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)])
    return left.mul(right)


def oracle_shapes(rng, p):
    """Empty, zero, identity and random low-rank matrices over GF(p)."""
    mats = [Matrix.zero(p, 0, 0), Matrix.zero(p, 0, 3), Matrix.zero(p, 3, 0), Matrix.zero(p, 3, 4)]
    mats += [Matrix.identity(p, n) for n in (1, 4)]
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        mats.append(random_matrix(rng, p, nr, nc, rng.randint(0, min(nr, nc))))
    return mats


def pivot_columns(m):
    red, pivots = rref(m)
    return [next(j for j in range(m.ncols) if red.entry(r, j)) for r in range(len(pivots))]


def inverse_by_elimination(rows, p):
    """Gauss-Jordan inverse of a square list-of-lists matrix over GF(p)."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] % p)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def quotient_maps_by_inversion(sub):
    """The inverse-based construction: coordinates in (subspace basis, free unit vectors)."""
    p, n = sub.p, sub.nrows
    red, pivots = rref(sub.transpose())
    rank = len(pivots)
    pivots = pivot_columns(sub.transpose())
    free = [j for j in range(n) if j not in pivots]
    basis = [list(red.row(i)) for i in range(rank)] + [[int(i == j) for i in range(n)] for j in free]
    # coords(x) = (basis^T)^{-1} x; the quotient coordinates are the trailing block
    transposed = [[basis[i][j] for i in range(n)] for j in range(n)]
    inv = inverse_by_elimination(transposed, p) if n else []
    proj = Matrix.from_rows(p, inv[rank:]) if free else Matrix.zero(p, 0, n)
    lift = from_columns(p, [tuple(int(i == j) for i in range(n)) for j in free], n)
    return proj, lift


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_quotient_maps_oracle(p):
    rng = random.Random(101 + p)
    for sub in oracle_shapes(rng, p):
        n = sub.nrows
        proj, lift = quotient_maps(sub)
        q = n - sub.rank()
        assert (proj.nrows, proj.ncols, lift.nrows, lift.ncols) == (q, n, n, q)
        assert proj.mul(lift) == Matrix.identity(p, q)
        assert proj.mul(sub).is_zero()
        assert (proj, lift) == quotient_maps_by_inversion(sub)
        assert proj == kernel_basis(sub.transpose())[0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_matrix_oracle(p):
    rng = random.Random(211 + p)
    for a in oracle_shapes(rng, p):
        k = rng.randint(0, 3)
        x0 = random_matrix(rng, p, a.ncols, k, min(a.ncols, k))
        b = a.mul(x0)
        x = solve_matrix(a, b)
        assert (x.nrows, x.ncols) == (a.ncols, k)
        assert a.mul(x) == b
        pivots = pivot_columns(a)
        for j in range(a.ncols):
            if j not in pivots:
                assert not any(x.row(j))
        if a.nrows:
            # a right-hand side outside the column space has no solution
            extra = Matrix.from_rows(p, [[rng.randrange(p)] for _ in range(a.nrows)])
            if hstack([a, extra]).rank() > a.rank():
                assert solve_matrix(a, extra) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_column_space_basis_oracle(p):
    rng = random.Random(307 + p)
    for m in oracle_shapes(rng, p):
        got = column_space_basis(m)
        red, pivots = rref(m.transpose())
        rank = len(pivots)
        want = Matrix.from_rows(p, [red.row(i) for i in range(rank)]) if rank else Matrix.zero(p, 0, m.nrows)
        assert (got.nrows, got.ncols) == (m.nrows, rank)
        assert got.transpose() == want


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_null_space_oracle(p):
    """null_rows, as columns, is the column_space_basis of the kernel vectors
    stacked as columns, and its pivots are rref's on its rows."""
    rng = random.Random(503 + p)
    for m in oracle_shapes(rng, p):
        vecs = entries(kernel_basis(m)[0])
        cols = from_columns(p, vecs, m.ncols) if vecs else Matrix.zero(p, m.ncols, 0)
        rows, pivots = null_rows(m)
        got = rows.transpose()
        assert got == column_space_basis(cols)
        assert pivots == rref(rows)[1]
        assert m.mul(got).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_null_rows_edge_shapes(p):
    """null_rows on 0 x n matrices (the whole space: the unit rows), n x 0
    ones (no vector) and full column rank ones (no vector), across 64 and
    128 columns."""
    rng = random.Random(911 + p)
    for n in (0, 1, 9, 70, 130):
        assert null_rows(Matrix.zero(p, 0, n)) == (Matrix.identity(p, n), list(range(n)))
        assert null_rows(Matrix.zero(p, n, 0)) == (Matrix.zero(p, 0, 0), [])
        # unit upper triangular with -1 on the diagonal at random, then random rows
        square = [[(rng.choice((1, p - 1)) if i == j else rng.randrange(p) if j > i else 0) for j in range(n)]
                  for i in range(n)]
        tall = square + [[rng.randrange(p) for _ in range(n)] for _ in range(3)]
        for rows in (square, tall, square[::-1]):
            m = Matrix.from_rows(p, rows) if rows else Matrix.zero(p, 0, n)
            assert m.rank() == n
            assert null_rows(m) == (Matrix.zero(p, 0, n), [])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_transpose_and_apply_match_entries(p):
    rng = random.Random(401 + p)
    for m in oracle_shapes(rng, p):
        t = m.transpose()
        assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
        assert all(t.entry(j, i) == m.entry(i, j) for i in range(m.nrows) for j in range(m.ncols))
        assert t.transpose() == m
        # m applied to v as projective_cover applies arrows: v as a row times m^T
        v = tuple(rng.randrange(p) for _ in range(m.ncols))
        row = Matrix.from_rows(p, [v]) if m.ncols else Matrix.zero(p, 1, 0)
        assert row.mul(t).row(0) == mat_vec(m, v)


def test_key_is_injective_above_255():
    a = Matrix.from_rows(257, [[1, 256]])
    b = Matrix.from_rows(257, [[1, 0]])
    assert a.key() != b.key()
    assert a.key() == bytes([0, 1, 1, 0])
    assert Matrix.from_rows(251, [[1, 250]]).key() == bytes([1, 250])


def kernel_rows_per_pivot(red, pivots, ncols):
    """Oracle: GF(2) kernel rows built by testing every pivot row at each free column."""
    rows = []
    for f in (f for f in range(ncols) if f not in pivots):
        v = 1 << f
        for r, pc in enumerate(pivots):
            if (red.rows[r] >> f) & 1:
                v |= 1 << pc
        rows.append(v)
    return Matrix(2, len(rows), ncols, tuple(rows))


def test_gf2_kernel_rows_match_per_pivot_loop():
    rng = random.Random(611)
    mats = [Matrix.zero(2, 0, 0), Matrix.zero(2, 0, 5), Matrix.zero(2, 4, 0), Matrix.zero(2, 3, 3), Matrix.identity(2, 5)]
    for _ in range(200):
        nr, nc = rng.randint(1, 12), rng.randint(1, 70)
        mats.append(random_matrix(rng, 2, nr, nc, rng.randint(0, min(nr, nc))))
    for m in mats:
        red, pivots = rref(m)
        assert _kernel_rows(red, pivots, m.ncols) == kernel_rows_per_pivot(red, pivots, m.ncols)


def byte_per_entry_key(m):
    """The one-byte-per-entry encoding, in row order."""
    return bytes(x for i in range(m.nrows) for x in m.row(i))


def test_gf2_key_orders_like_byte_per_entry_key():
    rng = random.Random(613)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 7), (3, 3), (2, 9), (5, 13), (8, 8)]
    for nr, nc in shapes:
        for _ in range(40):
            # a few dense bits, so that many pairs share long prefixes or are equal
            a, b = (
                Matrix.from_rows(2, [[int(rng.random() < 0.2) for _ in range(nc)] for _ in range(nr)])
                for _ in range(2)
            )
            ka, kb, oa, ob = a.key(), b.key(), byte_per_entry_key(a), byte_per_entry_key(b)
            assert len(ka) == (nr * nc + 7) // 8
            assert (ka == kb) == (oa == ob) == (a == b)
            assert (ka < kb) == (oa < ob)
    assert Matrix.from_rows(2, [[1, 0, 0], [0, 0, 1]]).key() == bytes([0b10000100])


def packed_entries(p, entries):
    """Oracle: key bytes built entry by entry; GF(2) bits most significant first."""
    if p == 2:
        bits = "".join(map(str, entries)) + "0" * (-len(entries) % 8)
        return bytes(int(bits[k:k + 8], 2) for k in range(0, len(bits), 8))
    width = ((p - 1).bit_length() + 7) // 8
    return b"".join(x.to_bytes(width, "big") for x in entries)


@pytest.mark.parametrize("p", [2, 3, 257])
def test_flat_unflat_and_key(p):
    """flat lays blocks out row-major and concatenated, unflat cuts each back
    out, and Matrix.key packs flat's row, on shapes 0x0, 0xk and kx0 too."""
    rng = random.Random(617 + p)
    mats = oracle_shapes(rng, p)
    assert flat(p, ()) == ((0, 0) if p == 3 else 0)
    for _ in range(40):
        blocks = tuple(rng.choice(mats) for _ in range(rng.randint(1, 4)))
        row = flat(p, blocks)
        entries = [m.entry(i, j) for m in blocks for i in range(m.nrows) for j in range(m.ncols)]
        assert row == flat_row(p, entries)
        off = 0
        for m in blocks:
            assert unflat(p, row, off, m.nrows, m.ncols) == m
            off += m.nrows * m.ncols
    for m in mats:
        row, n = flat(p, (m,)), m.nrows * m.ncols
        assert m.key() == packed_entries(p, flat_entries(p, row, n))


def flat_row(p, entries):
    """Oracle: flat's row of these entries, built entry by entry."""
    if p == 2:
        return sum(x << k for k, x in enumerate(entries))
    if p == 3:
        return pack3(entries)
    return sum(x << k * _width(p) for k, x in enumerate(entries))


def flat_entries(p, row, n):
    """The n entries of a flat row, in order."""
    if p == 2:
        return [(row >> k) & 1 for k in range(n)]
    if p == 3:
        return list(_entries(3, row, n))
    out = [0] * n
    for k, x in nonzeros(p, row):
        out[k] = x
    return out


@pytest.mark.parametrize("p", [2, 3, 257])
def test_block_diagonal_sets_flat_blocks_down_the_diagonal(p):
    """Entry (i, j) of block v lands at (at_v + i, at_v + j), at_v being the
    sum of the earlier sizes, and every entry off the blocks is 0; sizes 0
    included."""
    rng = random.Random(619 + p)
    for _ in range(40):
        dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        blocks = [
            Matrix.from_rows(p, [[rng.randrange(p) for _ in range(d)] for _ in range(d)]) if d
            else Matrix.zero(p, 0, 0)
            for d in dims
        ]
        offsets = list(itertools.accumulate((d * d for d in dims), initial=0))[:-1]
        got = block_diagonal(p, flat(p, blocks), offsets, dims)
        n = sum(dims)
        want = [[0] * n for _ in range(n)]
        at = 0
        for b, d in zip(blocks, dims):
            for i in range(d):
                for j in range(d):
                    want[at + i][at + j] = b.entry(i, j)
            at += d
        assert (got.nrows, got.ncols) == (n, n)
        assert [list(r) for r in entries(got)] == want


def mul_entrywise(a, b):
    return [
        [sum(a.entry(i, k) * b.entry(k, j) for k in range(a.ncols)) % a.p for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


@pytest.mark.parametrize("p", [3, 5, 257])
def test_odd_mul_matches_entrywise_product(p):
    rng = random.Random(617 + p)
    shapes = [(0, 0, 0), (2, 0, 3), (0, 3, 2), (3, 4, 0)]
    pairs = [(Matrix.zero(p, n, k), Matrix.zero(p, k, m)) for n, k, m in shapes]
    for _ in range(60):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6)
        rows = []
        for _ in range(n):
            row = [0] * k
            kind = rng.randrange(4)  # zero row, single 1, single p - 1 or other, dense
            if kind in (1, 2):
                row[rng.randrange(k)] = 1 if kind == 1 else rng.choice([p - 1, rng.randrange(1, p)])
            elif kind == 3:
                row = [rng.randrange(p) for _ in range(k)]
            rows.append(row)
        b = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(m)] for _ in range(k)]) if m else Matrix.zero(p, k, 0)
        pairs.append((Matrix.from_rows(p, rows), b))
    for a, b in pairs:
        c = a.mul(b)
        assert (c.nrows, c.ncols) == (a.nrows, b.ncols)
        assert [list(c.row(i)) for i in range(c.nrows)] == mul_entrywise(a, b)


def test_is_prime_agrees_with_trial_division_below_1e5():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(10 ** 5) if is_prime(n)] == [n for n in range(10 ** 5) if trial(n)]


def test_is_prime_large():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    assert is_prime(2 ** 61 - 1)
    # the 13 bases are proven only below 3.317e24; above it the field is refused
    with pytest.raises(SpecError):
        is_prime(3317044064679887385961981)


def rref_column_scan(m):
    """Oracle: GF(2) reduction that tests every remaining row at every column."""
    rows = list(m.rows)
    pivots = []
    r = 0
    for c in range(m.ncols):
        bit = 1 << c
        pivot = -1
        for i in range(r, m.nrows):
            if rows[i] & bit:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        for i in range(m.nrows):
            if i != r and rows[i] & bit:
                rows[i] ^= pr
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return tuple(rows), pivots


@st.composite
def gf2_matrices(draw, rows, cols):
    """Random GF(2) matrices of a given density, with zero and repeated rows mixed in."""
    nr, nc = draw(rows), draw(cols)
    density = draw(st.floats(0.02, 0.9))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    out = [sum(1 << j for j in range(nc) if rng.random() < density) for _ in range(nr)]
    for extra in draw(st.lists(st.sampled_from(["zero", "repeat"]), max_size=4)):
        out.append(rng.choice(out) if extra == "repeat" and out else 0)
    rng.shuffle(out)
    return Matrix(2, len(out), nc, tuple(out))


def rref_gauss_jordan(m):
    """Oracle: odd-p Gauss-Jordan that scans every remaining row at every
    column, scales the pivot row and clears the column in every other row."""
    p = m.p
    rows = [list(m.row(i)) for i in range(m.nrows)]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot = -1
        for i in range(r, m.nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return tuple(tuple(r) for r in rows), pivots


@st.composite
def odd_matrices(draw, rows, cols, primes=(3, 5, 257)):
    """Random GF(p) matrices, p in primes, of a given density, with zero
    rows, repeated rows and multiples of rows mixed in."""
    p = draw(st.sampled_from(primes))
    nr, nc = draw(rows), draw(cols)
    density = draw(st.floats(0.02, 0.9))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    out = [tuple(rng.randrange(1, p) if rng.random() < density else 0 for _ in range(nc)) for _ in range(nr)]
    for extra in draw(st.lists(st.sampled_from(["zero", "repeat", "multiple"]), max_size=4)):
        if extra == "zero" or not out:
            out.append((0,) * nc)
        else:
            c = 1 if extra == "repeat" else rng.randrange(2, p)
            out.append(tuple(c * x % p for x in rng.choice(out)))
    rng.shuffle(out)
    return Matrix.from_rows(p, out) if out else Matrix.zero(p, 0, nc)


def check_against_gauss_jordan(m):
    red, pivots = rref(m)
    assert (red.nrows, red.ncols) == (m.nrows, m.ncols)
    assert (entries(red), pivots) == rref_gauss_jordan(m)
    assert m.rank() == len(pivots)


@settings(max_examples=300, deadline=None)
@given(odd_matrices(st.integers(0, 25), st.integers(0, 25)))
def test_odd_rref_matches_gauss_jordan(m):
    check_against_gauss_jordan(m)


@settings(max_examples=30, deadline=None)
@given(odd_matrices(st.integers(0, 20), st.just(200)))
def test_odd_rref_matches_gauss_jordan_wide(m):
    check_against_gauss_jordan(m)


@pytest.mark.parametrize("p", [3, 257])
def test_odd_add_scale_combine_match_entrywise(p):
    rng = random.Random(619 + p)
    for nr, nc in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 3)]:
        a, b = ([[rng.randrange(p) for _ in range(nc)] for _ in range(nr)] for _ in range(2))
        ma, mb = (Matrix.from_rows(p, x) if nr else Matrix.zero(p, 0, nc) for x in (a, b))
        assert [list(r) for r in entries(ma.add(mb))] == [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(a, b)]
        for c in (0, 1, 2, p - 1, p + 1, -1, rng.randrange(p)):
            assert [list(r) for r in entries(ma.scale(c))] == [[c * x % p for x in r] for r in a]
        assert ma.scale(1) is ma
        terms = [(ma, mb), (mb, ma), (ma, ma)]
        plain = [(a, b), (b, a), (a, a)]
        for coeffs in itertools.product((0, 1, p - 1, 2), repeat=3):
            got = combine(coeffs, terms)
            if not any(coeffs):
                assert got is None
                continue
            for t in range(2):
                want = [
                    [sum(c * plain[k][t][i][j] for k, c in enumerate(coeffs)) % p for j in range(nc)]
                    for i in range(nr)
                ]
                assert [list(r) for r in entries(got[t])] == want


def check_against_column_scan(m):
    red, pivots = rref(m)
    assert (red.nrows, red.ncols) == (m.nrows, m.ncols)
    assert (red.rows, pivots) == rref_column_scan(m)
    assert m.rank() == len(pivots)


@settings(max_examples=300, deadline=None)
@given(gf2_matrices(st.integers(0, 40), st.integers(0, 40)))
def test_gf2_rref_matches_column_scan(m):
    check_against_column_scan(m)


@settings(max_examples=40, deadline=None)
@given(gf2_matrices(st.integers(0, 30), st.just(800)))
def test_gf2_rref_matches_column_scan_wide(m):
    check_against_column_scan(m)


def check_kernel_against_rref_route(m):
    """kernel_basis and null_rows against the kernel read off rref's
    back-substitution, and null_rows' pivots against its rows' own."""
    ker, free = kernel_basis(m)
    assert (ker.nrows, ker.ncols) == (m.ncols - m.rank(), m.ncols)
    assert ker == split_oracle.kernel_basis(m)
    assert free == [j for j in range(m.ncols) if j not in rref(m)[1]]
    rows, pivots = null_rows(m)
    assert rows.transpose() == split_oracle.null_space(m)
    assert pivots == rref(rows)[1]


WIDE_FULL_RANK = Matrix(2, 3, 70, (1 | 1 << 69, 2 | 1 << 40, 4 | 1 << 65))


@settings(max_examples=300, deadline=None)
@given(gf2_matrices(st.integers(0, 30), st.integers(0, 100)))
@example(Matrix.zero(2, 0, 0))
@example(Matrix.zero(2, 0, 9))
@example(Matrix.zero(2, 7, 0))
@example(Matrix.zero(2, 5, 80))
@example(Matrix.identity(2, 70))
@example(WIDE_FULL_RANK)
@example(WIDE_FULL_RANK.transpose())
def test_gf2_kernel_matches_rref_route(m):
    """The bit-sliced back-solve over _echelon's forward pass gives the
    kernel rows that rref and its scatter gave: on empty, zero and
    full-rank matrices, and on rows wider than 64 columns."""
    check_kernel_against_rref_route(m)


@settings(max_examples=100, deadline=None)
@given(odd_matrices(st.integers(0, 12), st.integers(0, 12)))
def test_odd_kernel_matches_rref_route(m):
    check_kernel_against_rref_route(m)


def test_unpack_matches_shift_loop():
    rng = random.Random(619)
    for n in range(1001):
        for mask in (0, (1 << n) - 1, rng.getrandbits(n)):
            assert tuple(_entries(2, mask, n)) == tuple((mask >> j) & 1 for j in range(n))


def test_gf3_pack_unpack_round_trip():
    """A (ones, twos) pair has bit j of ones set where entry j is 1 and of
    twos where it is 2, and unpacks back to the row."""
    rng = random.Random(627)
    for n in (0, 1, 63, 64, 65, 200):
        for row in ((0,) * n, (1,) * n, (2,) * n, tuple(rng.randrange(3) for _ in range(n))):
            ones, twos = pack3(row)
            assert ones == sum(1 << j for j, x in enumerate(row) if x == 1)
            assert twos == sum(1 << j for j, x in enumerate(row) if x == 2)
            assert tuple(_entries(3, (ones, twos), n)) == row


GF3_WIDE_FULL_RANK = Matrix.from_rows(3, [
    (1,) + (0,) * 138 + (2,),
    (0, 1) + (0,) * 67 + (2,) + (0,) * 70,
    (0, 0, 2) + (0,) * 62 + (1,) * 75,
])


def kernel_by_entries(m):
    """Oracle: the canonical kernel rows and free columns read off
    rref_gauss_jordan entry by entry, row k 1 at the k-th free column f and
    minus the reduced entry in column f at each pivot column."""
    red, pivots = rref_gauss_jordan(m)
    free = [f for f in range(m.ncols) if f not in pivots]
    rows = []
    for f in free:
        v = [0] * m.ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f] % m.p
        rows.append(tuple(v))
    return tuple(rows), free


@settings(max_examples=200, deadline=None)
@given(odd_matrices(st.integers(0, 20), st.integers(0, 150), primes=(3,)))
@example(Matrix.zero(3, 0, 0))
@example(Matrix.zero(3, 0, 9))
@example(Matrix.zero(3, 7, 0))
@example(Matrix.zero(3, 5, 80))
@example(Matrix.identity(3, 70))
@example(Matrix.identity(3, 130).scale(2))
@example(GF3_WIDE_FULL_RANK)
@example(GF3_WIDE_FULL_RANK.transpose())
def test_gf3_pair_kernel_matches_entrywise_oracle(m):
    """The GF(3) solve on (ones, twos) pairs gives the kernel rows and free
    columns that Gauss-Jordan elimination entry by entry gives: on empty,
    zero and full-rank systems, on rows wider than 64 and 128 columns, and
    on rows mixing 1s and 2s."""
    ker, free = kernel_basis(m)
    assert (ker.nrows, ker.ncols) == (len(free), m.ncols)
    assert (entries(ker), free) == kernel_by_entries(m)


def test_gf3_pair_solve_refuses_overlapping_masks():
    """A pair with a bit set in both masks is no GF(3) row: the solve raises
    at once instead of reducing its lead forever."""
    for pairs, n in (([(0b1, 0b1)], 1), ([(0b10, 0b01), (0b110, 0b100)], 3), ([(0b1, 0b0), (0b11, 0b10)], 2)):
        with pytest.raises(ValueError, match="both 1 and 2"):
            _kernel3(pairs, n)


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_from_entries_matches_from_rows(p):
    """The sparse constructor writes the same rows as from_rows of the dense
    rows: no rows, no columns, empty rows, entries to reduce mod p, and
    rows wider than 64 columns; nonzeros reads each row back."""
    rng = random.Random(641 + p)
    shapes = [(0, 0), (0, 5), (4, 0), (3, 3), (1, 70), (6, 130)]
    for nrows, ncols in shapes:
        for density in (0.0, 0.1, 0.6):
            dense = [[0] * ncols for _ in range(nrows)]
            triples = []
            for i, j in itertools.product(range(nrows), range(ncols)):
                if rng.random() < density:
                    c = rng.randrange(1, 3 * p) - p  # negatives, multiples of p and residues
                    dense[i][j] = c
                    triples.append((i, j, c))
            rng.shuffle(triples)
            want = Matrix.from_rows(p, dense) if nrows else Matrix.zero(p, 0, ncols)
            got = Matrix.from_entries(p, nrows, ncols, triples)
            assert got == want
            assert [nonzeros(p, r) for r in got.rows] == [
                [(j, x) for j, x in enumerate(want.row(i)) if x] for i in range(nrows)
            ]


def check_free_columns(m):
    """Each kernel_basis row is 1 at its own free column, 0 at every other
    free column, and has its last nonzero entry there."""
    ker, free = kernel_basis(m)
    assert len(free) == ker.nrows
    for k, f in enumerate(free):
        row = ker.row(k)
        assert [row[g] for g in free] == [int(g == f) for g in free]
        assert max(j for j, x in enumerate(row) if x) == f


@settings(max_examples=200, deadline=None)
@given(gf2_matrices(st.integers(0, 30), st.integers(0, 100)))
@example(Matrix.zero(2, 3, 70))
@example(WIDE_FULL_RANK)
def test_gf2_kernel_rows_are_unit_at_their_free_columns(m):
    check_free_columns(m)


@settings(max_examples=100, deadline=None)
@given(odd_matrices(st.integers(0, 12), st.integers(0, 80)))
def test_odd_kernel_rows_are_unit_at_their_free_columns(m):
    check_free_columns(m)


@st.composite
def coordinate_cases(draw):
    """(basis, pivots, vectors, inside): a reduced basis from rref, null_rows
    or kernel_basis of a random matrix over GF(2), GF(3) or GF(257), set as
    columns with its pivots, and vectors as columns, random combinations of
    the basis; with inside False, one of them has a unit added at a row that
    is no pivot, which puts it off the span."""
    p = draw(st.sampled_from([2, 3, 257]))
    nr, nc = draw(st.integers(0, 10)), draw(st.integers(0, 90))
    density = draw(st.floats(0.02, 0.9))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    data = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(nc)] for _ in range(nr)]
    m = Matrix.from_rows(p, data) if nr else Matrix.zero(p, 0, nc)
    route = draw(st.sampled_from(["rref", "null_rows", "kernel_basis"]))
    if route == "rref":
        red, pivots = rref(m)
        rows = red.rows[:len(pivots)]
    else:
        basis, pivots = (null_rows if route == "null_rows" else kernel_basis)(m)
        rows = basis.rows
    basis = Matrix(p, len(rows), nc, tuple(rows)).transpose()
    count = draw(st.integers(0, 5))
    coeffs = [tuple(rng.randrange(p) for _ in pivots) for _ in range(count)]
    vectors = [mat_vec(basis, c) for c in coeffs]
    off_span = [j for j in range(nc) if j not in pivots]
    inside = not (off_span and vectors and draw(st.booleans()))
    if not inside:
        k, j = rng.randrange(len(vectors)), rng.choice(off_span)
        vectors[k] = tuple((x + (i == j)) % p for i, x in enumerate(vectors[k]))
    return basis, pivots, from_columns(p, vectors, nc), inside


@settings(max_examples=300, deadline=None)
@given(coordinate_cases())
def test_coordinates_match_solve_matrix(case):
    """coordinates reads what solve_matrix solves for, None off the span."""
    basis, pivots, vectors, inside = case
    got = coordinates(basis, pivots, vectors)
    assert got == solve_matrix(basis, vectors)
    assert (got is not None) == inside
    if inside:
        assert (got.nrows, got.ncols) == (len(pivots), vectors.ncols)


@pytest.mark.parametrize("p", [2, 3, 257])
def test_coordinates_edge_cases(p):
    """No pivots, no vectors, more than 64 rows, and vectors off the span,
    against solve_matrix."""
    n = 70
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    no_basis = Matrix.zero(p, n, 0)
    for vectors, want in (
        (Matrix.zero(p, n, 3), Matrix.zero(p, 0, 3)),
        (from_columns(p, [units[0]], n), None),
        (Matrix.zero(p, n, 0), Matrix.zero(p, 0, 0)),
    ):
        assert coordinates(no_basis, [], vectors) == want == solve_matrix(no_basis, vectors)
    # the kernel of the all-ones row: the vectors whose entries sum to 0
    rows, pivots = null_rows(Matrix.from_rows(p, [[1] * n]))
    basis = rows.transpose()
    assert coordinates(basis, pivots, Matrix.zero(p, n, 0)) == Matrix.zero(p, n - 1, 0)
    inside = tuple((a - b) % p for a, b in zip(units[0], units[n - 1]))
    for vectors in ([inside], [units[5]], [inside, units[n - 1]], [inside, units[0], inside]):
        cols = from_columns(p, vectors, n)
        got = coordinates(basis, pivots, cols)
        assert got == solve_matrix(basis, cols)
        assert (got is None) == (vectors != [inside])
