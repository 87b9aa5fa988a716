"""Every public linalg entry point over GF(3), where a row is a (ones, twos)
pair of bit masks, against a reference that works entry by entry on lists
of ints: hypothesis matrices, with explicit examples of shapes 0 x n and
n x 0, zero matrices, full-rank ones, rows wider than 64 and 128 columns,
and rows mixing 1s and 2s."""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from syzex.linalg import (
    Matrix,
    block_diagonal,
    block_spans,
    coordinates,
    flat,
    kernel_basis,
    moved_rrefs,
    nonzeros,
    null_rows,
    pivots,
    quotient_maps,
    rref,
    rref_pool,
    stripe,
    sub_action,
    unflat,
)

P = 3


def mat(rows, ncols, p=P):
    return Matrix.from_rows(p, rows) if rows else Matrix.zero(p, 0, ncols)


def grid(m):
    """m's entries, read one at a time."""
    return [[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def well_formed(m):
    """Each row is a pair of masks with no bit set in both and no bit at or
    beyond ncols."""
    return len(m.rows) == m.nrows and all(
        isinstance(r, tuple) and len(r) == 2 and not r[0] & r[1] and not (r[0] | r[1]) >> m.ncols for r in m.rows
    )


def gauss_jordan(rows, ncols, p=P):
    """Oracle: the nonzero rows of the reduced row echelon form over GF(p)
    and the pivot columns, scanning every remaining row at every column."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def kernel_by_entries(rows, ncols):
    """Oracle: the canonical kernel basis, row k 1 at the k-th free column f
    and minus the reduced entry in column f at each pivot, with the free
    columns."""
    red, piv = gauss_jordan(rows, ncols)
    free = [f for f in range(ncols) if f not in piv]
    out = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(piv):
            v[c] = -red[r][f] % P
        out.append(v)
    return out, free


def mul_by_entries(a, b, ncols, p=P):
    return [[sum(x * b[k][j] for k, x in enumerate(r)) % p for j in range(ncols)] for r in a]


@st.composite
def gf3_grids(draw, nrows=st.integers(0, 10), ncols=st.integers(0, 140)):
    """(rows, ncols): a random GF(3) matrix as lists of ints, 1s and 2s mixed
    at a drawn density, with zero rows, repeats and negatives of rows."""
    nr, nc = draw(nrows), draw(ncols)
    density = draw(st.floats(0.0, 1.0))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [[rng.choice((1, 2)) if rng.random() < density else 0 for _ in range(nc)] for _ in range(nr)]
    for extra in draw(st.lists(st.sampled_from(["zero", "repeat", "negative"]), max_size=3)):
        if extra == "zero" or not rows:
            rows.append([0] * nc)
        else:
            rows.append([x * (1 if extra == "repeat" else 2) % P for x in rng.choice(rows)])
    rng.shuffle(rows)
    return rows, nc


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# 3 x 140, full rank: 1s and 2s mixed, pivots at 0, 1 and 2, entries past 64 and 128
WIDE_FULL_RANK = [
    [1] + [0] * 138 + [2],
    [0, 1] + [0] * 67 + [2] + [0] * 70,
    [0, 0, 2] + [0] * 62 + [1] * 75,
]
# 4 x 130, rank 2: the third row is the sum of the first two, the fourth minus the first
MIXED = [
    [2, 1] * 65,
    [0, 1, 2] * 43 + [1],
    [2, 2, 0] * 43 + [0],
    [1, 2] * 65,
]
EXAMPLES = [
    ([], 0),
    ([], 9),
    ([[]] * 4, 0),
    ([[0] * 70] * 5, 70),
    (identity(70), 70),
    ([[2 * x % P for x in r] for r in identity(130)], 130),
    (WIDE_FULL_RANK, 140),
    ([list(c) for c in zip(*WIDE_FULL_RANK)], 3),
    (MIXED, 130),
]


def with_examples(*rest):
    """An @example per case of EXAMPLES, the test's other arguments rest."""

    def decorate(test):
        for case in EXAMPLES:
            test = example(case, *rest)(test)
        return test

    return decorate


@settings(max_examples=100, deadline=None)
@given(gf3_grids())
@with_examples()
def test_round_trips_and_reads_match_entries(case):
    """from_rows, from_entries, entry, row, tolist, nonzeros, key, is_zero
    and the pair layout itself."""
    rows, nc = case
    m = mat(rows, nc)
    assert (m.nrows, m.ncols) == (len(rows), nc)
    assert grid(m) == rows
    assert m.tolist() == rows
    assert [list(m.row(i)) for i in range(m.nrows)] == rows
    if rows:
        assert Matrix.from_rows(P, m.tolist()) == m
    triples = [(i, j, x + 3 * (i % 2) - 3 * (j % 2)) for i, r in enumerate(rows) for j, x in enumerate(r) if x]
    assert Matrix.from_entries(P, len(rows), nc, triples) == m
    assert m.rows == tuple(
        (sum(1 << j for j, x in enumerate(r) if x == 1), sum(1 << j for j, x in enumerate(r) if x == 2)) for r in rows
    )
    assert [nonzeros(P, r) for r in m.rows] == [[(j, x) for j, x in enumerate(r) if x] for r in rows]
    assert m.key() == bytes(x for r in rows for x in r)
    assert m.is_zero() == (not any(map(any, rows)))


@settings(max_examples=100, deadline=None)
@given(gf3_grids(), st.integers(0, 10), st.integers(0, 2 ** 32 - 1))
@with_examples(4, 619)
def test_arithmetic_matches_entries(case, width, seed):
    """mul (both sides), add, scale and transpose."""
    rows, nc = case
    rng = random.Random(seed)
    m = mat(rows, nc)
    right = [[rng.randrange(P) for _ in range(width)] for _ in range(nc)]
    left = [[rng.randrange(P) if rng.random() < 0.5 else 0 for _ in range(len(rows))] for _ in range(width)]
    assert grid(m.mul(mat(right, width))) == mul_by_entries(rows, right, width)
    assert grid(mat(left, len(rows)).mul(m)) == mul_by_entries(left, rows, nc)
    other = [[rng.randrange(P) for _ in range(nc)] for _ in rows]
    assert grid(m.add(mat(other, nc))) == [[(x + y) % P for x, y in zip(r, s)] for r, s in zip(rows, other)]
    for c in (0, 1, 2, 4, -1):
        assert grid(m.scale(c)) == [[c * x % P for x in r] for r in rows]
    t = m.transpose()
    assert (t.nrows, t.ncols) == (nc, len(rows))
    assert grid(t) == [[r[j] for r in rows] for j in range(nc)]


@settings(max_examples=100, deadline=None)
@given(gf3_grids())
@with_examples()
def test_elimination_matches_gauss_jordan(case):
    """rank, rref, pivots, kernel_basis and null_rows."""
    rows, nc = case
    m = mat(rows, nc)
    red, piv = gauss_jordan(rows, nc)
    got, got_piv = rref(m)
    assert (grid(got), got_piv) == (red + [[0] * nc] * (len(rows) - len(red)), piv)
    assert m.rank() == len(piv) and pivots(m) == piv
    ker, free = kernel_basis(m)
    assert (ker.nrows, ker.ncols) == (len(free), nc)
    assert (grid(ker), free) == kernel_by_entries(rows, nc)
    kernel_rows, _ = kernel_by_entries(rows, nc)
    null, null_piv = null_rows(m)
    assert (null.ncols, grid(null), null_piv) == (nc, *gauss_jordan(kernel_rows, nc))


@settings(max_examples=100, deadline=None)
@given(gf3_grids(ncols=st.integers(0, 90)), st.integers(0, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
@with_examples(3, True, 619)
def test_coordinates_match_gauss_jordan(case, count, off_span, seed):
    """coordinates in a reduced basis set as columns: the coefficients of
    combinations of the basis, None once a unit off the pivots is added."""
    rows, nc = case
    rng = random.Random(seed)
    red, piv = gauss_jordan(rows, nc)
    basis = mat(red, nc).transpose()
    coeffs = [[rng.randrange(P) for _ in piv] for _ in range(count)]
    vectors = [[sum(c * r[j] for c, r in zip(cs, red)) % P for j in range(nc)] for cs in coeffs]
    outside = [j for j in range(nc) if j not in piv]
    if off_span and outside and vectors:
        vectors[0][rng.choice(outside)] += 1
        want = None
    else:
        want = [list(c) for c in zip(*coeffs)] if coeffs else [[]] * len(piv)
    got = coordinates(basis, piv, mat(vectors, nc).transpose())
    assert (got if got is None else grid(got)) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(gf3_grids(nrows=st.integers(0, 5), ncols=st.integers(0, 30)), min_size=1, max_size=4))
def test_flat_unflat_and_block_diagonal_match_entries(cases):
    """flat concatenates the blocks' entries row-major, as the pair of its
    planes; unflat cuts each block back; block_diagonal sets square blocks
    down the diagonal."""
    mats = [mat(rows, nc) for rows, nc in cases]
    entries = [x for rows, _ in cases for r in rows for x in r]
    row = flat(P, mats)
    assert row == (
        sum(1 << k for k, x in enumerate(entries) if x == 1), sum(1 << k for k, x in enumerate(entries) if x == 2)
    )
    off = 0
    for m in mats:
        assert unflat(P, row, off, m.nrows, m.ncols) == m
        off += m.nrows * m.ncols
    squares = [[r[:len(rows)] for r in rows] for rows, nc in cases if nc >= len(rows)]
    dims = [len(s) for s in squares]
    offsets = list(itertools.accumulate((d * d for d in dims), initial=0))[:-1]
    got = block_diagonal(P, flat(P, [mat(s, len(s)) for s in squares]), offsets, dims)
    n = sum(dims)
    want = [[0] * n for _ in range(n)]
    at = 0
    for s in squares:
        for i, r in enumerate(s):
            want[at + i][at:at + len(s)] = r
        at += len(s)
    assert (got.nrows, got.ncols, grid(got)) == (n, n, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.lists(st.tuples(st.integers(0, 70), st.integers(0, 40)), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_stripe_matches_entries(nrows, layout, seed):
    """Blocks set side by side at increasing offsets, zeros between them and
    after the last, past 64 and 128 columns."""
    rng = random.Random(seed)
    pieces, want = [], [[] for _ in range(nrows)]
    at = 0
    for gap, width in layout:
        block = [[rng.randrange(P) for _ in range(width)] for _ in range(nrows)]
        pieces.append((mat(block, width), at + gap))
        at += gap + width
        for r, b in zip(want, block):
            r += [0] * gap + b
    ncols = at + rng.randint(0, 70)
    for r in want:
        r += [0] * (ncols - at)
    got = Matrix(P, nrows, ncols, tuple(stripe(P, ncols, pieces)))
    assert well_formed(got)
    assert grid(got) == want


def sampled_pool(p, mult, ncols, rng, n=10):
    """n full-rank mult x ncols RREFs as rows: drawn from rref_pool where it
    is small, else the reduced forms of random full-rank matrices."""
    if p ** (mult * (ncols - mult)) <= 4096:
        pool = rref_pool(p, mult, ncols)
        return rng.sample(pool, min(len(pool), n))
    out = []
    while len(out) < n:
        red, piv = gauss_jordan([[rng.randrange(p) for _ in range(ncols)] for _ in range(mult)], ncols, p)
        if len(piv) == mult:
            out.append(mat(red, ncols, p).rows)
    return out


def random_invertible(p, n, rng, adds):
    """A random permutation matrix with random nonzero entries, after adds
    random row additions: invertible, and as sparse as the copy generators
    or dense."""
    perm = rng.sample(range(n), n)
    g = [[rng.randrange(1, p) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(adds if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(1, p)
        g[i] = [(x + c * y) % p for x, y in zip(g[i], g[j])]
    return g


@pytest.mark.parametrize("p", [2, 3, 5, 257])
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 70), st.integers(0, 140), st.integers(0, 2 ** 32 - 1))
def test_moved_rrefs_match_entries(p, mult, extra, adds, seed):
    """Pool entries times a random invertible g, reduced back: each result is
    the entry-wise product reduced by gauss_jordan, stored as from_rows
    stores it, over every row layout and rows past 64 columns."""
    rng = random.Random(seed)
    ncols = mult + extra
    pool = sampled_pool(p, mult, ncols, rng)
    g = random_invertible(p, ncols, rng, adds)
    got = moved_rrefs(pool, mat(g, ncols, p))
    assert len(got) == len(pool)
    for rows, moved in zip(pool, got):
        want = gauss_jordan(mul_by_entries(grid(Matrix(p, mult, ncols, rows)), g, ncols, p), ncols, p)[0]
        m = Matrix(p, len(moved), ncols, moved)
        assert grid(m) == want
        assert m == mat(want, ncols, p)
        assert p != 3 or well_formed(m)


@settings(max_examples=100, deadline=None)
@given(gf3_grids(), st.integers(0, 2 ** 32 - 1))
@with_examples(619)
def test_no_result_has_an_overlapping_or_stray_bit(case, seed):
    """Every matrix a public function returns has rows that are pairs of
    masks with no bit set in both and none at or beyond ncols."""
    rows, nc = case
    rng = random.Random(seed)
    m = mat(rows, nc)
    other = mat([[rng.randrange(P) for _ in range(nc)] for _ in rows], nc)
    square = mat([[rng.randrange(P) for _ in range(nc)] for _ in range(nc)], nc)
    red, _ = rref(m)
    diagonal = block_diagonal(P, flat(P, [square, square]), [0, nc * nc], [nc, nc])
    results = [
        m, other, m.add(other), m.add(m), m.scale(2), m.scale(0), m.mul(square), m.transpose(),
        m.transpose().mul(m), red, kernel_basis(m)[0], Matrix.identity(P, nc), Matrix.zero(P, 2, nc),
        unflat(P, flat(P, [m, other]), m.nrows * nc, other.nrows, nc),
        diagonal,
        Matrix(P, m.nrows, 2 * nc + 5, tuple(stripe(P, 2 * nc + 5, [(m, 0), (other, nc + 3)]))),
    ]
    null, null_piv = null_rows(m)
    results += [null, coordinates(null.transpose(), null_piv, null.transpose()), *quotient_maps(m.transpose())]
    # block_spans reads reduced vectors that each lie in one block
    results += [span for span, _ in block_spans(*rref(diagonal), [nc, nc])]
    for r in results:
        assert well_formed(r)
    ones, twos = flat(P, [m, other])
    assert not ones & twos and not (ones | twos) >> 2 * m.nrows * nc


@pytest.mark.parametrize("p", [2, 3, 5, 257])
@settings(max_examples=100, deadline=None)
@given(st.lists(gf3_grids(nrows=st.integers(0, 5), ncols=st.integers(0, 70)), min_size=2, max_size=2),
       st.sets(st.sampled_from([(0, 1), (1, 1), (1, 0), (0, 0)]), min_size=1), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_sub_action_matches_entries(p, cases, ends, leave, seed):
    """Arrow matrices restricted to reduced spans B_v: mats[a] = B_w Z, plus
    a nonzero entry at one place, which may take an image off B_w's span;
    the restriction is each image's entries at w's pivots, and None once an
    image leaves the span.  One route serves every field, so the same grids
    run over GF(2), GF(5) and GF(257) too, their 1s and 2s read as 1 and -1."""
    rng = random.Random(seed)
    ends = sorted(ends)
    spans, bases = [], []
    for rows, nc in cases:
        red, piv = gauss_jordan([[(0, 1, p - 1)[x] for x in r] for r in rows], nc, p)
        spans.append((mat(red, nc, p), piv))
        bases.append([[r[i] for r in red] for i in range(nc)])  # the reduced rows as columns
    mats, want = [], []
    for u, w in ends:
        (du, ku), (dw, kw) = (len(bases[u]), len(spans[u][1])), (len(bases[w]), len(spans[w][1]))
        image = mul_by_entries(bases[w], [[rng.randrange(p) for _ in range(du)] for _ in range(kw)], du, p)
        if leave and dw and du:
            image[rng.randrange(dw)][rng.randrange(du)] += rng.randrange(1, p)
        mats.append(mat(image, du, p))
        moved = mul_by_entries(image, bases[u], ku, p)
        inside = len(gauss_jordan([b + m for b, m in zip(bases[w], moved)], kw + ku, p)[1]) == kw
        want.append([moved[c] for c in spans[w][1]] if inside else None)
    got = sub_action(p, ends, mats, spans)
    if None in want:
        assert got is None
    else:
        assert [grid(x) for x in got] == want
        # each row is stored as from_rows stores it: no stray bit or residue
        assert all(x == mat(grid(x), x.ncols, p) for x in got)
        assert p != 3 or all(well_formed(x) for x in got)
