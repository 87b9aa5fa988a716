"""Every public linalg entry point over GF(5), GF(7), GF(257) and
GF(2^61 - 1), where a row is one int with one lane of _width(p) bits per
entry, against a reference that works entry by entry on lists of ints:
hypothesis matrices, with explicit examples of shapes 0 x n and n x 0,
rows wider than 64 and 128 lanes, and rows of p - 1 everywhere, whose
products hold (p - 1)^2 per term in every lane before a reduction."""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from test_linalg_gf3 import gauss_jordan, mul_by_entries, random_invertible, sampled_pool

from syzex.linalg import (
    Matrix,
    _width,
    block_diagonal,
    block_spans,
    combine,
    coordinates,
    derivations,
    flat,
    hstack,
    kernel_basis,
    moved_rrefs,
    nonzeros,
    null_rows,
    pivots,
    quotient_maps,
    rref,
    stripe,
    sub_action,
    unflat,
    vstack,
)

PRIMES = [5, 7, 257, 2 ** 61 - 1]


def mat(p, rows, ncols):
    return Matrix.from_rows(p, rows) if rows else Matrix.zero(p, 0, ncols)


def grid(m):
    """m's entries, read one at a time."""
    return [[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def lanes(p, row):
    """Oracle: a row of entries as one int, entry j at bit j * _width(p)."""
    return sum(x << j * _width(p) for j, x in enumerate(row))


def well_formed(m):
    """Each row is an int whose every lane is below p, with no bit at or
    beyond ncols lanes."""
    s = _width(m.p)
    return len(m.rows) == m.nrows and all(
        isinstance(r, int) and r >= 0 and not r >> m.ncols * s and all(r >> j * s & (1 << s) - 1 < m.p for j in range(m.ncols))
        for r in m.rows
    )


def reference_key(p, rows):
    """Oracle: one byte per entry for p <= 256, else each entry fixed-width
    big-endian, row by row."""
    width = 1 if p <= 256 else ((p - 1).bit_length() + 7) // 8
    return b"".join(x.to_bytes(width, "big") for r in rows for x in r)


def kernel_by_entries(p, rows, ncols):
    """Oracle: the canonical kernel basis, row k 1 at the k-th free column f
    and minus the reduced entry in column f at each pivot, with the free
    columns."""
    red, piv = gauss_jordan(rows, ncols, p)
    free = [f for f in range(ncols) if f not in piv]
    out = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(piv):
            v[c] = -red[r][f] % p
        out.append(v)
    return out, free


@st.composite
def lane_grids(draw, p, nrows=st.integers(0, 8), ncols=st.integers(0, 140)):
    """(rows, ncols): a random GF(p) matrix as lists of ints at a drawn
    density, with rows of p - 1, zero rows, repeats and negatives mixed in."""
    nr, nc = draw(nrows), draw(ncols)
    density = draw(st.floats(0.0, 1.0))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(nc)] for _ in range(nr)]
    for extra in draw(st.lists(st.sampled_from(["zero", "top", "repeat", "negative"]), max_size=3)):
        if extra in ("zero", "top") or not rows:
            rows.append([(p - 1) * (extra == "top")] * nc)
        else:
            rows.append([x * (1 if extra == "repeat" else p - 1) % p for x in rng.choice(rows)])
    rng.shuffle(rows)
    return rows, nc


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def examples(p):
    """Shapes 0 x n and n x 0, all-(p - 1) rows, and rows past 64 and 128 lanes."""
    top = p - 1
    wide = [[1] + [0] * 138 + [top], [0, 1] + [0] * 67 + [2] + [0] * 70, [0, 0, top] + [0] * 62 + [1] * 75]
    return [
        ([], 0),
        ([], 9),
        ([[]] * 4, 0),
        ([[0] * 70] * 5, 70),
        ([[top] * 70] * 6, 70),
        ([[top] * 130, [1] * 130, [top] * 130], 130),
        (identity(70), 70),
        ([[top * x for x in r] for r in identity(130)], 130),
        (wide, 140),
        ([list(c) for c in zip(*wide)], 3),
    ]


def lane_cases(**kwargs):
    """One strategy per prime, (p, (rows, ncols)), with its examples."""
    return st.one_of([st.tuples(st.just(p), lane_grids(p, **kwargs)) for p in PRIMES])


def with_examples(*rest):
    """An @example per prime and case of examples(p), the test's other arguments rest."""

    def decorate(test):
        for p in PRIMES:
            for case in examples(p):
                test = example((p, case), *rest)(test)
        return test

    return decorate


@settings(max_examples=120, deadline=None)
@given(lane_cases())
@with_examples()
def test_round_trips_and_reads_match_entries(pcase):
    """from_rows, from_entries, zero, identity, entry, row, tolist,
    nonzeros, key, is_zero and the lane layout itself."""
    p, (rows, nc) = pcase
    m = mat(p, rows, nc)
    assert (m.nrows, m.ncols) == (len(rows), nc)
    assert well_formed(m)
    assert m.rows == tuple(lanes(p, r) for r in rows)
    assert grid(m) == rows
    assert m.tolist() == rows
    assert [list(m.row(i)) for i in range(m.nrows)] == rows
    triples = [(i, j, x + p * (i % 3) - p * (j % 2)) for i, r in enumerate(rows) for j, x in enumerate(r) if x]
    assert Matrix.from_entries(p, len(rows), nc, triples) == m
    assert [nonzeros(p, r) for r in m.rows] == [[(j, x) for j, x in enumerate(r) if x] for r in rows]
    assert m.key() == reference_key(p, rows)
    assert m.is_zero() == (not any(map(any, rows)))
    assert Matrix.zero(p, len(rows), nc).rows == (0,) * len(rows)
    assert grid(Matrix.identity(p, nc)) == identity(nc)


@pytest.mark.parametrize("p", PRIMES)
def test_keys_order_as_entry_sequences(p):
    """Keys of equal-shape matrices compare and test equal as their entry
    sequences do, entries near 0 and near p - 1 mixed."""
    rng = random.Random(p)
    for nr, nc in [(0, 3), (3, 0), (1, 1), (2, 5), (4, 70)]:
        mats = [[[rng.choice((0, 1, p - 2, p - 1)) for _ in range(nc)] for _ in range(nr)] for _ in range(30)]
        for a, b in itertools.combinations(mats, 2):
            ka, kb = mat(p, a, nc).key(), mat(p, b, nc).key()
            flat_a, flat_b = [x for r in a for x in r], [x for r in b for x in r]
            assert (ka == kb) == (flat_a == flat_b)
            assert (ka < kb) == (flat_a < flat_b)


@settings(max_examples=120, deadline=None)
@given(lane_cases(), st.integers(0, 10), st.integers(0, 2 ** 32 - 1))
@with_examples(4, 619)
def test_arithmetic_matches_entries(pcase, width, seed):
    """mul (both sides, and by all-(p - 1) matrices, every lane summing
    (p - 1)^2 per term), add, scale and transpose."""
    p, (rows, nc) = pcase
    rng = random.Random(seed)
    m = mat(p, rows, nc)
    right = [[rng.randrange(p) for _ in range(width)] for _ in range(nc)]
    left = [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(len(rows))] for _ in range(width)]
    top = [[p - 1] * width for _ in range(nc)]
    for a, a_rows, b, b_rows, out in [
        (m, rows, mat(p, right, width), right, width),
        (mat(p, left, len(rows)), left, m, rows, nc),
        (m, rows, mat(p, top, width), top, width),
    ]:
        got = a.mul(b)
        assert well_formed(got)
        assert grid(got) == mul_by_entries(a_rows, b_rows, out, p)
    other = [[rng.randrange(p) for _ in range(nc)] for _ in rows]
    total = m.add(mat(p, other, nc))
    assert well_formed(total)
    assert grid(total) == [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(rows, other)]
    for c in (0, 1, 2, p - 1, -1, p + 3):
        assert grid(m.scale(c)) == [[c * x % p for x in r] for r in rows]
    t = m.transpose()
    assert (t.nrows, t.ncols) == (nc, len(rows))
    assert well_formed(t)
    assert grid(t) == [[r[j] for r in rows] for j in range(nc)]


@settings(max_examples=120, deadline=None)
@given(lane_cases())
@with_examples()
def test_elimination_matches_gauss_jordan(pcase):
    """rank, rref, pivots, kernel_basis and null_rows."""
    p, (rows, nc) = pcase
    m = mat(p, rows, nc)
    red, piv = gauss_jordan(rows, nc, p)
    got, got_piv = rref(m)
    assert well_formed(got)
    assert (grid(got), got_piv) == (red + [[0] * nc] * (len(rows) - len(red)), piv)
    assert m.rank() == len(piv) and pivots(m) == piv
    ker, free = kernel_basis(m)
    assert (ker.nrows, ker.ncols) == (len(free), nc)
    assert well_formed(ker)
    kernel_rows, want_free = kernel_by_entries(p, rows, nc)
    assert (grid(ker), free) == (kernel_rows, want_free)
    null, null_piv = null_rows(m)
    assert well_formed(null)
    assert (null.ncols, grid(null), null_piv) == (nc, *gauss_jordan(kernel_rows, nc, p))


@settings(max_examples=80, deadline=None)
@given(lane_cases(ncols=st.integers(0, 90)), st.integers(0, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_coordinates_and_quotients_match_gauss_jordan(pcase, count, off_span, seed):
    """coordinates in a reduced basis set as columns, None once a unit off
    the pivots is added; quotient_maps of that basis: proj lift = I and
    proj kills the basis."""
    p, (rows, nc) = pcase
    rng = random.Random(seed)
    red, piv = gauss_jordan(rows, nc, p)
    basis = mat(p, red, nc).transpose()
    coeffs = [[rng.randrange(p) for _ in piv] for _ in range(count)]
    vectors = [[sum(c * r[j] for c, r in zip(cs, red)) % p for j in range(nc)] for cs in coeffs]
    outside = [j for j in range(nc) if j not in piv]
    if off_span and outside and vectors:
        vectors[0][rng.choice(outside)] += 1
        want = None
    else:
        want = [list(c) for c in zip(*coeffs)] if coeffs else [[]] * len(piv)
    got = coordinates(basis, piv, mat(p, vectors, nc).transpose())
    assert (got if got is None else grid(got)) == want
    proj, lift = quotient_maps(basis)
    assert well_formed(proj) and well_formed(lift)
    assert proj.mul(lift) == Matrix.identity(p, nc - len(piv))
    assert proj.mul(basis).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 30)), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_flat_unflat_and_block_diagonal_match_entries(p, shapes, seed):
    """flat concatenates the blocks' entries row-major, one lane each;
    unflat cuts each block back; block_diagonal sets square blocks down the
    diagonal."""
    rng = random.Random(seed)
    cases = [[[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(nc)] for _ in range(nr)] for nr, nc in shapes]
    mats = [mat(p, rows, nc) for rows, (_, nc) in zip(cases, shapes)]
    row = flat(p, mats)
    assert row == lanes(p, [x for rows in cases for r in rows for x in r])
    off = 0
    for m in mats:
        assert unflat(p, row, off, m.nrows, m.ncols) == m
        off += m.nrows * m.ncols
    squares = [[r[:len(rows)] for r in rows] for rows, (_, nc) in zip(cases, shapes) if nc >= len(rows)]
    dims = [len(s) for s in squares]
    offsets = list(itertools.accumulate((d * d for d in dims), initial=0))[:-1]
    got = block_diagonal(p, flat(p, [mat(p, s, len(s)) for s in squares]), offsets, dims)
    n = sum(dims)
    want = [[0] * n for _ in range(n)]
    at = 0
    for s in squares:
        for i, r in enumerate(s):
            want[at + i][at:at + len(s)] = r
        at += len(s)
    assert well_formed(got)
    assert (got.nrows, got.ncols, grid(got)) == (n, n, want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 5), st.lists(st.tuples(st.integers(0, 70), st.integers(0, 40)), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_stripe_hstack_and_vstack_match_entries(p, nrows, layout, seed):
    """Blocks set side by side at increasing offsets, zeros between them and
    after the last, past 64 and 128 lanes; hstack and vstack of them."""
    rng = random.Random(seed)
    pieces, blocks, want = [], [], [[] for _ in range(nrows)]
    at = 0
    for gap, width in layout:
        block = [[rng.randrange(p) for _ in range(width)] for _ in range(nrows)]
        pieces.append((mat(p, block, width), at + gap))
        blocks.append((block, width))
        at += gap + width
        for r, b in zip(want, block):
            r += [0] * gap + b
    ncols = at + rng.randint(0, 70)
    for r in want:
        r += [0] * (ncols - at)
    got = Matrix(p, nrows, ncols, tuple(stripe(p, ncols, pieces)))
    assert well_formed(got)
    assert grid(got) == want
    side = hstack([mat(p, b, w) if nrows else Matrix.zero(p, 0, w) for b, w in blocks])
    assert grid(side) == [sum((b[i] for b, _ in blocks), []) for i in range(nrows)]
    width = layout[0][1]
    tall = [[[rng.randrange(p) for _ in range(width)] for _ in range(nr)] for nr in (nrows, 2, 0)]
    assert grid(vstack([mat(p, t, width) for t in tall])) == sum(tall, [])


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(1, 45), st.integers(0, 2 ** 32 - 1))
def test_combine_matches_entries(p, nmats, nterms, seed):
    """sum_t c_t T_t over tuples of matrices, as many terms as 45 of
    p - 1 times all-(p - 1) matrices among them, more than one reduction
    batch; None when every coefficient is 0."""
    rng = random.Random(seed)
    shapes = [(rng.randint(0, 4), rng.randint(0, 70)) for _ in range(nmats)]
    plain = [
        [[[rng.choice((p - 1, rng.randrange(p))) for _ in range(nc)] for _ in range(nr)] for nr, nc in shapes]
        for _ in range(nterms)
    ]
    terms = [tuple(mat(p, rows, nc) for rows, (_, nc) in zip(t, shapes)) for t in plain]
    coeffs = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(nterms)]
    got = combine(coeffs, terms)
    if not any(coeffs):
        assert got is None
        return
    assert len(got) == nmats
    for k, (nr, nc) in enumerate(shapes):
        want = [[sum(c * t[k][i][j] for c, t in zip(coeffs, plain)) % p for j in range(nc)] for i in range(nr)]
        assert well_formed(got[k])
        assert (got[k].nrows, got[k].ncols, grid(got[k])) == (nr, nc, want)


def derivations_by_entries(p, ends, x_dim, x_mats, y_dim, y_mats):
    """Oracle: delta0 one equation at a time, (f_w X_a - Y_a f_u)[i][j] for
    f_v, a y_dim[v] x x_dim[v] block, row-major at its offset."""
    off = list(itertools.accumulate((a * b for a, b in zip(x_dim, y_dim)), initial=0))
    rows = []
    for (u, w), xa, ya in zip(ends, x_mats, y_mats):
        for i in range(y_dim[w]):
            for j in range(x_dim[u]):
                row = [0] * off[-1]
                for l in range(x_dim[w]):
                    row[off[w] + i * x_dim[w] + l] += xa[l][j]
                for l in range(y_dim[u]):
                    row[off[u] + l * x_dim[u] + j] -= ya[i][l]
                rows.append([x % p for x in row])
    return rows, off[-1]


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4),
       st.lists(st.integers(0, 4), min_size=3, max_size=3), st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_derivations_match_entries(p, ends, x_dim, y_dim, seed):
    """delta0 on a quiver with loops, entries near p - 1: a loop puts both
    sides on one unknown, and their sum is reduced."""
    rng = random.Random(seed)
    xs = [[[rng.choice((p - 1, rng.randrange(p))) for _ in range(x_dim[u])] for _ in range(x_dim[w])] for u, w in ends]
    ys = [[[rng.choice((1, rng.randrange(p))) for _ in range(y_dim[u])] for _ in range(y_dim[w])] for u, w in ends]
    got, off = derivations(
        p, ends, x_dim, [mat(p, x, x_dim[u]) for x, (u, _) in zip(xs, ends)],
        y_dim, [mat(p, y, y_dim[u]) for y, (u, _) in zip(ys, ends)],
    )
    want, total = derivations_by_entries(p, ends, x_dim, xs, y_dim, ys)
    assert well_formed(got)
    assert (got.nrows, got.ncols, grid(got)) == (len(want), total, want)
    assert off == tuple(itertools.accumulate((a * b for a, b in zip(x_dim, y_dim)), initial=0))[:-1]


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1))
def test_sub_action_and_block_spans_match_entries(p, widths, seed):
    """The image of a block-diagonal B, rref of its transpose cut per block
    by block_spans, is each block's reduced column space; B^2 + B keeps it,
    and sub_action restricts it there; one more entry that sends a basis
    vector off the span makes sub_action say None."""
    rng = random.Random(seed)
    blocks = [[[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(d)] for _ in range(d)] for d in widths]
    offsets = list(itertools.accumulate((d * d for d in widths), initial=0))[:-1]
    f = block_diagonal(p, flat(p, [mat(p, b, d) for b, d in zip(blocks, widths)]), offsets, widths)
    spans = block_spans(*rref(f.transpose()), widths)
    for (rows, cut), b, d in zip(spans, blocks, widths):
        assert well_formed(rows)
        assert (grid(rows), cut) == gauss_jordan([list(c) for c in zip(*b)], d, p)
    ends = [(v, v) for v in range(len(widths))]
    mats = [mat(p, b, d).mul(mat(p, b, d)).add(mat(p, b, d)) if d else Matrix.zero(p, 0, 0) for b, d in zip(blocks, widths)]
    got = sub_action(p, ends, mats, spans)
    for x, (rows, _), m in zip(got, spans, mats):
        assert well_formed(x)
        assert rows.transpose().mul(x) == m.mul(rows.transpose())
    # e_j for a column j that is no pivot lies off the span
    for v, ((rows, cut), d) in enumerate(zip(spans, widths)):
        off_span = [j for j in range(d) if j not in cut]
        if cut and off_span:
            mats[v] = mats[v].add(Matrix.from_entries(p, d, d, [(off_span[0], cut[0], 1)]))
            assert sub_action(p, ends, mats, spans) is None
            break


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 70), st.integers(0, 20), st.integers(0, 2 ** 32 - 1))
def test_moved_rrefs_match_entries(p, mult, extra, adds, seed):
    """Pool entries times a random invertible g, reduced back, against the
    entry-wise product reduced by gauss_jordan, rows past 64 lanes."""
    rng = random.Random(seed)
    ncols = mult + extra
    pool = sampled_pool(p, mult, ncols, rng, n=4)
    g = random_invertible(p, ncols, rng, adds)
    for rows, moved in zip(pool, moved_rrefs(pool, mat(p, g, ncols))):
        m = Matrix(p, len(moved), ncols, moved)
        assert well_formed(m)
        assert grid(m) == gauss_jordan(mul_by_entries(grid(Matrix(p, mult, ncols, rows)), g, ncols, p), ncols, p)[0]
