import itertools
import random

import pytest

from conftest import beilinson2_spec, conjugate, entries, from_columns, invertible, kron2_spec, solve_vec, then, vanishes
from split_oracle import _vertex_blocks, column_space_basis, fitting_pieces, null_space, sub_rep
from syzex import rep as rep_module
from syzex.algebra import AlgebraSpec, build_algebra
from syzex.corpus import load_corpus
from syzex.errors import AlgebraMismatch, BudgetExceeded
from syzex.homology import projective_cover, syzygy
from syzex.linalg import Matrix, block_spans, combine, coordinates, derivations, flat, kernel_basis, null_rows, rref, unflat
from syzex.rep import (
    Hom,
    HomBasis,
    Representation,
    indec_factors,
    _split_candidates,
    _split_with,
    decompose,
    direct_sum,
    hom_space,
    is_iso,
    module_doc,
    parse_module_doc,
    simple_rep,
    top_maps,
    zero_rep,
)


def kron_rep(algebra, d0, d1, m0, m1):
    return Representation(
        algebra,
        (d0, d1),
        (Matrix.from_rows(2, m0) if m0 else Matrix.zero(2, d1, d0),
         Matrix.from_rows(2, m1) if m1 else Matrix.zero(2, d1, d0)),
    )


def brute_hom_dim(m, n):
    """Oracle: enumerate all matrix tuples over GF(2) and count intertwiners."""
    algebra = m.algebra
    q = algebra.quiver
    shapes = [(n.dim[v], m.dim[v]) for v in range(q.n_vertices)]
    total = sum(a * b for a, b in shapes)
    count = 0
    for bits in itertools.product(range(2), repeat=total):
        mats = []
        k = 0
        for rows, cols in shapes:
            data = [[bits[k + i * cols + j] for j in range(cols)] for i in range(rows)]
            mats.append(Matrix.from_rows(2, data) if rows and cols else Matrix.zero(2, rows, cols))
            k += rows * cols
        ok = True
        for ai in range(len(q.arrows)):
            u, w = q.arrow_source(ai), q.arrow_target(ai)
            if mats[w].mul(m.action[ai]) != n.action[ai].mul(mats[u]):
                ok = False
                break
        if ok:
            count += 1
    # count = 2^dim
    return count.bit_length() - 1


def test_validate_projectives(kron2, beilinson2, fivevertex):
    for algebra in (kron2, beilinson2, fivevertex):
        for v in range(algebra.n_vertices):
            assert algebra.projective(v).validate() == []


def test_validate_kron_one_one(kron2):
    m = kron_rep(kron2, 1, 1, [[1]], [[0]])
    assert m.validate() == []


def test_validate_names_broken_relation(beilinson2):
    good = beilinson2.projective(0)
    action = list(good.action)
    # perturb one length-1 map so a commutativity relation fails
    bad0 = action[0].add(Matrix.from_rows(2, [[0], [0], [1]]))
    action[0] = bad0
    bad = Representation(beilinson2, good.dim, tuple(action))
    violations = bad.validate()
    assert violations and any("relation" in v for v in violations)


def test_hom_identity_present(kron2):
    for v in range(2):
        m = kron2.projective(v)
        hb = hom_space(m, m)
        assert any(invertible(h) for h in hb.basis) or hb.dimension >= 1


def test_hom_simples_zero(kron2):
    s0 = kron2.simple(0)
    s1 = kron2.simple(1)
    assert hom_space(s0, s1).dimension == 0


def test_hom_projective_counts_dimension(kron2, fivevertex):
    # Hom(P(v), M) = M_v for projectives
    for algebra in (kron2, fivevertex):
        for v in range(algebra.n_vertices):
            pv = algebra.projective(v)
            for w in range(algebra.n_vertices):
                m = algebra.projective(w)
                assert hom_space(pv, m).dimension == m.dim[v]


def test_hom_p0_to_s1_is_zero_brute(kron2):
    # the intertwining equations force the vertex-1 block to kill both arrows
    p0 = kron2.projective(0)
    s1 = kron2.simple(1)
    assert brute_hom_dim(p0, s1) == 0
    assert hom_space(p0, s1).dimension == 0


def test_hom_additive_in_sums(kron2):
    s0, s1 = kron2.simple(0), kron2.simple(1)
    p0 = kron2.projective(0)
    lhs = hom_space(direct_sum([s0, p0]), s1).dimension
    assert lhs == hom_space(s0, s1).dimension + hom_space(p0, s1).dimension
    rhs = hom_space(p0, direct_sum([s1, s1])).dimension
    assert rhs == 2 * hom_space(p0, s1).dimension


def test_is_iso_reflexive(kron2):
    m = kron2.projective(0)
    assert is_iso(m, m) is True


def test_is_iso_simples_differ(kron2):
    assert is_iso(kron2.simple(0), kron2.simple(1)) is False


def test_is_iso_two_regulars_not_iso(kron2):
    # brute-force: Hom between them is zero, so no isomorphism exists
    a = kron_rep(kron2, 1, 1, [[1]], [[0]])
    b = kron_rep(kron2, 1, 1, [[0]], [[1]])
    assert brute_hom_dim(a, b) == 0
    assert is_iso(a, b) is False


def test_is_iso_same_class_after_base_change(kron2):
    a = kron_rep(kron2, 1, 2, [[1], [0]], [[0], [1]])
    b = kron_rep(kron2, 1, 2, [[1], [1]], [[0], [1]])  # column operations on vertex 1
    assert is_iso(a, b) is True


def test_is_iso_exact_over_gf257():
    # M is the Jordan-block regular module, N = R(1) + R(1); both hom spaces
    # are 2-dimensional, far beyond what a search over GF(257)^2 can settle
    algebra = build_algebra(kron2_spec(257))
    ident = Matrix.identity(257, 2)
    m = Representation(algebra, (2, 2), (ident, Matrix.from_rows(257, [[1, 1], [0, 1]])))
    n = Representation(algebra, (2, 2), (ident, ident))
    assert hom_space(m, n).dimension == hom_space(n, m).dimension == 2
    assert is_iso(m, n) is False
    assert is_iso(n, m) is False


def test_decompose_with_entry_256_over_gf257():
    # Matrix.key must keep 256 apart from 0: the module is R(1) with x1 = 256
    algebra = build_algebra(kron2_spec(257))
    one = Matrix.from_rows(257, [[1]])
    m = Representation(algebra, (1, 1), (one, Matrix.from_rows(257, [[256]])))
    n = Representation(algebra, (1, 1), (one, Matrix.zero(257, 1, 1)))
    assert m.key() != n.key()
    dec = decompose(m)
    assert len(dec.factors) == 1
    factor, mult = dec.factors[0]
    assert mult == 1 and is_iso(factor, m) and not is_iso(factor, n)


def test_is_iso_decomposable_without_invertible_basis_element(kron2):
    # R(0) + R(1) in two orders: every Hom basis element and every composite
    # of two is singular, so only the Krull-Schmidt comparison can say True
    m = kron_rep(kron2, 2, 2, [[1, 0], [0, 1]], [[0, 0], [0, 1]])
    n = kron_rep(kron2, 2, 2, [[1, 0], [0, 1]], [[1, 0], [0, 0]])
    f_basis = hom_space(m, n).basis
    g_basis = hom_space(n, m).basis
    assert not any(invertible(then(f, g)) for f in f_basis for g in g_basis)
    assert is_iso(m, n) is True
    assert is_iso(n, m) is True
    zero = kron_rep(kron2, 2, 2, [[1, 0], [0, 1]], None)
    assert is_iso(m, zero) is False
    assert is_iso(zero, m) is False


def test_is_iso_algebra_mismatch(kron2, fivevertex):
    with pytest.raises(AlgebraMismatch):
        is_iso(kron2.simple(0), fivevertex.simple(0))


def test_decompose_indecomposable(kron2):
    m = kron_rep(kron2, 1, 1, [[1]], [[0]])
    dec = decompose(m)
    assert len(dec.factors) == 1 and dec.factors[0][1] == 1


def test_decompose_sum_of_simples(kron2):
    s0 = kron2.simple(0)
    dec = decompose(direct_sum([s0, s0]))
    assert len(dec.factors) == 1
    assert dec.factors[0][1] == 2
    assert is_iso(dec.factors[0][0], s0) is True


def test_decompose_nonsplit_middle_local(kron2):
    # middle of a nonsplit extension of S(0) by S(1): dim (1,1), local End
    m = kron_rep(kron2, 1, 1, [[1]], [[0]])
    dec = decompose(m)
    assert dec.factors[0][0].dim == (1, 1)
    end = hom_space(m, m)
    for h in end.basis:
        if not invertible(h):
            power = h
            for _ in range(m.total_dim):
                power = then(power, h)
            assert vanishes(power)


def counted_splits(monkeypatch):
    """Record every endomorphism, a block-diagonal matrix, that decompose
    tries to split along."""
    from syzex import rep as rep_mod

    calls = []
    real = rep_mod._split_with

    def counted(m, e):
        calls.append(e)
        return real(m, e)

    monkeypatch.setattr(rep_mod, "_split_with", counted)
    return calls


def truncated_polynomials(p, k):
    """k[x]/x^k as the projective of the one-loop quiver modulo x^k (k >= 2)."""
    spec = AlgebraSpec(p, ["1"], [{"name": "x", "from": "1", "to": "1"}], [[{"coeff": 1, "path": ["x"] * k}]])
    return build_algebra(spec)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_decompose_tries_each_endomorphism_once(monkeypatch, k):
    """k[x]/x^k is local with End = k[x]/x^k of dimension k: the split search
    is skipped when k = 1, and otherwise tries the k basis elements and no
    more, since the top is simple and pi(End) is a single line."""
    calls = counted_splits(monkeypatch)
    algebra = truncated_polynomials(2, max(k, 2))
    m = algebra.projective(0) if k > 1 else algebra.simple(0)
    assert hom_space(m, m).dimension == k
    dec = decompose(m)
    assert [(f.dim, mult) for f, mult in dec.factors] == [((k,), 1)]
    assert len(calls) == (k if k > 1 else 0)
    tried = {e.rows for e in calls}
    assert len(tried) == len(calls)


def splits_by_scan(m):
    """Oracle: scan all of End(M) for an element neither nilpotent nor invertible."""
    end = hom_space(m, m)
    for coeffs in itertools.product(range(m.algebra.p), repeat=end.dimension):
        mats = combine(coeffs, [h.mats for h in end.basis])
        if mats is None:
            continue
        h = Hom(m, m, mats)
        if invertible(h):
            continue
        power = h
        for _ in range(m.total_dim):
            power = then(power, h)
        if not vanishes(power):
            return True
    return False


def random_small_modules(rng, algebra, n):
    """n nonzero modules with dimension at most 2 per vertex and random arrow
    matrices, over an algebra without relations."""
    q, p = algebra.quiver, algebra.p
    mods = []
    while len(mods) < n:
        dim = tuple(rng.randint(0, 2) for _ in range(q.n_vertices))
        if any(dim):
            shapes = [(dim[q.arrow_target(ai)], dim[q.arrow_source(ai)]) for ai in range(len(q.arrows))]
            action = tuple(
                Matrix.from_rows(p, [[rng.randrange(p) for _ in range(c)] for _ in range(r)]) if r and c
                else Matrix.zero(p, r, c)
                for r, c in shapes
            )
            m = Representation(algebra, dim, action)
            assert m.validate() == []
            mods.append(m)
    return mods


@pytest.mark.parametrize("p", [2, 3])
def test_decompose_matches_exhaustive_end_scan(p):
    """Random modules over A3 and kron2, base-changed sums of pairs of them,
    and base-changed sums of two k[x]/x^3-modules: decompose splits M exactly
    when some element of End(M) is neither nilpotent nor invertible, and
    every factor it returns has no such element."""
    rng = random.Random(811 + p)
    linear = build_algebra(AlgebraSpec(
        p, ["0", "1", "2"], [{"name": "a%d" % i, "from": str(i), "to": str(i + 1)} for i in range(2)], [],
    ))
    mods = []
    for algebra in (linear, build_algebra(kron2_spec(p))):
        small = random_small_modules(rng, algebra, 40)
        mods += small + [conjugate(direct_sum([a, b]), rng) for a, b in zip(small, small[1:])]
    loop = truncated_polynomials(p, 3)
    blocks = [loop.simple(0), syzygy(loop.simple(0)), loop.projective(0)]
    mods += [conjugate(direct_sum([rng.choice(blocks), rng.choice(blocks)]), rng) for _ in range(40)]
    seen = {True: 0, False: 0}
    for m in mods:
        if p ** hom_space(m, m).dimension > 3 ** 7:
            continue
        factors = indec_factors(m)
        split = splits_by_scan(m)
        assert (len(factors) > 1) == split
        assert sum(f.total_dim for f in factors) == m.total_dim
        for f in factors:
            assert not splits_by_scan(f)
        seen[split] += 1
    assert seen[True] >= 40 and seen[False] >= 20


@pytest.mark.parametrize("p", [2, 3])
def test_split_search_splits_when_no_basis_element_does(p):
    """A basis of units still leads to a split, and only lifts of lines on
    the top that split M are yielded: over GF(2), four invertible matrices
    spanning End(S0 + S0) = M_2, over GF(3), the units (1, 1) and (1, 2)
    spanning End(S0 + S1) = k x k."""
    kron = build_algebra(kron2_spec(p))
    if p == 2:
        m = direct_sum([kron.simple(0), kron.simple(0)])
        units = ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, 1], [1, 0]])
        blocks = [(Matrix.from_rows(2, u), Matrix.zero(2, 0, 0)) for u in units]
        basis = [Matrix.from_rows(2, u) for u in units]
    else:
        m = direct_sum([kron.simple(0), kron.simple(1)])
        blocks = [(Matrix.from_rows(3, [[1]]), Matrix.from_rows(3, [[c]])) for c in (1, 2)]
        basis = [Matrix.from_rows(3, [[1, 0], [0, c]]) for c in (1, 2)]
    # every unknown of these End systems is free; the split search reads no free column
    end = HomBasis(m, m, tuple(flat(p, b) for b in blocks), (0, m.dim[0] ** 2), tuple(range(len(blocks))))
    tried = list(_split_candidates(m, end))
    assert tried[:len(basis)] == basis
    assert all(_split_with(m, h) is None for h in basis)
    lifts = tried[len(basis):]
    assert lifts and all(_split_with(m, h) is not None for h in lifts)


def split_per_vertex(m, e):
    """Reference Fitting split of m along an endomorphism e given per vertex:
    square until no vertex rank falls, then sub_rep on each vertex's image
    and kernel bases; None if the power is zero or invertible."""
    f = e
    ranks = [mt.rank() for mt in f.mats]
    while 0 < sum(ranks) < m.total_dim:
        f2 = then(f, f)
        ranks2 = [mt.rank() for mt in f2.mats]
        if ranks2 == ranks:
            break
        f, ranks = f2, ranks2
    else:
        return None
    im_rep, _ = sub_rep(m, [column_space_basis(mt) for mt in f.mats])
    ker_rep, _ = sub_rep(m, [null_space(mt) for mt in f.mats])
    return im_rep, ker_rep


def stable_power(m, e):
    """e squared until its rank stops falling, or None at rank 0 or full rank."""
    f, rank = e, e.rank()
    while 0 < rank < m.total_dim:
        f2 = f.mul(f)
        if f2.rank() == rank:
            return f
        f, rank = f2, f2.rank()
    return None


def assert_splits_match_per_vertex(m):
    """_split_with on every End(m) basis element, as one block-diagonal
    matrix, gives the reference split's parts, key for key, and the parts
    that sub_rep built over _vertex_blocks of the stable power's column
    bases; returns the number of basis elements that split m."""
    end = hom_space(m, m)
    splits = 0
    for row in end.rows:
        got = _split_with(m, end.diagonal(row))
        want = split_per_vertex(m, end.hom(row))
        assert (got is None) == (want is None)
        if got is not None:
            assert [r.key() for r in got] == [r.key() for r in want]
            assert [r.dim for r in got] == [r.dim for r in want]
            assert got == fitting_pieces(m, stable_power(m, end.diagonal(row)))
            splits += 1
    return splits


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_block_diagonal_split_matches_per_vertex_split(p):
    rng = random.Random(907 + p)
    splits = 0
    for mods in random_hom_modules(rng, p):
        for m in mods + [direct_sum([a, b]) for a, b in zip(mods, mods[1:])]:
            splits += assert_splits_match_per_vertex(m)
    assert splits >= 100


def test_block_diagonal_split_matches_per_vertex_split_on_nodea_middles(monkeypatch):
    """Every middle term of the nodeA closure at d = 6 over GF(2) and at
    d = 5 over GF(3)."""
    from syzex import extdim

    real = extdim.extension_middle
    for p, d, least in ((2, 6, 400), (3, 5, 200)):
        algebra = build_algebra(load_corpus("nodeA", p).spec)
        middles = {}

        def recorded(ys, xs, corners):
            mid = real(ys, xs, corners)
            middles.setdefault(mid.key(), mid)
            return mid

        monkeypatch.setattr(extdim, "extension_middle", recorded)
        extdim.generate_universe(algebra, extdim.UniverseParams(d))
        assert len(middles) >= least
        assert sum(assert_splits_match_per_vertex(m) for m in middles.values()) >= least


@pytest.mark.parametrize("p", [2, 3, 257])
def test_sub_rep_refuses_a_span_that_is_not_invariant(p):
    """All of P0 over kron2 at vertex 0 and one line at vertex 1: x1 takes
    the generator off that line.  The whole of P0 gives P0 back."""
    m = build_algebra(kron2_spec(p)).projective(0)
    with pytest.raises(AssertionError, match="^spans are not arrow-invariant$"):
        rep_module.sub_rep(m, [(Matrix.identity(p, 1), [0]), (Matrix.from_rows(p, [[1, 0]]), [0])])
    assert rep_module.sub_rep(m, [(Matrix.identity(p, d), list(range(d))) for d in m.dim]) == m


def vertex_blocks_by_transpose(m, basis):
    """Reference cut: the basis columns as rows, taken per vertex while they
    have an entry before M_v ends, cut to M_v's coordinates and transposed
    back."""
    p = basis.p
    vectors = entries(basis.transpose())
    blocks = []
    start = k = 0
    for d in m.dim:
        end = start + d
        j = k
        while j < len(vectors) and any(vectors[j][:end]):
            j += 1
        rows = [v[start:end] for v in vectors[k:j]]
        blocks.append(Matrix.from_rows(p, rows).transpose() if rows else Matrix.zero(p, d, 0))
        start, k = end, j
    return blocks


@pytest.mark.parametrize("p", [2, 3, 257])
def test_vertex_blocks_match_transpose_cut(p):
    """The in-place cut of image and kernel bases of End(M) elements, of the
    zero map and of the identity, against the transpose-based reference, and
    the per-vertex spans _split_with reads off the reduced vectors against
    the same reference."""
    rng = random.Random(733 + p)
    seen = set()
    for mods in random_hom_modules(rng, p):
        for m in mods + [direct_sum([a, b]) for a, b in zip(mods, mods[1:])]:
            n = m.total_dim
            end = hom_space(m, m)
            maps = [end.diagonal(row) for row in end.rows] + [Matrix.zero(p, n, n), Matrix.identity(p, n)]
            for e in maps:
                spans = {"image": block_spans(*rref(e.transpose()), m.dim), "kernel": block_spans(*null_rows(e), m.dim)}
                for kind, basis in (("image", column_space_basis(e)), ("kernel", null_space(e))):
                    got = _vertex_blocks(m, basis)
                    want = vertex_blocks_by_transpose(m, basis)
                    assert [(b.nrows, b.ncols, entries(b)) for b in got] == [
                        (b.nrows, b.ncols, entries(b)) for b in want
                    ]
                    # the spans sub_rep reads are the same blocks as rows
                    assert [entries(rows.transpose()) for rows, _ in spans[kind]] == [entries(b) for b in want]
                    assert [pivots for _, pivots in spans[kind]] == [rref(rows)[1] for rows, _ in spans[kind]]
                    if 0 in m.dim:
                        seen.add("zero-dimensional vertex")
                    if any(d and not b.ncols for d, b in zip(m.dim, got)):
                        seen.add("vertex with no basis vectors")
                    if n and kind == "image" and not basis.ncols:
                        seen.add("zero image")
                    if n and kind == "kernel" and basis.ncols == n:
                        seen.add("kernel all of M")
    assert len(seen) == 4


def test_decompose_proves_local_over_gf257(monkeypatch):
    """End(k[x]/x^3) has 257^3 elements but a simple top: its three basis
    elements are the whole search."""
    calls = counted_splits(monkeypatch)
    m = truncated_polynomials(257, 3).projective(0)
    assert hom_space(m, m).dimension == 3
    assert [(f.dim, mult) for f, mult in decompose(m).factors] == [((3,), 1)]
    assert len(calls) == 3


def test_decompose_proves_xia_module_with_large_end(monkeypatch):
    """An xiA module from `ed xiA --i 0,1,2 --dim-bound 4 --syzygy-probe 2`
    with dim End = 12 (2^12 elements): no basis element splits it, and the
    image of End on its top has dimension 3, so the 4 lines beyond the basis
    are tested on the top; that proves it indecomposable, as a scan of all
    of End agrees."""
    from syzex import rep as rep_mod

    algebra = build_algebra(load_corpus("xiA").spec)
    doc = {
        "dim": {"2": 2, "3": 6},
        "action": {
            "delta": [[0, 0], [1, 0], [0, 0], [0, 0], [0, 1], [0, 0]],
            "alpha": [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]],
            "eps": [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0]],
        },
    }
    m = parse_module_doc(doc, algebra)
    assert m.validate() == []
    assert hom_space(m, m).dimension == 12
    calls = counted_splits(monkeypatch)
    lines = []
    real = rep_mod._splits_top

    def counted(ts):
        lines.append(ts)
        return real(ts)

    monkeypatch.setattr(rep_mod, "_splits_top", counted)
    assert [(f.dim, mult) for f, mult in decompose(m).factors] == [(m.dim, 1)]
    assert len(calls) == 12 and len(lines) == 4
    assert not splits_by_scan(m)


def kron_jordan(p):
    """Kronecker module (3, 3) with x0 = I and x1 = J_3, local with End = k[J]/J^3."""
    kron = build_algebra(kron2_spec(p))
    jordan = Matrix.from_rows(p, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    m = Representation(kron, (3, 3), (Matrix.identity(p, 3), jordan))
    assert m.validate() == []
    return m


def test_decompose_over_split_budget_raises():
    # over GF(2) the 7 lines on the top leave 4 lifts beyond the basis;
    # over GF(257) there are 66,307 lines, far past SPLIT_ENUM_BUDGET
    m = kron_jordan(2)
    assert [(f.dim, mult) for f, mult in decompose(m).factors] == [((3, 3), 1)]
    with pytest.raises(BudgetExceeded):
        decompose(kron_jordan(257))


def test_decompose_mixed_sum(kron2):
    p0 = kron2.projective(0)
    s1 = kron2.simple(1)
    dec = decompose(direct_sum([p0, s1, s1]))
    dims = sorted((f.dim, mult) for f, mult in dec.factors)
    assert dims == [((0, 1), 2), ((1, 2), 1)]


def test_decompose_preserves_dimension(kron2, fivevertex):
    for algebra in (kron2, fivevertex):
        m = direct_sum([algebra.projective(v) for v in range(algebra.n_vertices)])
        dec = decompose(m)
        for v in range(algebra.n_vertices):
            assert sum(f.dim[v] * mult for f, mult in dec.factors) == m.dim[v]


def top_dim(m):
    """Dimension vector of the top of m: M_v / rad M_v per vertex, as top_maps projects it."""
    return tuple(pr.nrows for pr, _ in top_maps(m))


def test_top_and_radical_semisimple(semisimple3):
    m = direct_sum([semisimple3.simple(v) for v in range(3)])
    # the radical is the kernel of M -> top M, zero when the cover is M itself
    assert projective_cover(m).kernel.total_dim == 0
    assert top_dim(m) == m.dim


def test_top_and_radical_p0(kron2):
    p0 = kron2.projective(0)
    assert top_dim(p0) == (1, 0)
    # rad P0 is the kernel of the cover P0 -> S0 of its top
    pres = projective_cover(kron2.simple(0))
    assert pres.cover.dim == p0.dim
    rad = pres.kernel
    assert rad.dim == (0, 2)
    dec = decompose(rad)
    assert dec.factors[0][0].dim == (0, 1) and dec.factors[0][1] == 2


def test_projective_tops_are_simple(kron2, beilinson2, fivevertex):
    for algebra in (kron2, beilinson2, fivevertex):
        for v in range(algebra.n_vertices):
            expected = tuple(1 if w == v else 0 for w in range(algebra.n_vertices))
            assert top_dim(algebra.projective(v)) == expected


def hom_equations_by_entries(m, n):
    """The Hom(m, n) system the per-entry way, one equation per arrow entry
    in the order (arrow, i, j), with its number of unknowns."""
    algebra = m.algebra
    q = algebra.quiver
    off, total = [], 0
    for v in range(q.n_vertices):
        off.append(total)
        total += m.dim[v] * n.dim[v]

    def unknown(v, i, j):
        return off[v] + i * m.dim[v] + j

    rows = []
    for ai in range(len(q.arrows)):
        u, w = q.arrow_source(ai), q.arrow_target(ai)
        for i in range(n.dim[w]):
            for j in range(m.dim[u]):
                row = [0] * total
                for k in range(m.dim[w]):
                    row[unknown(w, i, k)] += m.action[ai].entry(k, j)
                for l in range(n.dim[u]):
                    row[unknown(u, l, j)] -= n.action[ai].entry(i, l)
                rows.append(row)
    return rows, total


def hom_basis_by_entries(m, n):
    """Hom(m, n) basis the per-entry way: kernel vectors of
    hom_equations_by_entries as tuples, each block repacked entry by entry
    with from_rows."""
    q, p = m.algebra.quiver, m.algebra.p
    off = list(itertools.accumulate((a * b for a, b in zip(m.dim, n.dim)), initial=0))

    def unknown(v, i, j):
        return off[v] + i * m.dim[v] + j

    rows, total = hom_equations_by_entries(m, n)
    system = Matrix.from_rows(p, rows) if rows else Matrix.zero(p, 0, total)
    basis = []
    for vec in entries(kernel_basis(system)[0]):
        mats = []
        for v in range(q.n_vertices):
            block = [[vec[unknown(v, i, j)] for j in range(m.dim[v])] for i in range(n.dim[v])]
            mats.append(Matrix.from_rows(p, block) if block and m.dim[v] else Matrix.zero(p, n.dim[v], m.dim[v]))
        basis.append(tuple(mats))
    return basis


def random_hom_modules(rng, p):
    """Random modules over a linear quiver and kron2 (no relations), and sums of
    projectives, injectives, simples and syzygies over beilinson2 (relations)
    and nodeA (a loop gamma with gamma^2 = 0, so both halves of an equation
    land in one block), the nodeA ones in random bases."""
    linear = build_algebra(AlgebraSpec(
        p, ["0", "1", "2"], [{"name": "a%d" % i, "from": str(i), "to": str(i + 1)} for i in range(2)], [],
    ))
    kron = build_algebra(kron2_spec(p))
    groups = []
    for algebra in (linear, kron):
        mods = []
        q = algebra.quiver
        for _ in range(6):
            dim = tuple(rng.randint(0, 3) for _ in range(q.n_vertices))
            action = tuple(
                Matrix.from_rows(p, [[rng.randrange(p) for _ in range(dim[q.arrow_source(ai)])]
                                     for _ in range(dim[q.arrow_target(ai)])])
                if dim[q.arrow_source(ai)] and dim[q.arrow_target(ai)]
                else Matrix.zero(p, dim[q.arrow_target(ai)], dim[q.arrow_source(ai)])
                for ai in range(len(q.arrows))
            )
            m = Representation(algebra, dim, action)
            assert m.validate() == []
            mods.append(m)
        groups.append(mods)
    node = build_algebra(load_corpus("nodeA", p).spec)
    for algebra in (build_algebra(beilinson2_spec(p)), node):
        pool = [f(v) for v in range(algebra.n_vertices) for f in (algebra.simple, algebra.projective, algebra.injective)]
        pool += [syzygy(algebra.injective(v)) for v in range(algebra.n_vertices)]
        groups.append([direct_sum(rng.sample(pool, rng.randint(1, 2))) for _ in range(6)])
    # in random bases gamma has nonzero diagonal entries, so some equation of
    # the loop meets one unknown from both sides; P1 (+) I1 has gamma nonzero
    extra = direct_sum([node.projective(0), node.injective(0)])
    groups[-1] = [conjugate(m, rng) for m in groups[-1] + [extra]]
    return groups


def loop_sum_modules():
    """Two dual-numbers modules over GF(3) whose loop x has diagonals (1, 2)
    and (2, 1).  Equation (i, j) of Hom(M, N) meets f[i][j] from both sides,
    with M_x[j][j] - N_x[i][i]: 1 - 2 = 2, 2 - 2 = 0 and 2 - 1 = 1, each
    part nonzero, so the two entries must be added mod 3."""
    dual = build_algebra(load_corpus("dualnumbers", 3).spec)
    mods = [Representation(dual, (2,), (Matrix.from_rows(3, rows),)) for rows in ([[1, 1], [2, 2]], [[2, 1], [2, 1]])]
    assert all(m.validate() == [] for m in mods)
    m, n = (x.action[0] for x in mods)
    assert {(m.entry(j, j) - n.entry(i, i)) % 3 for i in range(2) for j in range(2)} == {0, 1, 2}
    return mods


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_hom_space_matches_per_entry_oracle(p):
    rng = random.Random(601 + p)
    for mods in random_hom_modules(rng, p) + ([loop_sum_modules()] if p == 3 else []):
        for m in mods:
            for n in mods:
                hb = hom_space(m, n)
                got = [h.mats for h in hb.basis]
                assert got == hom_basis_by_entries(m, n)
                assert got == [
                    tuple(unflat(p, row, at, b, a) for at, a, b in zip(hb.offsets, m.dim, n.dim)) for row in hb.rows
                ]


def test_gf3_hom_pairs_are_the_per_entry_equations(monkeypatch):
    """Over GF(3) every (ones, twos) pair _hom_space hands to the solve has
    disjoint masks and unpacks to the per-entry equation, reduced mod 3, one
    per corner entry, the zero equations kept: loops whose two entries on
    one unknown sum to 0, 1 and 2 included."""
    from syzex import linalg

    solve = linalg._kernel3
    seen = []

    def checked(pairs, n):
        seen.append([tuple(linalg._entries(3, pair, n)) for pair in pairs])
        assert all(not o & t for o, t in pairs)
        return solve(pairs, n)

    monkeypatch.setattr(linalg, "_kernel3", checked)
    rng = random.Random(604)
    for mods in random_hom_modules(rng, 3) + [loop_sum_modules()]:
        for m in mods:
            for n in mods:
                seen.clear()
                rep_module._hom_space(m, n)
                rows, _ = hom_equations_by_entries(m, n)
                assert seen == [[tuple(x % 3 for x in row) for row in rows]]


def inner_derivations_by_entries(x, y):
    """The corners Y_a f_u - f_w X_a of the maps f = (f_v: X_v -> Y_v), one
    row per unit map f_v = E_kl, the corners laid out flat arrow by arrow,
    written entry by entry."""
    p, ends = x.algebra.p, x.algebra.quiver.ends
    gen = list(itertools.accumulate((a * b for a, b in zip(y.dim, x.dim)), initial=0))
    off = list(itertools.accumulate((y.dim[w] * x.dim[u] for u, w in ends), initial=0))
    out = {}
    for a, (u, w) in enumerate(ends):
        xu, xw = x.dim[u], x.dim[w]
        # E_kl at u puts Y_a[r, k] at C_a[r, l]
        for r in range(y.dim[w]):
            for k in range(y.dim[u]):
                for l in range(xu):
                    key = (gen[u] + k * xu + l, off[a] + r * xu + l)
                    out[key] = out.get(key, 0) + y.action[a].entry(r, k)
        # E_kl at w puts -X_a[l, j] at C_a[k, j]
        for l in range(xw):
            for j in range(xu):
                for k in range(y.dim[w]):
                    key = (gen[w] + k * xw + l, off[a] + k * xu + j)
                    out[key] = out.get(key, 0) - x.action[a].entry(l, j)
    return Matrix.from_entries(p, gen[-1], off[-1], [(i, j, c) for (i, j), c in out.items()]), tuple(gen[:-1])


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_derivations_are_minus_the_inner_derivations_transposed(p):
    """linalg.derivations, the one builder of delta0, is minus the transpose
    of the entrywise inner derivations, one row per corner entry, zero rows
    included, with the same unit-map offsets: nodeA's loop gamma in random
    bases, and over GF(3) the loops whose two entries on one unknown sum
    to 0, 1 and 2."""
    rng = random.Random(607 + p)
    for mods in random_hom_modules(rng, p) + ([loop_sum_modules()] if p == 3 else []):
        for x in mods:
            for y in mods:
                ends = x.algebra.quiver.ends
                got, offsets = derivations(p, ends, x.dim, x.action, y.dim, y.action)
                ref, gen = inner_derivations_by_entries(x, y)
                assert got == ref.transpose().scale(-1)
                assert offsets == gen
                assert got.nrows == sum(y.dim[w] * x.dim[u] for u, w in ends)


def test_module_doc_roundtrip(kron2):
    p0 = kron2.projective(0)
    doc = module_doc(p0, "kron2")
    again = parse_module_doc(doc, kron2)
    assert again.dim == p0.dim
    assert is_iso(again, p0) is True


def test_krull_schmidt_reassembly(kron2):
    m = kron_rep(kron2, 1, 1, [[1]], [[1]])
    n = kron2.projective(0)
    total = direct_sum([m, n])
    both = decompose(total)
    parts_m = decompose(m).factors
    parts_n = decompose(n).factors
    assert sum(mult for _, mult in both.factors) == sum(
        mult for _, mult in parts_m + parts_n
    )
    rebuilt = direct_sum([f for f, mult in both.factors for _ in range(mult)])
    assert is_iso(rebuilt, total) is True


def test_hom_space_contains_identity(kron2, fivevertex):
    # the identity endomorphism must lie in the span of the computed basis
    from syzex.linalg import Matrix

    for algebra in (kron2, fivevertex):
        for v in range(algebra.n_vertices):
            m = algebra.projective(v)
            hb = hom_space(m, m)
            flat_basis = []
            for h in hb.basis:
                flat_basis.append([x for mat in h.mats for row in entries(mat) for x in row])
            ident = [
                x
                for d in m.dim
                for row in entries(Matrix.identity(algebra.p, d))
                for x in row
            ]
            system = from_columns(algebra.p, flat_basis, len(ident))
            assert solve_vec(system, ident) is not None


@pytest.mark.parametrize("p", [2, 3])
def test_hom_basis_coordinates_are_entries_at_free_columns(p):
    """Each HomBasis row is 1 at its free column and 0 at the others, so
    linalg.coordinates reads the coefficients of a combination of the rows
    back at the free columns, and finds a hom off the span by its check."""
    rng = random.Random(29 + p)
    algebra = build_algebra(beilinson2_spec(p))
    mods = [f(v) for v in range(algebra.n_vertices) for f in (algebra.simple, algebra.projective, algebra.injective)]
    seen = 0
    for m, n in itertools.product(mods, repeat=2):
        pair = direct_sum([m, n])
        hb = hom_space(pair, direct_sum([n, rng.choice(mods)]))
        size = sum(a * b for a, b in zip(hb.source.dim, hb.target.dim))
        basis = Matrix(p, len(hb.rows), size, hb.rows).transpose()
        assert len(hb.free) == hb.dimension
        assert Matrix(p, len(hb.free), hb.dimension, tuple(basis.rows[f] for f in hb.free)) == Matrix.identity(p, hb.dimension)
        coeffs = Matrix.from_rows(p, [[rng.randrange(p) for _ in range(3)] for _ in hb.rows]) if hb.rows else Matrix.zero(p, 0, 3)
        assert coordinates(basis, hb.free, basis.mul(coeffs)) == coeffs
        if hb.dimension < size:
            seen += 1
            off = next(j for j in range(size) if j not in hb.free)
            unit = Matrix.from_rows(p, [[int(i == off)] for i in range(size)])
            assert coordinates(basis, hb.free, unit) is None
    assert seen
