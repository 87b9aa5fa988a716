import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from syzex.cli import run
from syzex import homology
from syzex.homology import (
    cartan_determinant,
    cosyzygy,
    duality,
    ext1_space,
    extension_middle,
    gldim_bounded,
    pd_bounded,
    projective_cover,
    syzygy,
    syzygy_summands,
    tilting_check,
)
from syzex.extdim import ClassRegistry, UniverseParams, generate_universe
from syzex.rep import Representation, decompose, direct_sum, indec_factors, is_iso, simple_rep, zero_rep
from conftest import beilinson2_spec, col, conjugate, entries, fivevertex_spec, from_columns, kron2_spec
from ext_oracle import cover_ext1
from property_suites import block_diag, class_coords, class_middle, entry_grid
from syzex import linalg
from syzex.algebra import AlgebraSpec, build_algebra
from syzex.corpus import load_corpus, named_module
from syzex.linalg import Matrix


def test_cover_of_projective_is_iso(kron2, fivevertex):
    for algebra in (kron2, fivevertex):
        for v in range(algebra.n_vertices):
            pres = projective_cover(algebra.projective(v))
            assert pres.kernel.total_dim == 0
            assert pres.cover.dim == algebra.projective(v).dim


def test_cover_of_zero():
    for name, p in itertools.product(("kron2", "nodeA", "xiB"), (2, 3)):
        algebra = build_algebra(load_corpus(name, p).spec)
        zero = zero_rep(algebra)
        pres = projective_cover(zero)
        assert pres.cover.total_dim == 0 and pres.kernel.total_dim == 0
        assert syzygy_summands(zero) == ()
        shapes = [(0, 0)] * algebra.n_vertices
        assert [(f.nrows, f.ncols) for f in pres.epi.mats] == shapes
        s0 = algebra.simple(0)
        assert ext1_space(zero, s0).dimension == 0
        assert ext1_space(s0, zero).dimension == 0


def test_cover_s0_kron(kron2):
    pres = projective_cover(kron2.simple(0))
    assert pres.cover.dim == (1, 2)
    assert pres.kernel.dim == (0, 2)
    dec = decompose(pres.kernel)
    assert dec.factors[0][0].dim == (0, 1) and dec.factors[0][1] == 2


def test_exactness_dimension_count(kron2, beilinson2, fivevertex):
    for algebra in (kron2, beilinson2, fivevertex):
        for v in range(algebra.n_vertices):
            m = algebra.simple(v)
            pres = projective_cover(m)
            for w in range(algebra.n_vertices):
                assert pres.kernel.dim[w] + m.dim[w] == pres.cover.dim[w]


def test_syzygy_examples_kron(kron2):
    s0 = kron2.simple(0)
    assert syzygy(kron2.projective(0), 1).total_dim == 0
    om = syzygy(s0, 1)
    assert om.dim == (0, 2)
    assert syzygy(s0, 2).total_dim == 0


def test_syzygy_additive(kron2, fivevertex):
    for algebra in (kron2, fivevertex):
        m = algebra.simple(0)
        n = algebra.simple(algebra.n_vertices - 1)
        lhs = syzygy(direct_sum([m, n]), 1)
        rhs = direct_sum([syzygy(m, 1), syzygy(n, 1)])
        assert lhs.dim == rhs.dim
        if lhs.total_dim:
            assert is_iso(lhs, rhs) is True


def test_syzygy_iteration_agrees(fivevertex):
    for v in range(fivevertex.n_vertices):
        m = fivevertex.simple(v)
        assert syzygy(m, 2).dim == syzygy(syzygy(m, 1), 1).dim


def test_cosyzygy_examples_kron(kron2):
    assert cosyzygy(kron2.injective(0), 1).total_dim == 0
    assert cosyzygy(kron2.injective(1), 1).total_dim == 0
    co = cosyzygy(kron2.simple(1), 1)
    assert co.dim == (2, 0)
    assert cosyzygy(zero_rep(kron2), 3).total_dim == 0


def test_duality_involution(kron2, fivevertex):
    for algebra in (kron2, fivevertex):
        for v in range(algebra.n_vertices):
            m = algebra.projective(v)
            dd = duality(duality(m))
            assert dd.algebra is algebra
            assert is_iso(dd, m) is True


def test_duality_sends_projectives_to_injectives(kron2, beilinson2):
    for algebra in (kron2, beilinson2):
        for v in range(algebra.n_vertices):
            d = duality(algebra.projective(v))
            assert cosyzygy(d, 1).total_dim == 0  # injective over the opposite


def test_pd_examples(kron2, dualnumbers):
    assert pd_bounded(kron2.projective(0), 5) == 0
    assert pd_bounded(kron2.simple(0), 5) == 1
    # self-injective: the simple never becomes projective
    assert pd_bounded(dualnumbers.simple(0), 10) is None


def whole_module_pd(m, bound):
    """Reference: resolve the whole module Omega^n(m) until it is projective."""
    cur = m
    for n in range(bound + 1):
        if projective_cover(cur).kernel.total_dim == 0:
            return n
        cur = syzygy(cur, 1)
    return None


@pytest.mark.parametrize(
    "entry, p",
    [("kron2", 2), ("beilinson2", 2), ("fivevertex", 2), ("nodeA", 2), ("dualnumbers", 2), ("xiB", 2), ("kron2", 3)],
)
def test_pd_summand_walk_matches_whole_module_loop(entry, p):
    from syzex.corpus import corpus_algebra

    algebra = corpus_algebra(entry, p)
    for v in range(algebra.n_vertices):
        for m in (algebra.simple(v), algebra.projective(v), algebra.injective(v)):
            for bound in range(7):
                assert pd_bounded(m, bound) == whole_module_pd(m, bound), (entry, p, m.dim, bound)


def test_gldim_examples(kron2, beilinson2, semisimple3, fivevertex):
    assert gldim_bounded(semisimple3) == 0
    assert gldim_bounded(kron2) == 1
    assert gldim_bounded(beilinson2) == 2
    assert gldim_bounded(fivevertex) == 2


CARTAN_DETERMINANTS = {
    "beilinson2": 1, "euclideanB": 1, "fivevertex": 1, "kron2": 1, "nodeB": 1,
    "dualnumbers": 2, "nodeA": 2, "xiA": 5, "xiB": 5, "bm23": 10185,
}


def test_cartan_determinants_of_corpus():
    from syzex.corpus import corpus_algebra

    assert {e: cartan_determinant(corpus_algebra(e)) for e in CARTAN_DETERMINANTS} == CARTAN_DETERMINANTS


def leibniz_det(c):
    n = len(c)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= c[i][perm[i]]
        total += term
    return total


def test_cartan_determinant_matches_leibniz():
    """Bareiss elimination against the permutation expansion, on path counts
    with zero leading entries, so that rows must be swapped."""
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(0, 5)
        c = [[rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(n)] for _ in range(n)]
        basis = [(u, (), v) for u in range(n) for v in range(n) for _ in range(c[u][v])]
        assert cartan_determinant(SimpleNamespace(n_vertices=n, basis=basis)) == leibniz_det(c)


@pytest.mark.parametrize("entry", ["bm23", "dualnumbers", "nodeA", "xiA", "xiB"])
def test_gldim_infinite_by_cartan_determinant_walks_nothing(entry, monkeypatch):
    from syzex.corpus import corpus_algebra

    def no_walk(m):
        raise AssertionError("syzygy_summands called")

    monkeypatch.setattr(homology, "syzygy_summands", no_walk)
    assert gldim_bounded(corpus_algebra(entry)) is None


def test_ext_projective_vanishes(kron2):
    assert ext1_space(kron2.projective(0), kron2.simple(0)).dimension == 0
    assert ext1_space(kron2.simple(1), kron2.simple(0)).dimension == 0


def test_ext_s0_s1_dimension_two(kron2):
    space = ext1_space(kron2.simple(0), kron2.simple(1))
    assert space.dimension == 2


def test_ext_enumeration_counts():
    for p, expected in ((2, 4), (3, 9)):
        code, report, _ = run(["--field", str(p), "ext", "kron2", "S0", "S1", "--enumerate"])
        assert code == 0
        assert report["results"]["class_count"] == expected
        assert len(report["results"]["classes"]) == expected


def test_ext_enumeration_budget():
    code, report, _ = run(["--budget", "2", "ext", "kron2", "S0", "S1", "--enumerate"])
    assert code == 1
    assert report["results"] == {"error": "2^2 extension classes exceed budget 2", "kind": "budget"}


def test_middle_zero_class_splits(kron2):
    s0, s1 = kron2.simple(0), kron2.simple(1)
    space = ext1_space(s0, s1)
    middle = class_middle(space, (0, 0))
    assert middle.dim == (1, 1)
    dec = decompose(middle)
    assert sorted(f.dim for f, _ in dec.factors) == [(0, 1), (1, 0)]


def test_middle_nonzero_class_indecomposable(kron2):
    s0, s1 = kron2.simple(0), kron2.simple(1)
    space = ext1_space(s0, s1)
    middle = class_middle(space, (1, 0))
    assert middle.dim == (1, 1)
    dec = decompose(middle)
    assert len(dec.factors) == 1 and dec.factors[0][1] == 1


def test_middle_dim_additivity(kron2):
    s0, s1 = kron2.simple(0), kron2.simple(1)
    space = ext1_space(s0, s1)
    for coords in class_coords(space):
        middle = class_middle(space, coords)
        assert middle.dim == tuple(a + b for a, b in zip(s0.dim, s1.dim))


def test_block_route_matches_pushout(kron2, fivevertex):
    """On the cover route, the corners theta_{t(a)} d_a of each class build,
    through extension_middle, the class's pushout middle."""
    cases = [
        (kron2.simple(0), kron2.simple(1)),
        (kron2.injective(1), kron2.simple(1)),
        (fivevertex.simple(3), fivevertex.projective(4)),
    ]
    for x, y in cases:
        oracle = cover_ext1(x, y)
        assert x.algebra.p ** oracle.dimension <= 64
        for coords in oracle.classes():
            via_pushout = oracle.pushout_middle(coords)
            via_blocks = extension_middle((y,), (x,), ((oracle.corners(coords),),))
            assert via_blocks.validate() == []
            assert is_iso(via_pushout, via_blocks) is True


def test_ext_duality_cardinality(kron2):
    s0, s1 = kron2.simple(0), kron2.simple(1)
    lhs = ext1_space(s0, s1).dimension
    rhs = ext1_space(duality(s1), duality(s0)).dimension
    assert lhs == rhs


def test_tilting_regular_module(kron2, fivevertex):
    for algebra in (kron2, fivevertex):
        verdict = tilting_check(algebra.regular_module())
        assert verdict.is_tilting and verdict.pd == 0


def test_tilting_fivevertex_example(fivevertex):
    vx = fivevertex.quiver.vindex
    t = direct_sum(
        [
            fivevertex.simple(vx["2"]),
            fivevertex.projective(vx["2"]),
            fivevertex.projective(vx["3"]),
            fivevertex.projective(vx["4"]),
            fivevertex.projective(vx["5"]),
        ]
    )
    verdict = tilting_check(t)
    assert verdict.is_tilting
    assert verdict.pd == 1


def test_tilting_fails_for_simple(kron2):
    verdict = tilting_check(kron2.simple(0))
    assert not verdict.is_tilting
    assert verdict.pd == 1
    assert any("coresolution" in f or "embed" in f for f in verdict.failures)


def test_enumerate_dimension_zero_is_single_zero_class(kron2):
    space = ext1_space(kron2.projective(0), kron2.simple(0))
    classes = class_coords(space)
    assert len(classes) == 1
    middle = class_middle(space, classes[0])
    dec = decompose(middle)
    assert sum(m for _, m in dec.factors) == 2  # split: both pieces survive


def test_duality_preserves_dimensions_corpus_wide():
    from syzex.corpus import corpus_algebra, corpus_ids

    for cid in corpus_ids():
        if cid == "bm23":
            continue  # excluded from default runs
        algebra = corpus_algebra(cid)
        for v in range(algebra.n_vertices):
            for m in (algebra.simple(v), algebra.projective(v), algebra.injective(v)):
                assert duality(m).total_dim == m.total_dim


def epi_by_path_action(m):
    """Cover epi with each column the full path matrix applied to a generator."""
    algebra = m.algebra
    q = algebra.quiver
    p = algebra.p
    cols = [[] for _ in range(q.n_vertices)]
    for v in range(q.n_vertices):
        into = [m.action[ai] for ai in range(len(q.arrows)) if q.arrow_target(ai) == v]
        span = linalg.hstack(into) if into else Matrix.zero(p, m.dim[v], 0)
        _, lift = linalg.quotient_maps(span)
        for i in range(lift.ncols):
            gen = from_columns(p, [col(lift, i)], m.dim[v])
            for (s, arrows, t) in algebra.basis:
                if s == v:
                    cols[t].append(col(m.path_action(v, arrows).mul(gen), 0))
    return tuple(
        from_columns(p, cols[w], m.dim[w]) if cols[w] else Matrix.zero(p, m.dim[w], 0)
        for w in range(q.n_vertices)
    )


@pytest.mark.parametrize("p", [2, 3])
def test_cover_epi_matches_path_action_on_deep_syzygies(p):
    entry = load_corpus("xiB", p)
    algebra = build_algebra(entry.spec)
    m = named_module(entry, algebra, "S2p")
    for _ in range(6):
        pres = projective_cover(m)
        assert pres.epi.mats == epi_by_path_action(m)
        m = pres.kernel
        assert m.total_dim


@pytest.mark.parametrize("p", [2, 3])
def test_projective_cover_reduces_each_vertex_twice(p, monkeypatch):
    """One forward pass per vertex for the top (quotient_maps), one for the
    syzygy (null_rows), in both row layouts; sub_rep reduces nothing."""
    entry = load_corpus("xiB", p)
    algebra = build_algebra(entry.spec)
    m = syzygy(named_module(entry, algebra, "S2p"), 2)
    for v in range(algebra.n_vertices):
        algebra.projective(v)
    calls = []
    echelon = linalg._echelon

    def counting(field, rows):
        calls.append(rows)
        return echelon(field, rows)

    monkeypatch.setattr(linalg, "_echelon", counting)
    pres = projective_cover(m)
    assert pres.kernel.total_dim
    assert len(calls) == 2 * algebra.n_vertices


def test_cover_epi_matches_path_action_on_simples(kron2, beilinson2):
    for algebra in (kron2, beilinson2):
        for v in range(algebra.n_vertices):
            m = algebra.simple(v)
            assert projective_cover(m).epi.mats == epi_by_path_action(m)


@pytest.mark.parametrize("p", [2, 5])
def test_cover_epi_matches_path_action_on_random_modules(p):
    # linear quiver 0 -> 1 -> 2 -> 3 without relations: paths of length 3
    # carry generators through vectors with arbitrary coefficients
    spec = AlgebraSpec(
        p, ["0", "1", "2", "3"],
        [{"name": "a%d" % i, "from": str(i), "to": str(i + 1)} for i in range(3)], [],
    )
    algebra = build_algebra(spec)
    rng = random.Random(17 + p)
    for _ in range(10):
        dim = tuple(rng.randint(0, 3) for _ in range(4))
        action = tuple(
            Matrix.from_rows(p, [[rng.randrange(p) for _ in range(dim[i])] for _ in range(dim[i + 1])])
            if dim[i] and dim[i + 1] else Matrix.zero(p, dim[i + 1], dim[i])
            for i in range(3)
        )
        m = Representation(algebra, dim, action)
        assert m.validate() == []
        assert projective_cover(m).epi.mats == epi_by_path_action(m)


def ext_oracle_modules(rng, p):
    """Random kron2 modules, and sums of simples, projectives, injectives and
    syzygies over beilinson2 and nodeA, the nodeA ones in random bases."""
    kron = build_algebra(kron2_spec(p))
    groups = [[
        Representation(kron, dim, tuple(_random_matrix(rng, p, dim[1], dim[0]) for _ in range(2)))
        for dim in ((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(6))
    ]]
    assert all(m.validate() == [] for m in groups[0])
    for algebra in (build_algebra(beilinson2_spec(p)), build_algebra(load_corpus("nodeA", p).spec)):
        pool = [f(v) for v in range(algebra.n_vertices) for f in (algebra.simple, algebra.projective, algebra.injective)]
        pool += [syzygy(algebra.injective(v)) for v in range(algebra.n_vertices)]
        groups.append([conjugate(direct_sum(rng.sample(pool, rng.randint(1, 2))), rng) for _ in range(6)])
    return groups


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_ext1_dimension_matches_cover_oracle(p):
    """Ext^1 from extension corners has the cover route's dimension, and the
    middle of every basis class is a module.  Over p >= 5 the pairs with a
    module of dimension above 20 are left out: either route takes seconds
    to minutes on them there."""
    rng = random.Random(60 + p)
    nonzero = 0
    for mods in ext_oracle_modules(rng, p):
        for x, y in itertools.product(mods, repeat=2):
            if p >= 5 and max(x.total_dim, y.total_dim) > 20:
                continue
            space = ext1_space(x, y)
            assert space.dimension == cover_ext1(x, y).dimension
            for t in range(space.dimension):
                unit = tuple(int(i == t) for i in range(space.dimension))
                assert class_middle(space, unit).validate() == []
            nonzero += bool(space.dimension)
    assert nonzero >= 10


def window_pairs(entry, p, d):
    algebra = build_algebra(load_corpus(entry, p).spec)
    members = generate_universe(algebra, UniverseParams(d)).sorted_members()
    return list(itertools.product(members, repeat=2))


@pytest.mark.parametrize("entry, p, d", [("nodeA", 2, 6), ("nodeA", 3, 5), ("beilinson2", 3, 2), ("kron2", 3, 4)])
def test_ext1_dimension_matches_cover_oracle_on_windows(entry, p, d):
    """On every pair of window members, Ext^1 has the cover route's dimension."""
    pairs = window_pairs(entry, p, d)
    nonzero = 0
    for x, y in pairs:
        dim = ext1_space(x, y).dimension
        assert dim == cover_ext1(x, y).dimension
        nonzero += bool(dim)
    assert nonzero >= 10


def middle_kind(registry, middle):
    """A middle's isomorphism class: the sorted classes of its Krull-Schmidt
    factors in one registry."""
    return tuple(sorted(id(registry.intern(f)[0]) for f in indec_factors(middle)))


@pytest.mark.parametrize("entry, p, d", [("kron2", 3, 4), ("nodeA", 2, 5), ("nodeA", 3, 4), ("beilinson2", 2, 2)])
def test_middles_match_cover_pushouts_as_multisets(entry, p, d):
    """Over all classes of a space with at most 81 of them, the middles
    through the corner basis are the cover route's pushout middles, counted
    with multiplicity up to isomorphism: the two bases differ, the classes
    do not."""
    registry = ClassRegistry()
    checked = 0
    for x, y in window_pairs(entry, p, d):
        space = ext1_space(x, y)
        if not space.dimension or p ** space.dimension > 81:
            continue
        oracle = cover_ext1(x, y)
        ours = Counter(middle_kind(registry, class_middle(space, c)) for c in class_coords(space))
        theirs = Counter(middle_kind(registry, oracle.pushout_middle(c)) for c in oracle.classes())
        assert ours == theirs
        checked += 1
    assert checked >= 10


def test_ext1_builds_no_cover(monkeypatch):
    """Ext^1 takes no projective cover and solves no Hom system, and still
    has the cover route's dimension."""
    def refused(*args):
        raise AssertionError("Ext^1 reached the cover route")

    algebra = build_algebra(beilinson2_spec(3))
    mods = [f(v) for v in range(algebra.n_vertices) for f in (algebra.simple, algebra.projective, algebra.injective)]
    pairs = list(itertools.product(mods, repeat=2))
    want = [cover_ext1(x, y).dimension for x, y in pairs]
    monkeypatch.setattr(homology, "projective_cover", refused)
    monkeypatch.setattr(homology, "hom_space", refused)
    assert [ext1_space(x, y).dimension for x, y in pairs] == want
    assert max(want) > 1


def middle_grid(ys, xs, corners, ai):
    """The blocks of [[(+)Y_a, C_a], [0, (+)X_a]], one block row and one
    block column per module, zero blocks spelled out."""
    q = ys[0].algebra.quiver
    p = ys[0].algebra.p
    mods = list(ys) + list(xs)
    s, t = q.arrow_source(ai), q.arrow_target(ai)
    grid = []
    for i, m in enumerate(mods):
        row = [Matrix.zero(p, m.dim[t], n.dim[s]) for n in mods]
        row[i] = m.action[ai]
        if i < len(ys):
            row[len(ys):] = [blocks[ai] for blocks in corners[i]]
        grid.append(row)
    return grid


def block_middle(ys, xs, corners):
    """Reference: the middle's arrow matrices written entry by entry."""
    algebra = ys[0].algebra
    q = algebra.quiver
    dims = tuple(sum(m.dim[v] for m in list(ys) + list(xs)) for v in range(q.n_vertices))
    action = tuple(entry_grid(algebra.p, middle_grid(ys, xs, corners, ai)) for ai in range(len(q.arrows)))
    return Representation(algebra, dims, action)


def _random_matrix(rng, p, nrows, ncols):
    if not nrows:
        return Matrix.zero(p, 0, ncols)
    return Matrix.from_rows(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extension_middle_matches_block_assembly(p):
    # the builder only places blocks, so random matrices (relations not
    # imposed) and modules that vanish at some vertices exercise every offset
    rng = random.Random(40 + p)
    checked = zero_vertices = 0
    for spec in (beilinson2_spec(p), fivevertex_spec(p)):
        algebra = build_algebra(spec)
        q = algebra.quiver
        arrows = range(len(q.arrows))

        def random_module():
            dim = tuple(rng.choice((0, 1, 2, 3)) for _ in range(q.n_vertices))
            mats = (_random_matrix(rng, p, dim[q.arrow_target(ai)], dim[q.arrow_source(ai)]) for ai in arrows)
            return Representation(algebra, dim, tuple(mats))

        for _ in range(25):
            ys = [random_module() for _ in range(rng.randint(1, 3))]
            xs = [random_module() for _ in range(rng.randint(1, 3))]
            corners = [
                [
                    tuple(_random_matrix(rng, p, y.dim[q.arrow_target(ai)], x.dim[q.arrow_source(ai)]) for ai in arrows)
                    for x in xs
                ]
                for y in ys
            ]
            built = extension_middle(ys, xs, corners)
            ref = block_middle(ys, xs, corners)
            assert built.dim == ref.dim
            assert built.action == ref.action
            assert [entries(m) for m in built.action] == [entries(m) for m in ref.action]
            # direct_sum and hstack share the row assembler with extension_middle
            for mods in (ys, xs, ys + xs):
                summed = direct_sum(mods)
                assert summed.action == tuple(block_diag(p, [m.action[ai] for m in mods]) for ai in arrows)
            for ai in arrows:
                for block_row in middle_grid(ys, xs, corners, ai):
                    assert linalg.hstack(block_row) == entry_grid(p, [block_row])
            zero_vertices += sum(d == 0 for m in ys + xs for d in m.dim)
            checked += 1
    assert checked == 50 and zero_vertices


@pytest.mark.parametrize("entry, p, name", [("kron2", 2, "P0"), ("nodeA", 3, "I1")])
def test_non_minimal_cover_is_refused(monkeypatch, entry, p, name):
    # every basis vector taken as a top generator: the cover is not minimal
    # whenever the module has a radical, and the kernel reaches a trivial path
    from syzex import homology
    from syzex.corpus import corpus_algebra, vertex_module

    algebra = corpus_algebra(entry, p)
    m = vertex_module(algebra, name)
    identity = [(Matrix.identity(p, d), Matrix.identity(p, d)) for d in m.dim]
    monkeypatch.setattr(homology, "top_maps", lambda rep: identity)
    with pytest.raises(AssertionError, match="cover kernel escapes the radical"):
        projective_cover(m)
