import random

import pytest

from conftest import conjugate, kron2_spec, member_named
from syzex.algebra import AlgebraSpec, build_algebra
from syzex.corpus import load_corpus
from syzex.errors import ContradictoryFacts, SpecError
from syzex.extdim import (
    UniverseParams,
    bounded_containment,
    bullet,
    ed_report,
    generate_universe,
    layer,
    rep_type_certificate,
    syzygy_category,
    syzygy_finiteness_probe,
    tits_classification,
)
from syzex.homology import projective_cover
from syzex.rep import Representation, decompose, hom_space, is_iso, sort_key


FIVEVERTEX_AR_COUNT = 14  # vertices of the AR quiver of this algebra, counted by hand before coding


@pytest.fixture(scope="module")
def kron_universe(kron2):
    return generate_universe(kron2, UniverseParams(6))


@pytest.fixture(scope="module")
def five_universe(fivevertex):
    return generate_universe(fivevertex, UniverseParams(8))


def linear_an_algebra(n=4):
    arrows = [{"name": "a%d" % i, "from": str(i), "to": str(i + 1)} for i in range(1, n)]
    return build_algebra(AlgebraSpec(2, [str(i) for i in range(1, n + 1)], arrows, []))


def euclidean_b_algebra():
    arrows = [
        {"name": "ab", "from": "a", "to": "b"},
        {"name": "ca", "from": "c", "to": "a"},
        {"name": "da", "from": "d", "to": "a"},
        {"name": "ea", "from": "e", "to": "a"},
    ]
    return build_algebra(AlgebraSpec(2, ["a", "b", "c", "d", "e"], arrows, []))


def test_universe_semisimple_saturates(semisimple3):
    uni = generate_universe(semisimple3, UniverseParams(4))
    assert not uni.is_clipped
    assert len(uni.members) == 3
    assert all(c.total_dim == 1 for c in uni.members)


def test_universe_fivevertex_matches_ar_quiver(five_universe):
    assert not five_universe.is_clipped
    assert len(five_universe.members) == FIVEVERTEX_AR_COUNT


def test_universe_kron_clips(kron_universe):
    assert kron_universe.is_clipped
    assert any(c.total_dim >= 5 for c in kron_universe.members)


def test_universe_members_indecomposable_and_valid(five_universe):
    for cls in five_universe.members:
        assert cls.validate() == []
        dec = decompose(cls)
        assert len(dec.factors) == 1 and dec.factors[0][1] == 1


def test_bullet_kron_projective_then_injective_order(kron_universe, kron2):
    s0 = member_named(kron_universe, "S0")
    s1 = member_named(kron_universe, "S1")
    got = bullet(kron_universe, frozenset([s0]), frozenset([s1]))
    assert got == frozenset([s0, s1])


def test_bullet_kron_covers_window(kron_universe):
    s0 = member_named(kron_universe, "S0")
    s1 = member_named(kron_universe, "S1")
    got = bullet(kron_universe.with_bullet_bounds(3), frozenset([s1]), frozenset([s0]))
    for cls in kron_universe.members:
        assert cls in got


def test_bullet_empty_side(kron_universe):
    s0 = member_named(kron_universe, "S0")
    assert bullet(kron_universe, frozenset([s0]), frozenset()) == frozenset([s0])
    assert bullet(kron_universe, frozenset(), frozenset([s0])) == frozenset([s0])


def test_layer_examples(kron_universe):
    s0 = member_named(kron_universe, "S0")
    s1 = member_named(kron_universe, "S1")
    both = frozenset([s0, s1])
    assert layer(kron_universe, both, 1) == both
    assert layer(kron_universe, frozenset(), 3) == frozenset()
    full = layer(kron_universe.with_bullet_bounds(3), both, 2)
    for cls in kron_universe.members:
        assert cls in full


def test_layer_stops_at_its_fixed_point(kron2, monkeypatch):
    """Layer k + 1 depends only on layer k, so once two consecutive layers
    agree every later one equals them: n = 2000 takes the bullets of the
    fixed point, and no recursion."""
    from syzex import extdim

    uni = generate_universe(kron2, UniverseParams(2))
    gens = frozenset([member_named(uni, "S0"), member_named(uni, "S1")])
    fixed = layer(uni, gens, 3)
    assert fixed == layer(uni, gens, 2) != layer(uni, gens, 1)
    calls = []
    real = extdim.bullet
    monkeypatch.setattr(extdim, "bullet", lambda *a: calls.append(1) or real(*a))
    assert layer(uni, gens, 2000) == fixed
    assert len(calls) == 2


def test_bounded_containment(kron_universe):
    s0 = member_named(kron_universe, "S0")
    s1 = member_named(kron_universe, "S1")
    both = frozenset([s0, s1])
    assert bounded_containment(kron_universe, both, both, 1) is None
    missing = bounded_containment(
        kron_universe, frozenset(kron_universe.members), frozenset([s0]), 2
    )
    assert missing is s1


def test_syzygy_category_gldim_one():
    b = euclidean_b_algebra()
    cat = syzygy_category(generate_universe(b, UniverseParams(6)), 1)
    projectives = {tuple(b.projective(v).dim) for v in range(b.n_vertices)}
    assert {c.dim for c in cat.members} == projectives
    for c in cat.members:
        assert projective_cover(c).kernel.total_dim == 0


def test_syzygy_category_zero_is_window(kron_universe, kron2):
    cat = syzygy_category(kron_universe, 0)
    assert set(cat.members) == set(kron_universe.members)


def test_syzygy_category_beilinson_second(beilinson2):
    cat = syzygy_category(generate_universe(beilinson2, UniverseParams(2)), 2)
    for c in cat.members:
        assert projective_cover(c).kernel.total_dim == 0


def test_tits_classification_examples(kron2, beilinson2):
    assert tits_classification(linear_an_algebra()) == "Dynkin"
    assert tits_classification(kron2) == "Euclidean"
    assert tits_classification(euclidean_b_algebra()) == "Euclidean"
    assert tits_classification(beilinson2) == "not-hereditary"


def test_tits_wild():
    spec = AlgebraSpec(
        2,
        ["1", "2"],
        [
            {"name": "a", "from": "1", "to": "2"},
            {"name": "b", "from": "1", "to": "2"},
            {"name": "c", "from": "1", "to": "2"},
        ],
        [],
    )
    assert tits_classification(build_algebra(spec)) == "wild-indefinite"


def test_rep_type_kron_infinite(kron2):
    cert = rep_type_certificate(kron2, UniverseParams(6))
    assert cert.verdict == "infinite" and cert.method == "tits_form" and cert.certified


def test_rep_type_fivevertex_finite(fivevertex, five_universe):
    cert = rep_type_certificate(fivevertex, UniverseParams(8), five_universe)
    assert cert.verdict == "finite" and cert.certified
    assert len(cert.members) == FIVEVERTEX_AR_COUNT


def test_rep_type_dynkin_finite():
    a4 = linear_an_algebra()
    cert = rep_type_certificate(a4, UniverseParams(8))
    assert cert.verdict == "finite" and cert.method == "tits_form" and cert.certified
    assert len(cert.members) == 10  # positive roots of A4


def test_ed_kron(kron2):
    intervals = ed_report(kron2, [0, 1, 2], UniverseParams(6), algebra_id="kron2")
    by_i = {iv.i: iv for iv in intervals}
    assert by_i[0].exact and by_i[0].lower == 1
    assert by_i[1].exact and by_i[1].upper == 0
    assert by_i[2].exact and by_i[2].upper == 0


def test_ed_fivevertex(fivevertex):
    intervals = ed_report(fivevertex, [0, 1, 3], UniverseParams(8))
    for iv in intervals:
        assert iv.exact and iv.upper == 0


def test_ed_semisimple(semisimple3):
    intervals = ed_report(semisimple3, [0, 1], UniverseParams(3))
    for iv in intervals:
        assert iv.exact and iv.upper == 0


def test_ed_beilinson_without_facts(beilinson2):
    intervals = ed_report(beilinson2, [0], UniverseParams(2), algebra_id="beilinson2")
    iv = intervals[0]
    assert (iv.lower, iv.upper) == (0, 2)
    assert not iv.exact


def test_ed_beilinson_with_external_fact(beilinson2):
    facts = [{"i": 0, "kind": "exact", "value": 2, "citation": "known value"}]
    intervals = ed_report(
        beilinson2, [0, 1, 2], UniverseParams(2), external_facts=facts
    )
    by_i = {iv.i: iv for iv in intervals}
    for i in (0, 1, 2):
        assert by_i[i].exact
        assert by_i[i].lower == 2 - i


def test_ed_contradictory_facts(kron2):
    facts = [{"i": 0, "kind": "upper", "value": 0, "citation": "bogus"}]
    with pytest.raises(ContradictoryFacts):
        ed_report(kron2, [0], UniverseParams(6), external_facts=facts)


def test_ed_euclidean_b():
    b = euclidean_b_algebra()
    intervals = ed_report(b, [0, 1, 2], UniverseParams(6))
    by_i = {iv.i: iv for iv in intervals}
    assert by_i[0].exact and by_i[0].lower == 1
    assert by_i[1].exact and by_i[1].upper == 0
    assert by_i[2].exact and by_i[2].upper == 0


def test_probe_gldim_one_certified():
    b = euclidean_b_algebra()
    probe = syzygy_finiteness_probe(generate_universe(b, UniverseParams(6)), 1)
    assert probe.certified


@pytest.fixture
def window_bounds(monkeypatch):
    """The dim bound of every window generate_universe builds, in order."""
    import syzex.extdim as extdim

    bounds = []
    real = extdim.generate_universe

    def counted(algebra, params):
        bounds.append(params.dim_bound)
        return real(algebra, params)

    monkeypatch.setattr(extdim, "generate_universe", counted)
    return bounds


def test_ed_report_builds_one_window_per_bound(window_bounds):
    """The certificate and the probe share the window at d; only the
    probe's stability check builds a second one, at d + 1."""
    from syzex.corpus import corpus_algebra

    bounds = window_bounds
    intervals = ed_report(corpus_algebra("nodeA"), [1], UniverseParams(6), syzygy_probes=(1,))
    assert intervals[0].exact and "R8" in intervals[0].upper_fact.describe()
    assert bounds == [6, 7]
    # without a probe the window is built only when the Tits form leaves the type open
    bounds.clear()
    ed_report(corpus_algebra("kron2"), [0, 1, 2], UniverseParams(6))
    assert bounds == []
    ed_report(corpus_algebra("fivevertex"), [0, 1, 2], UniverseParams(8))
    assert bounds == [8]


def test_probes_share_one_grown_window(window_bounds):
    """Two probes build the window at d and at d + 1 once each, and report
    what two runs with one probe each report together."""
    from syzex.corpus import corpus_algebra

    algebra = corpus_algebra("nodeA")
    params = UniverseParams(6)
    singles = [ed_report(algebra, [0, 1, 2, 3], params, syzygy_probes=(n,)) for n in (1, 2)]
    window_bounds.clear()
    both = ed_report(algebra, [0, 1, 2, 3], params, syzygy_probes=(1, 2))
    assert window_bounds == [6, 7]
    # every rule derives from one premise, so the bounds of the union of two
    # probes' facts are the best bounds of the two single-probe runs
    for iv, one, two in zip(both, *singles):
        assert (iv.i, iv.lower, iv.upper) == (one.i, max(one.lower, two.lower), min(one.upper, two.upper))
    assert [(iv.lower, iv.upper) for iv in singles[0]] != [(iv.lower, iv.upper) for iv in singles[1]]


def test_grown_window_shares_every_ext1_solve(monkeypatch):
    """Ext^1 is solved once per (X, Y) key pair over the windows at d and
    d + 1 together: the grown window reuses what the first one solved."""
    from syzex import extdim, homology
    from syzex.corpus import corpus_algebra

    solved = []
    asked = set()
    real = homology.ext1_space

    class Counted(homology.Ext1Space):
        def __init__(self, *args, **kwargs):
            solved.append(1)
            super().__init__(*args, **kwargs)

    def recorded(x, y):
        asked.add((x.key(), y.key()))
        return real(x, y)

    monkeypatch.setattr(homology, "Ext1Space", Counted)
    monkeypatch.setattr(homology, "ext1_space", recorded)
    monkeypatch.setattr(extdim, "ext1_space", recorded)
    ed_report(corpus_algebra("nodeA"), [0, 1, 2], UniverseParams(6), syzygy_probes=(1,))
    assert len(solved) == len(asked) == 2025


@pytest.mark.parametrize(
    "entry, p, d, mult_bound",
    [("nodeA", 2, 6, 2), ("nodeA", 3, 5, 2), ("kron2", 2, 5, 3), ("beilinson2", 3, 1, 2)],
)
def test_grown_window_replays_a_fresh_window(monkeypatch, entry, p, d, mult_bound):
    """The window at d + 1 that grown() builds after the one at d, from the
    middle factors the algebra memoized, is the window at d + 1 built alone
    on a fresh algebra: the same members in the same order, the same clips
    and the same saturation.  Over both windows each middle, by its sub and
    quotient modules and its key, is built once."""
    from dataclasses import replace

    from syzex import extdim
    from syzex.corpus import corpus_algebra

    built = []
    real = extdim.extension_middle

    def recorded(ys, xs, corners):
        mid = real(ys, xs, corners)
        built.append((tuple(y.key() for y in ys), tuple(x.key() for x in xs), mid.key()))
        return mid

    monkeypatch.setattr(extdim, "extension_middle", recorded)
    params = UniverseParams(d, mult_bound=mult_bound)
    uni = generate_universe(corpus_algebra(entry, p), params)
    first = len(built)
    grown = uni.grown()
    assert len(built) == len(set(built))
    replayed = len(built) - first
    built.clear()
    fresh = generate_universe(corpus_algebra(entry, p), replace(params, dim_bound=d + 1))
    assert replayed < len(built)
    assert [c.key() for c in grown.members] == [c.key() for c in fresh.members]
    assert grown.clipped == fresh.clipped
    assert grown.is_saturated == fresh.is_saturated


def test_memoized_middles_keep_the_budget_check():
    """A window with a lower ext_budget on an algebra that has memoized the
    middles of a pair still refuses that pair."""
    from syzex.corpus import corpus_algebra
    from syzex.errors import BudgetExceeded

    algebra = corpus_algebra("kron2")
    generate_universe(algebra, UniverseParams(5))
    with pytest.raises(BudgetExceeded, match="^3 extension-class representatives for one pair exceed budget 2$"):
        generate_universe(algebra, UniverseParams(5, ext_budget=2))


def test_window_bounds_below_one_are_refused(kron_universe):
    with pytest.raises(SpecError):
        kron_universe.with_bullet_bounds(2, 0)
    for name in ("mult_bound", "parts_cap", "member_cap", "ext_budget"):
        with pytest.raises(SpecError):
            UniverseParams(3, **{name: 0})


@pytest.mark.parametrize("entry, p, d", [("nodeA", 2, 6), ("beilinson2", 2, 2), ("kron2", 3, 4)])
def test_syzygy_category_walk_matches_whole_module_decomposition(entry, p, d):
    """The summand walk reaches the classes that decomposing each whole
    Omega^n of a member reaches, with the same oversized classes, each once."""
    from syzex.corpus import corpus_algebra
    from syzex.homology import syzygy

    algebra = corpus_algebra(entry, p)
    uni = generate_universe(algebra, UniverseParams(d))
    for n in (1, 2, 3):
        cat = syzygy_category(uni, n)
        found = {id(uni.registry.intern(algebra.projective(v))[0]) for v in range(algebra.n_vertices)}
        oversized = set()
        for cls in uni.sorted_members():
            for f, _ in decompose(syzygy(cls, n)).factors:
                c = uni.registry.intern(f)[0]
                found.add(id(c))
                if c.total_dim > d:
                    oversized.add(id(c))
        assert {id(c) for c in cat.members} == found
        assert len(cat.members) == len(found)
        assert {id(c) for c in cat.oversized} == oversized
        assert len(cat.oversized) == len(oversized)


def test_syzygy_category_lists_each_oversized_class_once():
    """Over xiA at d = 3, two members reach the oversized class (2,1,1,0)
    through Omega; the category lists it once."""
    from syzex.corpus import corpus_algebra

    cat = syzygy_category(generate_universe(corpus_algebra("xiA", 2), UniverseParams(3)), 1)
    assert sorted(c.dim for c in cat.oversized) == [(2, 1, 1, 0), (2, 1, 2, 0)]


def _middle_kinds(monkeypatch, uni, sub_ms, quot_ms):
    """(kinds the plan builds, kinds of every extension class whose cocycle
    matrix has full rank on each copy block of both sides, kinds of every
    class); a kind is a middle's multiset of summand classes."""
    import itertools

    from syzex import extdim
    from syzex.extdim import ClassRegistry
    from syzex.homology import ext1_space, extension_middle
    from syzex.linalg import Matrix

    p = uni.algebra.p
    above = ClassRegistry()  # summands above the window are unregistered

    def kind(middle):
        return frozenset(
            (id((uni.registry if f.total_dim <= uni.dim_bound else above).intern(f)[0]), mult)
            for f, mult in decompose(middle).factors
        )

    def full_rank(lines, blocks):
        start = 0
        for _, k in blocks:
            if Matrix.from_rows(p, [sum(line, ()) for line in lines[start:start + k]]).rank() < k:
                return False
            start += k
        return True

    built = []
    monkeypatch.setattr(extdim, "extension_middle", lambda *a: built.append(extension_middle(*a)) or built[-1])
    extdim._pair_middles(uni, sub_ms, quot_ms)
    ys = [c for c, j in sub_ms for _ in range(j)]
    xs = [c for c, k in quot_ms for _ in range(k)]
    spaces = [[ext1_space(x, y) for x in xs] for y in ys]
    cells = [list(itertools.product(range(p), repeat=s.dimension)) for row in spaces for s in row]
    full, every = set(), set()
    for pick in itertools.product(*cells):
        grid = [pick[a * len(xs):(a + 1) * len(xs)] for a in range(len(ys))]
        corners = [[s.corners(c) for s, c in zip(row, line)] for row, line in zip(spaces, grid)]
        got = kind(extension_middle(ys, xs, corners))
        every.add(got)
        if full_rank(grid, sub_ms) and full_rank(list(zip(*grid)), quot_ms):
            full.add(got)
    return {kind(m) for m in built}, full, every


def test_orbit_reduction_matches_full_enumeration(kron_universe, five_universe, monkeypatch):
    """The per-block RREF representatives must reach exactly the summand
    classes that enumerating every extension class reaches, and, on sides
    with two classes or copies on both sides, a middle isomorphic to each
    full-rank class's middle."""
    import itertools

    from syzex.extdim import ClassRegistry, _pair_middles
    from syzex.homology import ext1_space, extension_middle

    checked = 0
    for uni in (kron_universe, five_universe):
        p = uni.algebra.p
        # summands above the window are unregistered; identify them up to iso here
        above = ClassRegistry()

        def canon(f):
            return id((uni.registry if f.total_dim <= uni.dim_bound else above).intern(f)[0])

        members = uni.sorted_members()
        for sub in members[:6]:
            for quot in members[:6]:
                space = ext1_space(quot, sub)
                dim, basis = space.dimension, space.basis
                corner_of = {}
                for coeffs in itertools.product(range(p), repeat=dim):
                    # sum_t coeffs[t] * (basis corners t), built here from the basis blocks
                    acc = [b.scale(0) for b in basis[0]] if basis else []
                    for c, blocks in zip(coeffs, basis):
                        acc = [a.add(b.scale(c)) for a, b in zip(acc, blocks)]
                    corner_of[coeffs] = acc
                for j, k in ((1, 2), (2, 1), (2, 2)):
                    sub_ms = ((sub, j),)
                    quot_ms = ((quot, k),)
                    total_exp = j * k * dim
                    if total_exp == 0 or 2 ** total_exp > 256:
                        continue
                    full = set()
                    for flat in itertools.product(corner_of, repeat=j * k):
                        corners = [[corner_of[flat[yi * k + xi]] for xi in range(k)] for yi in range(j)]
                        middle = extension_middle([sub] * j, [quot] * k, corners)
                        for f, _ in decompose(middle).factors:
                            full.add(canon(f))
                    reduced = {canon(cls) for cls in _pair_middles(uni, sub_ms, quot_ms)}
                    # the full run also contains split pieces from degenerate
                    # classes; those are exactly the sides and smaller pairs
                    smaller = set()
                    for jj in range(0, j + 1):
                        for kk in range(0, k + 1):
                            if (jj, kk) in ((j, k), (0, 0)):
                                continue
                            if jj == 0 or kk == 0:
                                smaller |= {id(sub), id(quot)}
                                continue
                            smaller |= {
                                canon(cls) for cls in _pair_middles(uni, ((sub, jj),), ((quot, kk),))
                            }
                    assert full <= reduced | smaller | {id(sub), id(quot)}
                    assert reduced <= full
                    checked += 1
    assert checked >= 20

    from syzex.corpus import corpus_algebra

    kron3 = generate_universe(corpus_algebra("kron2", 3), UniverseParams(4))
    pairs = []
    for uni, other in ((kron_universe, (2, 2)), (kron3, (1, 1))):
        s0, s1 = member_named(uni, "S0"), member_named(uni, "S1")
        x2 = next(c for c in uni.sorted_members() if c.dim == other)
        pairs.append((uni, ((s1, 2),), ((s0, 1), (x2, 1))))
    pairs.append((kron3, ((s1, 2),), ((s0, 2),)))
    for uni, sub_ms, quot_ms in pairs:
        built, full, every = _middle_kinds(monkeypatch, uni, sub_ms, quot_ms)
        assert full <= built <= every


def test_closure_interns_only_window_summands():
    """Middle summands above the bound are clipped without being interned."""
    from syzex.corpus import corpus_algebra

    uni = generate_universe(corpus_algebra("beilinson2", 3), UniverseParams(2))
    classes = [c for bucket in uni.registry.by_fp.values() for c in bucket]
    assert classes and all(c.total_dim <= 2 for c in classes)
    assert uni.is_clipped


@pytest.mark.parametrize(
    "entry, p, d", [("beilinson2", 3, 2), ("kron2", 3, 4), ("nodeA", 2, 6), ("fivevertex", 2, 8)]
)
def test_window_only_intern_matches_intern_everything(monkeypatch, entry, p, d):
    """Interning every middle summand, as the closure once did, yields the
    same members in the same order with the same representatives."""
    from syzex import extdim
    from syzex.corpus import corpus_algebra

    algebra = corpus_algebra(entry, p)
    uni = generate_universe(algebra, UniverseParams(d))
    real = extdim._pair_middles

    def intern_everything(uni, sub_ms, quot_ms):
        return [uni.registry.intern(f)[0] for f in real(uni, sub_ms, quot_ms)]

    monkeypatch.setattr(extdim, "_pair_middles", intern_everything)
    ref = generate_universe(algebra, UniverseParams(d))
    assert [c.key() for c in uni.members] == [c.key() for c in ref.members]
    assert uni.is_clipped == ref.is_clipped
    assert uni.clipped == ref.clipped


def _grouped_factors(m):
    """The reference route: one module per isomorphism class of m's factors,
    the first factor of each group, in decompose's order."""
    return tuple(f for f, _ in decompose(m).factors)


@pytest.mark.parametrize(
    "entry, p, d",
    [
        ("kron2", 2, 5), ("kron2", 3, 3), ("nodeA", 2, 6), ("nodeA", 3, 5), ("beilinson2", 2, 1),
        ("beilinson2", 3, 1), ("fivevertex", 2, 8), ("fivevertex", 3, 8), ("euclideanB", 3, 4),
    ],
)
def test_factor_route_matches_grouped_route(monkeypatch, entry, p, d):
    """Windows fed Krull-Schmidt factors, repeats kept, hold the members
    that windows fed grouped decompositions hold: the same canonical modules
    in the same order, and so does the Omega^1 category of the grown window."""
    from syzex import extdim
    from syzex.corpus import corpus_algebra
    from syzex.homology import projective_cover

    def windows():
        uni = generate_universe(corpus_algebra(entry, p), UniverseParams(d))
        grown = syzygy_category(uni.grown(), 1)
        return [[c.key() for c in cs] for cs in (uni.members, uni.sorted_members(), grown.members, grown.oversized)]

    got = windows()
    monkeypatch.setattr(extdim, "indec_factors", _grouped_factors)
    monkeypatch.setattr(extdim, "syzygy_summands", lambda m: _grouped_factors(projective_cover(m).kernel))
    assert got == windows()


@pytest.mark.parametrize("entry, p, d", [("kron2", 2, 5), ("kron2", 3, 4), ("nodeA", 2, 6), ("euclideanB", 3, 4)])
def test_syzygy_summands_count_decompose_multiplicities(entry, p, d):
    """syzygy_summands, counted by class, gives decompose's multiplicities of
    the whole syzygy, on every member and on the direct sum of two."""
    from collections import Counter

    from syzex.corpus import corpus_algebra
    from syzex.extdim import ClassRegistry
    from syzex.homology import syzygy, syzygy_summands
    from syzex.rep import direct_sum

    members = generate_universe(corpus_algebra(entry, p), UniverseParams(d)).sorted_members()
    registry = ClassRegistry()
    for m in members + [direct_sum(members[-2:])]:
        counted = Counter(registry.intern(f)[0] for f in syzygy_summands(m))
        assert counted == {registry.intern(f)[0]: mult for f, mult in decompose(syzygy(m)).factors}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("algebra_id", ["kron2", "beilinson2"])
def test_corner_is_linear_in_coefficients(algebra_id, p):
    """The memoized corner of a coefficient tuple is the corner of the class
    with those coordinates in the Ext^1 basis, for every tuple: the basis
    corner blocks summed entry by entry, zero blocks for the zero tuple."""
    import itertools

    from syzex.corpus import corpus_algebra
    from syzex.extdim import Universe
    from syzex.homology import ext1_space

    algebra = corpus_algebra(algebra_id, field_p=p)
    uni = Universe(algebra, UniverseParams(4))
    s0, s1 = member_named(uni, "S0"), member_named(uni, "S1")
    checked = 0
    for quot, sub in ((s0, s1), (s1, s0)):
        space = ext1_space(quot, sub)
        for coeffs in itertools.product(range(p), repeat=space.dimension):
            got = space.corners(coeffs)
            for ai, (u, w) in enumerate(algebra.quiver.ends):
                want = [
                    [sum(c * b[ai].entry(i, j) for c, b in zip(coeffs, space.basis)) % p for j in range(quot.dim[u])]
                    for i in range(sub.dim[w])
                ]
                assert got[ai].tolist() == want
            assert space.corners(coeffs) is got
            checked += 1
    assert checked == 1 + {"kron2": p ** 2, "beilinson2": p ** 3}[algebra_id]


def test_pair_middles_plans_once(kron_universe, monkeypatch):
    from syzex import extdim

    calls = []
    real = extdim._orbit_plan

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(extdim, "_orbit_plan", counted)
    s0, s1 = member_named(kron_universe, "S0"), member_named(kron_universe, "S1")
    # Ext^1(S0, S1) = k^2 realizes P0; Ext^1(S1, S0) = 0 has no representative
    middles = extdim._pair_middles(kron_universe, ((s1, 2),), ((s0, 1),))
    assert [c.dim for c in middles] == [(1, 2)] and len(calls) == 1
    assert extdim._pair_middles(kron_universe, ((s0, 1),), ((s1, 1),)) == []
    assert len(calls) == 2


def _invertible_combination_exists(m, n):
    """Oracle: scan all nonzero GF(2)-combinations of the Hom(m, n) basis."""
    basis = hom_space(m, n).basis
    for bits in range(1, 2 ** len(basis)):
        mats = None
        for t, h in enumerate(basis):
            if bits >> t & 1:
                mats = h.mats if mats is None else tuple(a.add(b) for a, b in zip(mats, h.mats))
        if all(mt.rank() == mt.nrows for mt in mats):
            return True
    return False


def test_is_iso_matches_exhaustive_hom_scan(kron_universe, five_universe):
    rng = random.Random(7)
    compared = 0
    for uni in (kron_universe, five_universe):
        members = uni.sorted_members()
        for a in members:
            for b in members:
                if a.dim != b.dim or hom_space(a, b).dimension > 12:
                    continue
                assert is_iso(a, b) is _invertible_combination_exists(a, b)
                compared += 1
            twin = conjugate(a, rng)
            assert twin.validate() == []
            assert is_iso(a, twin) is True
            assert is_iso(twin, a) is True
    assert compared >= 60


def test_rep_type_euclidean_b_infinite():
    cert = rep_type_certificate(euclidean_b_algebra(), UniverseParams(5))
    assert cert.verdict == "infinite" and cert.certified and cert.method == "tits_form"


def test_kron_universe_matches_known_classification(kron_universe):
    """Indecomposables of the two-arrow quiver over GF(2), total dim <= 6.

    Closed form: preprojectives (n, n+1) and preinjectives (n+1, n) once
    each; regular tubes indexed by the projective line over GF(2) (three
    rational points plus one closed point of degree 2 and two of degree 3),
    giving per dimension (k, k): k=1: 3, k=2: 3 rational + 1 quadratic = 4,
    k=3: 3 rational + 2 cubic = 5.
    """
    expected = sorted(
        [(0, 1), (1, 2), (2, 3), (1, 0), (2, 1), (3, 2)]
        + [(1, 1)] * 3
        + [(2, 2)] * 4
        + [(3, 3)] * 5
    )
    assert sorted(c.dim for c in kron_universe.members) == expected


def test_universe_over_gf3():
    from syzex.corpus import corpus_algebra

    algebra = corpus_algebra("kron2", field_p=3)
    uni = generate_universe(algebra, UniverseParams(4))
    # same shape over GF(3): P^1(F_3) has four rational points and three
    # quadratic ones, so (1,1) has multiplicity 4 and (2,2) has 4 + 3
    counts = {}
    for c in uni.members:
        counts[c.dim] = counts.get(c.dim, 0) + 1
    assert counts[(1, 1)] == 4
    assert counts[(2, 2)] == 7
    assert counts[(1, 2)] == 1 and counts[(2, 1)] == 1


@pytest.mark.parametrize("entry", ["kron2", "nodeA"])
def test_window_order_unchanged_under_byte_per_entry_keys(monkeypatch, entry):
    # GF(2) keys pack entries as bits; members of equal dimension vector must
    # sort as they did when each entry took one byte
    from syzex.corpus import corpus_algebra
    from syzex.linalg import Matrix

    def members():
        uni = generate_universe(corpus_algebra(entry), UniverseParams(6))
        return [(c.dim, c.action) for c in uni.sorted_members()]

    packed = members()
    monkeypatch.setattr(Matrix, "key", lambda m: bytes(x for i in range(m.nrows) for x in m.row(i)))
    assert members() == packed


@pytest.mark.parametrize(
    "entry, p, d, mult_bound, left, right, n",
    [
        ("kron2", 2, 6, 3, "S1", "S0", None),
        ("kron2", 3, 4, 3, "S1", "S0", None),
        ("kron2", 2, 5, 2, "S0,S1", None, 3),
    ],
)
def test_two_sided_plan_matches_one_sided_plan(monkeypatch, entry, p, d, mult_bound, left, right, n):
    """Building a middle for every one-sided representative, as the plan
    once did, gives the same bullet or layer: the same members, and every
    class interned in the same order with the same representative."""
    from syzex import extdim
    from syzex.corpus import corpus_algebra

    real_middle = extdim.extension_middle

    def run():
        # a fresh algebra each run: the middles' factors are memoized on it
        built = []
        monkeypatch.setattr(extdim, "extension_middle", lambda *a: built.append(1) or real_middle(*a))
        uni = generate_universe(corpus_algebra(entry, p), UniverseParams(d, mult_bound=mult_bound))
        built.clear()
        gens = [member_named(uni, name) for name in left.split(",")]
        got = layer(uni, gens, n) if n else bullet(uni, gens, [member_named(uni, right)])
        interned = {id(c): c for c in uni.registry.by_key.values()}.values()
        return [c.key() for c in sorted(got, key=sort_key)], [c.key() for c in interned], len(built)

    members, interned, built = run()
    monkeypatch.setattr(extdim, "_orbit_leaders", lambda combos, moves: combos)
    ref_members, ref_interned, ref_built = run()
    assert members == ref_members
    assert interned == ref_interned
    assert built < ref_built


def test_two_sided_plan_builds_one_middle_per_orbit(monkeypatch):
    """S1^3 by S0^3 over GF(2): the 1,395 one-sided representatives (3-dim
    subspaces of Ext^1(S0^3, S1) = k^6) fall into 32 orbits of GL_3 on the
    quotient copies, one middle each; the budget still counts the one-sided
    representatives, and refuses them before any middle is built."""
    from syzex import extdim
    from syzex.errors import BudgetExceeded
    from syzex.extdim import Universe

    built = []
    real = extdim.extension_middle
    monkeypatch.setattr(extdim, "extension_middle", lambda *a: built.append(1) or real(*a))
    for budget, middles in ((1395, 32), (1394, 0)):
        # a fresh algebra per budget: the middles' factors are memoized on it
        uni = Universe(build_algebra(kron2_spec()), UniverseParams(6, ext_budget=budget))
        pair = (((member_named(uni, "S1"), 3),), ((member_named(uni, "S0"), 3),))
        built.clear()
        if middles:
            extdim._pair_middles(uni, *pair)
        else:
            message = "^1395 extension-class representatives for one pair exceed budget 1394$"
            with pytest.raises(BudgetExceeded, match=message):
                extdim._pair_middles(uni, *pair)
        assert len(built) == middles


def rref_rows_by_slots(p, nrows, ncols):
    """Every full-rank RREF as tuples of coefficient rows, one product over
    all the free slots of each pivot set: the enumeration order the row-layout
    pools must keep."""
    import itertools

    for pivots in itertools.combinations(range(ncols), nrows):
        slots = [(i, c) for i in range(nrows) for c in range(pivots[i] + 1, ncols) if c not in pivots]
        for vals in itertools.product(range(p), repeat=len(slots)):
            rows = [[int(c == pivots[i]) for c in range(ncols)] for i in range(nrows)]
            for (i, c), v in zip(slots, vals):
                rows[i][c] = v
            yield tuple(tuple(r) for r in rows)


def copy_moves_by_products(p, blocks, copies, pools):
    """_copy_moves the matrix way: each generator's g (x) I_w set out as a
    full matrix from its entries, every pool entry multiplied by it and
    row-reduced by rref."""
    import itertools

    from syzex.extdim import _unit_generator
    from syzex.linalg import Matrix, rref

    if copies == (1,):
        return []
    starts = itertools.accumulate(copies, initial=0)
    acting = [(s, k) for s, k in zip(starts, copies) if any(chunks[s] for _, _, chunks in blocks)]
    single = all(k == 1 for _, k in acting)
    if single and (p == 2 or len(acting) < 2):
        return []
    omega = _unit_generator(p) if p > 2 else None
    gens = []
    for s, k in acting:
        if k > 1:
            gens.append((s, k, lambda a, b: int(a == b) + int((a, b) == (0, 1))))
            gens.append((s, k, lambda a, b, k=k: int(b == (a + 1) % k)))
        if omega and not (single and s == acting[-1][0]):
            gens.append((s, k, lambda a, b: omega if a == b == 0 else int(a == b)))
    if not gens:
        return []
    index = [{rows: i for i, rows in enumerate(pool)} for pool in pools]
    moves = []
    for s, k, g in gens:
        move = []
        for (mult, space, chunks), pool, at in zip(blocks, pools, index):
            w, off = chunks[s], sum(chunks[:s])
            if w == 0:
                move.append(range(len(pool)))
                continue
            full = [[int(a == b) for b in range(space)] for a in range(space)]
            for a, b, t in itertools.product(range(k), range(k), range(w)):
                full[off + a * w + t][off + b * w + t] = g(a, b)
            full = Matrix.from_rows(p, full)
            move.append(tuple(at[rref(Matrix(p, mult, space, rows).mul(full))[0].rows] for rows in pool))
        moves.append(move)
    return moves


def kron2_plans(p):
    """The orbit plans of kron2 multiset pairs over GF(p): copies of one
    class, two single classes, a class with no Ext^1 to the line side, and
    both plan modes."""
    from syzex.extdim import _orbit_plan
    from syzex.homology import ext1_space

    uni = generate_universe(build_algebra(kron2_spec(p)), UniverseParams(3))
    s0, s1 = member_named(uni, "S0"), member_named(uni, "S1")
    m11 = [m for m in uni.sorted_members() if m.dim == (1, 1)]
    m12, m21 = (next(m for m in uni.sorted_members() if m.dim == d) for d in ((1, 2), (2, 1)))
    # a band module with no Ext^1 from another one: its chunk is 0 in that block
    a, b = next((a, b) for a in m11 for b in m11 if not ext1_space(b, a).dimension)
    pairs = [
        (((s1, 2),), ((s0, 3),)),
        (((s1, 3),), ((s0, 2),)),
        (((s1, 1),), ((s0, 1), (a, 1))),
        (((s1, 2),), ((s0, 2), (a, 1))),
        (((s1, 1), (a, 1)), ((s0, 2),)),
        (((s1, 1), (m12, 1)), ((s0, 1), (a, 1))),
        (((s1, 2),), ((s0, 1), (m21, 1))),
        (((a, 2), (s1, 1)), ((s0, 2), (b, 1))),
    ]
    for sub_ms, quot_ms in pairs:
        dims = [[ext1_space(x, y).dimension for x, _ in quot_ms] for y, _ in sub_ms]
        yield _orbit_plan(p, sub_ms, quot_ms, dims)


@pytest.mark.parametrize("p", [2, 3])
def test_rref_pools_list_every_rref_in_slot_order(p):
    """linalg.rref_pool, built per row in the row layout, lists the RREFs of
    each kron2 pool in the order of one product over all free slots."""
    from syzex.linalg import Matrix, rref_pool

    sizes = {(mult, space) for _, blocks, _, _ in kron2_plans(p) for mult, space, _ in blocks}
    assert any(mult > 1 for mult, _ in sizes)
    for mult, space in sorted(sizes) + [(0, 3), (3, 2)]:
        want = [Matrix.from_rows(p, rows).rows for rows in rref_rows_by_slots(p, mult, space)]
        assert rref_pool(p, mult, space) == want


@pytest.mark.parametrize("p", [2, 3])
def test_copy_moves_match_products_on_kron2_pools(p):
    """The copy generators acting on the pools' rows, reduced by linalg's
    reduction, permute each kron2 pool exactly as the full matrices of
    g (x) I_w, their products and rref do: copies of one class (the
    transvection and the shift), two single classes (the scaling over
    GF(3)), a class with no Ext^1 to the line side, and both plan modes."""
    from syzex.extdim import _copy_moves
    from syzex.linalg import rref_pool

    seen = set()
    for mode, blocks, count, copies in kron2_plans(p):
        assert 0 < count <= 1300
        pools = [rref_pool(p, mult, space) for mult, space, _ in blocks]
        got = _copy_moves(p, blocks, copies, pools)
        assert [[tuple(perm) for perm in move] for move in got] == [
            [tuple(perm) for perm in move] for move in copy_moves_by_products(p, blocks, copies, pools)
        ]
        seen.add((mode, len(got)))
        seen.update("idle block" for move in got for perm in move if isinstance(perm, range))
    # the transvection and the shift move both plan modes; over GF(3) the
    # scaling moves two single classes, and one class's generator leaves a block idle
    assert {("rows", 2), ("cols", 2)} <= seen if p == 2 else {("rows", 3), ("cols", 1), "idle block"} <= seen


def test_unit_generator_generates_the_unit_group():
    from syzex.extdim import _unit_generator

    for p in (3, 5, 7, 13, 257):
        g = _unit_generator(p)
        assert len({pow(g, e, p) for e in range(p - 1)}) == p - 1
    assert _unit_generator(2305843009213693951) is None


def test_closure_visits_each_pair_once(monkeypatch):
    """Within one window each (sub, quot, j) reaches _pair_middles at most
    once; a class paired with itself is one pair, not two."""
    from collections import Counter

    from syzex import extdim

    seen = Counter()
    real = extdim._pair_middles

    def counted(uni, sub_ms, quot_ms):
        ((sub, j),), ((quot, _),) = sub_ms, quot_ms
        seen[id(sub), id(quot), j] += 1
        return real(uni, sub_ms, quot_ms)

    monkeypatch.setattr(extdim, "_pair_middles", counted)
    algebra = build_algebra(load_corpus("nodeA").spec)
    generate_universe(algebra, UniverseParams(6))
    assert seen and max(seen.values()) == 1
    assert any(sub == quot for sub, quot, _ in seen)


def test_hom_cache_keeps_no_hom_objects():
    """After a whole ed run, every cached Hom basis holds its flat rows and
    no Hom cut from them."""
    from syzex.rep import Hom, HomBasis

    def holds_hom(x):
        return isinstance(x, Hom) or isinstance(x, (tuple, list)) and any(map(holds_hom, x))

    algebra = build_algebra(load_corpus("nodeA").spec)
    ed_report(algebra, [0, 1, 2], UniverseParams(6), algebra_id="nodeA")
    cached = list(algebra._memo["hom"].values())
    assert len(cached) > 450
    for hb in cached:
        assert isinstance(hb, HomBasis)
        assert not any(holds_hom(x) for x in vars(hb).values())
