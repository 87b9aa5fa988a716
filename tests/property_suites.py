"""Randomized property suites shared by test_properties and the acceptance run.

Every suite runs seeded, exact-assertion instances over the corpus algebras
and returns the instance count.  Layer and bullet checks pick their
multiplicity and part bounds per instance so that the witnessing exact
sequences of each statement are inside the enumerated window; dimension
filters keep witnesses below the window bound, never the other way around.
"""

from __future__ import annotations

import itertools
import random

from syzex.algebra import build_algebra
from syzex.corpus import corpus_algebra, load_corpus
from syzex.errors import BudgetExceeded
from syzex.extdim import (
    UniverseParams,
    bullet,
    ed_report,
    generate_universe,
    layer,
    syzygy_category,
)
from syzex.homology import (
    cosyzygy,
    ext1_space,
    extension_middle,
    pd_bounded,
    projective_cover,
    syzygy,
)
from syzex.linalg import Matrix
from syzex.rep import decompose, direct_sum, is_iso, sort_key


def class_coords(space) -> list:
    """Every coordinate tuple of an Ext^1 space, in itertools.product order."""
    return list(itertools.product(range(space.X.algebra.p), repeat=space.dimension))


def class_middle(space, coords):
    """Middle term of the class with these coordinates through the library's
    corner blocks and block builder."""
    return extension_middle((space.Y,), (space.X,), ((space.corners(coords),),))


def entry_grid(p, grid) -> Matrix:
    """Reference block matrix written entry by entry: grid[i][j] is the block
    in block row i and block column j."""
    rows = [[x for m in block_row for x in m.row(r)] for block_row in grid for r in range(block_row[0].nrows)]
    return Matrix.from_rows(p, rows) if rows else Matrix.zero(p, 0, sum(m.ncols for m in grid[0]))


def block_diag(p, mats) -> Matrix:
    """Reference block-diagonal matrix, written entry by entry."""
    return entry_grid(
        p, [[m if i == j else Matrix.zero(p, m.nrows, n.ncols) for j, n in enumerate(mats)] for i, m in enumerate(mats)]
    )


class Bench:
    """Shared universes over the default property-suite roster."""

    ROSTER = (  # (corpus id, window dim bound, field)
        ("kron2", 6, 2),
        ("fivevertex", 8, 2),
        ("euclideanB", 5, 2),
        ("dualnumbers", 4, 2),
        ("nodeB", 6, 2),
        ("kron2", 4, 3),
    )

    def __init__(self):
        from syzex.algebra import AlgebraSpec

        self.universes = []
        for cid, d, p in self.ROSTER:
            algebra = corpus_algebra(cid, p)
            self.universes.append((cid, generate_universe(algebra, UniverseParams(d))))
        semisimple = build_algebra(AlgebraSpec(2, ["a", "b", "c"], [], []))
        self.universes.append(("semisimple3", generate_universe(semisimple, UniverseParams(3))))

    def pick(self, rng):
        return self.universes[rng.randrange(len(self.universes))]

    def subset(self, rng, uni, lo=1, hi=2):
        members = uni.sorted_members()
        k = rng.randint(lo, min(hi, len(members)))
        return frozenset(rng.sample(members, k))


def _summand_classes(uni, rep):
    if rep.total_dim == 0:
        return frozenset(), []
    out = []
    for f, mult in decompose(rep).factors:
        cls, _ = uni.registry.intern(f)
        out.append((cls, mult))
    return frozenset(c for c, _ in out), out


def _caps_for(parts_with_mult):
    parts = len(parts_with_mult)
    mult = max((m for _, m in parts_with_mult), default=1)
    return max(2, mult), max(2, parts)


def suite_bullet_split_inclusion(bench, n=125):
    ran = 0
    for seed in range(n):
        rng = random.Random(11_000 + seed)
        _, uni = bench.pick(rng)
        s1 = bench.subset(rng, uni)
        s2 = bench.subset(rng, uni)
        got = bullet(uni, s1, s2)
        assert s1 | s2 <= got
        ran += 1
    return ran


def suite_sum_lemma(bench, n=125):
    # [T1]_1 bullet [T2]_k lies in [T1 + T2]_{k+1}
    ran = 0
    for seed in range(n):
        rng = random.Random(12_000 + seed)
        _, uni = bench.pick(rng)
        t1 = bench.subset(rng, uni)
        t2 = bench.subset(rng, uni)
        k = rng.choice((1, 2))
        lhs = bullet(uni, t1, layer(uni, t2, k))
        rhs = layer(uni, t1 | t2, k + 1)
        assert lhs <= rhs
        ran += 1
    return ran


def suite_max_lemma(bench, n=125):
    # members of [T1]_m and [T2]_k lie in [T1 + T2]_{max(m, k)}
    ran = 0
    for seed in range(n):
        rng = random.Random(13_000 + seed)
        _, uni = bench.pick(rng)
        t1 = bench.subset(rng, uni)
        t2 = bench.subset(rng, uni)
        m, k = rng.choice(((1, 2), (2, 1), (2, 2), (1, 3)))
        lhs = layer(uni, t1, m) | layer(uni, t2, k)
        rhs = layer(uni, t1 | t2, max(m, k))
        assert lhs <= rhs
        ran += 1
    return ran


def suite_resolution_membership(bench):
    """Minimal resolution 0 -> M2 -> M1 -> M0 -> X -> 0 puts X in the chain
    [M0]_1 bullet [M1-cosyzygy]_1 bullet [M2-double-cosyzygy]_1."""
    ran = 0
    for cid, uni in bench.universes:
        d = uni.dim_bound
        for x in uni.sorted_members():
            pd = pd_bounded(x, 2)
            if pd is None:
                continue
            pres0 = projective_cover(x)
            m0 = pres0.cover
            pieces = [m0]
            if pd >= 1 and pres0.kernel.total_dim:
                m1 = projective_cover(pres0.kernel).cover
                pieces.append(cosyzygy(m1, 1))
                if pd == 2:
                    m2 = syzygy(x, 2)
                    pieces.append(cosyzygy(m2, 2))
            if sum(p.total_dim for p in pieces) > d:
                continue
            sets = []
            ok = True
            for piece in pieces:
                members, with_mult = _summand_classes(uni, piece)
                if any(c.total_dim > d for c in members):
                    ok = False
                    break
                sets.append((members, with_mult))
            if not ok:
                continue
            for extra in (0, 1, 2):
                chain = None
                for members, with_mult in reversed(sets):
                    if not members:
                        continue
                    mb, pc = _caps_for(with_mult)
                    if chain is None:
                        chain = members
                    else:
                        chain = bullet(uni.with_bullet_bounds(mb + extra, max(pc, 3)), members, chain)
                assert chain is not None and x in chain, (
                    "resolution membership failed for %s dim %s" % (cid, x.dim)
                )
                ran += 1
    return ran


def suite_syzygy_of_layer(bench):
    """Horseshoe form of the syzygy-of-layer lemma, m in {1, 2}:
    summands of Omega^m(middle) lie in the bullet of the Omega^m sides."""
    ran = 0
    for cid, uni in bench.universes:
        d = uni.dim_bound
        rng = random.Random(15_000)
        members = uni.sorted_members()
        pairs = [(a, b) for a in members for b in members]
        rng.shuffle(pairs)
        done = 0
        for sub_cls, quot_cls in pairs:
            if done >= 14:
                break
            if sub_cls.total_dim + quot_cls.total_dim > d:
                continue
            space = ext1_space(quot_cls, sub_cls)
            if space.dimension == 0 or uni.algebra.p ** space.dimension > 64:
                continue
            for coords in class_coords(space):
                middle = class_middle(space, coords)
                for m in (1, 2):
                    om_mid = syzygy(middle, m)
                    if om_mid.total_dim == 0:
                        continue
                    om_sub = syzygy(sub_cls, m)
                    om_quot = syzygy(quot_cls, m)
                    left, left_mult = _summand_classes(uni, om_sub)
                    right, right_mult = _summand_classes(uni, om_quot)
                    for v in range(uni.algebra.n_vertices):
                        pv, _ = uni.registry.intern(uni.algebra.projective(v))
                        left |= {pv}
                        right |= {pv}
                    if any(c.total_dim > d for c in left | right):
                        continue
                    target, target_mult = _summand_classes(uni, om_mid)
                    if any(c.total_dim > d for c in target):
                        continue
                    mb = max(3, max((m2 for _, m2 in left_mult + right_mult), default=1))
                    pc = max(3, len(left), len(right))
                    got = bullet(uni.with_bullet_bounds(mb, pc), left, right)
                    assert target <= got, (
                        "syzygy-of-layer failed for %s: %s not inside" % (cid, [c.dim for c in target - got])
                    )
                    ran += 1
            done += 1
    return ran


def suite_bullet_inequality(bench, n=125):
    # witnesses C inside [TC]_1, D inside [TD]_{k+1} give
    # bullet(C, D) inside [TC + TD]_{k+2}
    ran = 0
    for seed in range(n):
        rng = random.Random(16_000 + seed)
        _, uni = bench.pick(rng)
        tc = bench.subset(rng, uni)
        td = bench.subset(rng, uni)
        k = rng.choice((0, 1))
        d_layer = layer(uni, td, k + 1)
        c = frozenset(rng.sample(sorted(tc, key=sort_key), rng.randint(1, len(tc))))
        d_set = frozenset(rng.sample(sorted(d_layer, key=sort_key), min(2, len(d_layer))))
        got = bullet(uni, c, d_set)
        target = layer(uni, tc | td, k + 2)
        assert got <= target
        ran += 1
    return ran


def suite_layer_monotone(bench, n=125):
    ran = 0
    for seed in range(n):
        rng = random.Random(17_000 + seed)
        _, uni = bench.pick(rng)
        t = bench.subset(rng, uni)
        n_lay = rng.choice((1, 2, 3))
        assert layer(uni, t, n_lay) <= layer(uni, t, n_lay + 1)
        ran += 1
    return ran


def suite_syzcat_nesting(bench):
    ran = 0
    extra = [
        ("nodeA", generate_universe(corpus_algebra("nodeA"), UniverseParams(6))),
        ("beilinson2", generate_universe(corpus_algebra("beilinson2"), UniverseParams(2))),
    ]
    for cid, uni in list(bench.universes) + extra:
        algebra = uni.algebra
        cats = {i: syzygy_category(uni, i) for i in (1, 2, 3, 4)}
        for i in (1, 2, 3):
            bigger = cats[i]
            smaller = cats[i + 1]
            allowed = set()
            for c in bigger.members:
                om = syzygy(c, 1)
                allowed |= _summand_classes(uni, om)[0]
            for v in range(algebra.n_vertices):
                pv, _ = uni.registry.intern(algebra.projective(v))
                allowed.add(pv)
            for c in smaller.members:
                assert projective_cover(c).kernel.total_dim == 0 or c in allowed
                ran += 1
    return ran


def suite_duality_layer(bench, n=125):
    from syzex.homology import duality

    ran = 0
    caches = {}
    for seed in range(n):
        rng = random.Random(18_000 + seed)
        _, uni = bench.pick(rng)
        if id(uni) not in caches:
            caches[id(uni)] = generate_universe(uni.algebra.opposite(), UniverseParams(uni.dim_bound))
        opp_uni = caches[id(uni)]
        t = bench.subset(rng, uni, 1, 2)
        d = uni.dim_bound
        lay = layer(uni.with_bullet_bounds(d, 2), t, 2)
        dual_t = frozenset(opp_uni.registry.intern(duality(c))[0] for c in t)
        dual_lay = layer(opp_uni.with_bullet_bounds(d, 2), dual_t, 2)
        for c in lay:
            dc, _ = opp_uni.registry.intern(duality(c))
            assert dc in dual_lay, "duality image escaped the dual layer"
            ran += 1
    return ran


def suite_krull_schmidt(bench, n=125):
    ran = 0
    for seed in range(n):
        rng = random.Random(19_000 + seed)
        _, uni = bench.pick(rng)
        members = uni.sorted_members()
        picks = [rng.choice(members) for _ in range(rng.randint(2, 3))]
        total = direct_sum(picks)
        dec = decompose(total)
        assert sum(f.total_dim * m for f, m in dec.factors) == total.total_dim
        expected = {}
        for c in picks:
            expected[id(c)] = (c, expected.get(id(c), (c, 0))[1] + 1)
        got = {}
        for f, mult in dec.factors:
            cls, _ = uni.registry.intern(f)
            got[id(cls)] = (cls, got.get(id(cls), (cls, 0))[1] + mult)
        assert {k: v[1] for k, v in expected.items()} == {k: v[1] for k, v in got.items()}
        ran += 1
    return ran


def suite_ext_cardinality(bench, n=125):
    ran = 0
    budget_hits = 0
    for seed in range(n):
        rng = random.Random(20_000 + seed)
        _, uni = bench.pick(rng)
        members = uni.sorted_members()
        x = rng.choice(members)
        y = rng.choice(members)
        space = ext1_space(x, y)
        dim = space.dimension
        p = uni.algebra.p
        if p ** dim > 128:
            budget_hits += 1
        else:
            # distinct coordinates are distinct classes: their corners differ
            assert len({space.corners(coords) for coords in class_coords(space)}) == p ** dim
        ran += 1
    assert budget_hits < ran
    return ran


def suite_middle_additivity(bench, n=125):
    """A class's middle through the corner blocks is a module of dimension
    dim X + dim Y, isomorphic to the pushout middle of some class of the
    cover route (all classes when there are at most 32, else the zero
    class, which both bases share)."""
    from ext_oracle import cover_ext1  # ext_oracle imports this module

    ran = 0
    for seed in range(n):
        rng = random.Random(21_000 + seed)
        _, uni = bench.pick(rng)
        members = uni.sorted_members()
        x = rng.choice(members)
        y = rng.choice(members)
        space = ext1_space(x, y)
        oracle = cover_ext1(x, y)
        assert oracle.dimension == space.dimension
        p = uni.algebra.p
        if not space.dimension:
            ran += 1
            continue
        if p ** space.dimension > 32:
            coords = (0,) * space.dimension
            pushouts = [oracle.pushout_middle(coords)]
        else:
            coords = tuple(rng.randrange(p) for _ in range(space.dimension))
            pushouts = [oracle.pushout_middle(c) for c in oracle.classes()]
        blocks = class_middle(space, coords)
        assert blocks.dim == tuple(a + b for a, b in zip(x.dim, y.dim))
        assert blocks.validate() == []
        assert any(is_iso(m, blocks) for m in pushouts)
        ran += 1
    return ran


def suite_engine_monotone(bench, n=100):
    ran = 0
    ids = ["kron2", "fivevertex", "euclideanB", "dualnumbers", "nodeB"]
    base_cache = {}
    for seed in range(n):
        rng = random.Random(22_000 + seed)
        cid = ids[seed % len(ids)]
        if cid not in base_cache:
            algebra = corpus_algebra(cid)
            base = ed_report(algebra, [0, 1, 2, 3], UniverseParams(4))
            base_cache[cid] = (algebra, base)
        algebra, base = base_cache[cid]
        uppers = [iv.upper for iv in base]
        assert all(uppers[i + 1] <= uppers[i] for i in range(len(uppers) - 1))
        pick = rng.choice(base)
        value = rng.randint(pick.lower, pick.upper)
        kind = rng.choice(["exact", "lower", "upper"])
        if kind == "lower":
            value = rng.randint(pick.lower, pick.upper)
        fact = {"i": pick.i, "kind": kind, "value": value, "citation": "suite"}
        refined = ed_report(
            algebra, [0, 1, 2, 3], UniverseParams(4), external_facts=[fact]
        )
        for old, new in zip(base, refined):
            assert new.lower >= old.lower
            assert new.upper <= old.upper
        ran += 1
    return ran


ALL_SUITES = [
    ("bullet split-inclusion", suite_bullet_split_inclusion),
    ("bounded sum-lemma", suite_sum_lemma),
    ("bounded max-lemma", suite_max_lemma),
    ("resolution membership", suite_resolution_membership),
    ("guarded syzygy-of-layer", suite_syzygy_of_layer),
    ("bullet inequality", suite_bullet_inequality),
    ("layer monotonicity", suite_layer_monotone),
    ("syzygy-category nesting", suite_syzcat_nesting),
    ("duality layer image", suite_duality_layer),
    ("Krull-Schmidt reassembly", suite_krull_schmidt),
    ("ext-class cardinality", suite_ext_cardinality),
    ("middle-term additivity", suite_middle_additivity),
    ("engine monotonicity", suite_engine_monotone),
]
