import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import build_oracle
from syzex.algebra import AlgebraSpec, build_algebra, parse_algebra_spec
from syzex.corpus import corpus_ids, load_corpus
from syzex.errors import (
    NonHomogeneousRelation,
    NonParallelRelation,
    NotFiniteDimensional,
    SpecError,
)
from syzex.extdim import tits_classification
from syzex.linalg import Matrix


def beilinson_degree2_oracle():
    """Rank of the degree-2 relation slice, computed on raw monomials.

    Monomials x_i^(1) x_j^(2) indexed by (i, j); relations are
    e_{ij} - e_{ji} for i < j.
    """
    idx = {(i, j): 3 * i + j for i in range(3) for j in range(3)}
    rows = []
    for i in range(3):
        for j in range(i + 1, 3):
            row = [0] * 9
            row[idx[(i, j)]] = 1
            row[idx[(j, i)]] = 1  # -1 over GF(2)
            rows.append(row)
    rank = Matrix.from_rows(2, rows).rank()
    return 9 - rank


def test_kron2_dimension(kron2):
    # e0, e1, x0, x1; no composable pairs
    assert kron2.dim == 4
    assert kron2.dimension_by_length() == {0: 2, 1: 2}


def test_semisimple_dimension(semisimple3):
    assert semisimple3.dim == 3
    assert semisimple3.is_semisimple()


def test_beilinson2_dimension(beilinson2):
    assert beilinson_degree2_oracle() == 6
    assert beilinson2.dim == 3 + 6 + 6
    assert beilinson2.dimension_by_length() == {0: 3, 1: 6, 2: 6}


def test_loewy_lengths(kron2, semisimple3, beilinson2, dualnumbers):
    assert semisimple3.loewy_length() == 1
    assert kron2.loewy_length() == 2
    assert beilinson2.loewy_length() == 3
    assert dualnumbers.loewy_length() == 2


def test_projective_dimensions_kron2(kron2):
    p1 = kron2.projective(kron2.quiver.vindex["1"])
    assert p1.dim == (0, 1)
    p0 = kron2.projective(kron2.quiver.vindex["0"])
    assert p0.dim == (1, 2)


def test_injective_dimensions_kron2(kron2):
    i0 = kron2.injective(kron2.quiver.vindex["0"])
    assert i0.dim == (1, 0)
    i1 = kron2.injective(kron2.quiver.vindex["1"])
    assert i1.dim == (2, 1)


def test_semisimple_projective_injective_simple(semisimple3):
    for v in range(3):
        assert semisimple3.projective(v).dim == semisimple3.simple(v).dim
        assert semisimple3.injective(v).dim == semisimple3.simple(v).dim


def test_opposite_kron2(kron2):
    opp = kron2.opposite()
    assert opp.dim == 4
    assert opp.quiver.arrows[0].source == "1"
    assert opp.opposite() is kron2


def test_opposite_involution_beilinson(beilinson2):
    opp = beilinson2.opposite()
    assert opp.dim == 15
    double = opp.opposite()
    assert double is beilinson2
    # independent rebuild agrees with the canonical serialization
    rebuilt = build_algebra(parse_algebra_spec(beilinson2.spec.to_json()))
    assert rebuilt.spec.to_json() == beilinson2.spec.to_json()
    assert rebuilt.basis == beilinson2.basis


def _product(algebra, i, j):
    """Structure constants: basis[i] * basis[j] expanded in the basis."""
    s1, a1, t1 = algebra.basis[i]
    s2, a2, _ = algebra.basis[j]
    return algebra.reduce_path(s1, a1 + a2) if t1 == s2 else {}


def test_mult_table_associative(kron2, beilinson2, fivevertex):
    for algebra in (kron2, beilinson2, fivevertex):
        p = algebra.p
        n = algebra.dim
        for i, j, k in itertools.product(range(n), repeat=3):
            left = {}
            for m, c in _product(algebra, i, j).items():
                for t, d in _product(algebra, m, k).items():
                    left[t] = (left.get(t, 0) + c * d) % p
            right = {}
            for m, c in _product(algebra, j, k).items():
                for t, d in _product(algebra, i, m).items():
                    right[t] = (right.get(t, 0) + c * d) % p
            assert {t: c for t, c in left.items() if c} == {t: c for t, c in right.items() if c}


def test_projectives_sum_to_algebra_dim(kron2, beilinson2, fivevertex, dualnumbers):
    for algebra in (kron2, beilinson2, fivevertex, dualnumbers):
        total = sum(algebra.projective(v).total_dim for v in range(algebra.n_vertices))
        assert total == algebra.dim


def test_loewy_length_opposite_invariant(kron2, beilinson2, fivevertex):
    for algebra in (kron2, beilinson2, fivevertex):
        assert algebra.loewy_length() == algebra.opposite().loewy_length()


def test_relations_vanish_on_projectives(beilinson2, fivevertex):
    for algebra in (beilinson2, fivevertex):
        for v in range(algebra.n_vertices):
            assert algebra.projective(v).validate() == []
            assert algebra.injective(v).validate() == []


def test_non_homogeneous_relation_rejected():
    spec = AlgebraSpec(
        2,
        ["1", "2"],
        [{"name": "a", "from": "1", "to": "2"}, {"name": "b", "from": "2", "to": "2"}],
        [[{"coeff": 1, "path": ["a", "b"]}, {"coeff": 1, "path": ["a", "b", "b"]}]],
    )
    with pytest.raises(NonHomogeneousRelation):
        build_algebra(spec)


def test_non_parallel_relation_rejected():
    spec = AlgebraSpec(
        2,
        ["1", "2", "3"],
        [
            {"name": "a", "from": "1", "to": "2"},
            {"name": "b", "from": "2", "to": "3"},
            {"name": "c", "from": "2", "to": "2"},
        ],
        [[{"coeff": 1, "path": ["a", "b"]}, {"coeff": 1, "path": ["a", "c"]}]],
    )
    with pytest.raises(NonParallelRelation):
        build_algebra(spec)


def test_length_one_relation_rejected():
    spec = AlgebraSpec(2, ["1"], [{"name": "x", "from": "1", "to": "1"}], [[{"coeff": 1, "path": ["x"]}]])
    with pytest.raises(NonHomogeneousRelation):
        build_algebra(spec)


def test_non_composable_path_rejected():
    spec = AlgebraSpec(
        2,
        ["1", "2"],
        [{"name": "a", "from": "1", "to": "2"}],
        [[{"coeff": 1, "path": ["a", "a"]}]],
    )
    with pytest.raises(SpecError):
        build_algebra(spec)


def test_loop_without_relations_not_finite():
    spec = AlgebraSpec(2, ["1"], [{"name": "x", "from": "1", "to": "1"}], [])
    with pytest.raises(NotFiniteDimensional):
        build_algebra(spec)


def test_spec_roundtrip(kron2):
    text = kron2.spec.to_json()
    again = parse_algebra_spec(text)
    assert again.to_json() == text


# -- the build against the entry-by-entry oracle ---------------------------

ORACLE_PRIMES = (2, 3, 5, 257, 2305843009213693951)


def opposite_spec(spec):
    return AlgebraSpec(
        spec.field_p,
        list(spec.vertices),
        [{"name": a["name"], "from": a["to"], "to": a["from"]} for a in spec.arrows],
        [[{"coeff": t["coeff"], "path": list(reversed(t["path"]))} for t in rel] for rel in spec.relations],
    )


def assert_same_build(got, want):
    """Equal basis, nil degree and reduce maps, keys and expansions in the
    same insertion order."""
    assert got.basis == want.basis
    assert got.nil_degree == want.nil_degree
    assert list(got.reduce_maps) == list(want.reduce_maps)
    for key, expansion in want.reduce_maps.items():
        assert list(got.reduce_maps[key].items()) == list(expansion.items()), key


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("cid", corpus_ids())
def test_build_matches_oracle_on_corpus(cid, p):
    spec = load_corpus(cid, p).spec
    for s in (spec, opposite_spec(spec)):
        got, want = build_algebra(s), build_oracle.build_algebra(s)
        assert_same_build(got, want)
        # no corpus relation repeats a path, so merging terms changes none
        assert got.relations == want.relations


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("cid", corpus_ids())
def test_projectives_match_oracle(cid, p):
    algebra = build_algebra(load_corpus(cid, p).spec)
    for a in (algebra, algebra.opposite()):
        for v in range(a.n_vertices):
            assert a.projective(v).action == build_oracle.projective_matrices(a, v)


def _paths(arrows, max_len):
    """Every composable path of length 1..max_len as a tuple of arrow indices."""
    out = [(k,) for k in range(len(arrows))]
    frontier = out
    for _ in range(max_len - 1):
        frontier = [q + (k,) for q in frontier for k, (s, _) in enumerate(arrows) if s == arrows[q[-1]][1]]
        out = out + frontier
    return out


@st.composite
def small_specs(draw):
    """Small quivers whose arrows go up in vertex order, with at most one
    loop at a vertex, so that each length has few paths; each loop's square
    is a relation, but now and then it is left out and the build runs to
    its length cap.  Relations of 1-3 terms on parallel paths of one
    length, paths repeated at times and coefficients often multiples of p;
    and now and then a relation mixing any paths, which both builds refuse.
    (Two loops at one vertex would give 2^l paths of length l: all are
    enumerated, so such builds take seconds and gigabytes.)"""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=4).filter(
        lambda a: all(a.count((v, v)) <= 1 for v in range(n))))
    names = ["a%d" % k for k in range(len(arrows))]
    paths = _paths(arrows, 3)
    coeffs = st.integers(-2 * p, 2 * p) | st.sampled_from((0, p, -p, 2 * p, 1))
    relations = [
        [{"coeff": 1, "path": [names[k], names[k]]}]
        for k, (s, t) in enumerate(arrows) if s == t and draw(st.integers(0, 4))
    ]
    classes = {}
    for q in paths:
        if len(q) >= 2:
            classes.setdefault((arrows[q[0]][0], arrows[q[-1]][1], len(q)), []).append(q)
    for _ in range(draw(st.integers(0, 4))):
        if classes and draw(st.integers(0, 9)):
            group = classes[draw(st.sampled_from(sorted(classes)))]
        elif paths:
            group = paths
        else:
            break
        terms = draw(st.lists(st.sampled_from(group), min_size=1, max_size=3))
        relations.append([{"coeff": draw(coeffs), "path": [names[k] for k in q]} for q in terms])
    relations = draw(st.permutations(relations))
    return AlgebraSpec(
        p,
        ["v%d" % v for v in range(n)],
        [{"name": name, "from": "v%d" % s, "to": "v%d" % t} for name, (s, t) in zip(names, arrows)],
        relations,
    )


def build_outcome(build, spec):
    """The algebra, or the type and message of the error the build raised."""
    try:
        return build(spec)
    except (SpecError, NotFiniteDimensional) as exc:
        return type(exc), str(exc)


# ab = -2 cb over GF(5): a reduce map, and so P(1)'s matrix for b, holds a 3
ODD_COEFFICIENT = AlgebraSpec(
    5,
    ["1", "2", "3"],
    [{"name": "a", "from": "1", "to": "2"}, {"name": "c", "from": "1", "to": "2"}, {"name": "b", "from": "2", "to": "3"}],
    [[{"coeff": 1, "path": ["a", "b"]}, {"coeff": 2, "path": ["c", "b"]}]],
)


@settings(max_examples=200, deadline=None)
@given(small_specs())
@example(ODD_COEFFICIENT)
def test_build_matches_oracle_on_random_quivers(spec):
    got = build_outcome(build_algebra, spec)
    want = build_outcome(build_oracle.build_algebra, spec)
    if isinstance(want, tuple):
        assert got == want
        return
    assert_same_build(got, want)
    for a in (got, got.opposite()):
        for v in range(a.n_vertices):
            assert a.projective(v).action == build_oracle.projective_matrices(a, v)
    # each kept relation has distinct paths and nonzero coefficients
    for r in got.relations:
        assert r.terms and all(0 < c < spec.field_p for c, _ in r.terms)
        assert len({q for _, q in r.terms}) == len(r.terms)


# -- relations whose terms cancel ------------------------------------------

def line_spec(p, relation, extra_arrows=()):
    """1 -a-> 2 -b-> 3 with one relation, and extra arrows if any."""
    arrows = [{"name": "a", "from": "1", "to": "2"}, {"name": "b", "from": "2", "to": "3"}]
    return AlgebraSpec(p, ["1", "2", "3"], arrows + list(extra_arrows), [relation])


@pytest.mark.parametrize("p,relation", [
    (3, [{"coeff": 1, "path": ["a", "b"]}, {"coeff": -1, "path": ["a", "b"]}]),
    (2, [{"coeff": 1, "path": ["a", "b"]}, {"coeff": 1, "path": ["a", "b"]}]),
    (5, [{"coeff": 5, "path": ["a", "b"]}]),
])
def test_cancelling_relation_is_dropped(p, relation):
    a3 = build_algebra(line_spec(p, relation))
    assert a3.relations == () and a3.is_hereditary()
    assert a3.dim == 6
    assert tits_classification(a3) == "Dynkin"
    # the triangle 1 -> 2 -> 3, 1 -> 3 is the Euclidean quiver of type A~2
    triangle = build_algebra(line_spec(p, relation, [{"name": "c", "from": "1", "to": "3"}]))
    assert triangle.is_hereditary()
    assert tits_classification(triangle) == "Euclidean"


def test_terms_on_one_path_merge():
    algebra = build_algebra(line_spec(3, [{"coeff": 1, "path": ["a", "b"]}, {"coeff": 1, "path": ["a", "b"]}]))
    assert [r.terms for r in algebra.relations] == [((2, (0, 1)),)]
    assert algebra.dim == 5 and not algebra.is_hereditary()
