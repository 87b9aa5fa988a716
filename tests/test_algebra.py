import itertools

import pytest

from syzex.algebra import AlgebraSpec, build_algebra, parse_algebra_spec
from syzex.errors import (
    NonHomogeneousRelation,
    NonParallelRelation,
    NotFiniteDimensional,
    SpecError,
)
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
