"""Packaged example algebras.

Relation paths are written source-to-target (the list is the traversal
order).  Where the customary operator notation for a relation is
right-to-left, the composable reading is encoded and the comments field of
the algebra file records the original string.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraSpec, PathAlgebra, build_algebra
from .errors import UnknownCorpusId
from .rep import Representation, direct_sum


@dataclass
class CorpusEntry:
    entry_id: str
    spec: AlgebraSpec
    notes: str
    module_builders: dict = field(default_factory=dict)


def _kron2(p=2):
    spec = AlgebraSpec(
        p,
        ["0", "1"],
        [{"name": "x0", "from": "0", "to": "1"}, {"name": "x1", "from": "0", "to": "1"}],
        [],
        comments=["two parallel arrows 0 -> 1; hereditary, no relations"],
    )
    return CorpusEntry(
        "kron2", spec,
        "Kronecker algebra: hereditary of infinite representation type, global dimension 1.",
    )


def _beilinson(n=2, p=2):
    vertices = [str(v) for v in range(n + 1)]
    arrows = []
    for l in range(1, n + 1):
        for i in range(n + 1):
            arrows.append({"name": "x%d_%d" % (i, l), "from": str(l - 1), "to": str(l)})
    relations = []
    for l in range(1, n):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                relations.append(
                    [
                        {"coeff": 1, "path": ["x%d_%d" % (i, l), "x%d_%d" % (j, l + 1)]},
                        {"coeff": -1, "path": ["x%d_%d" % (j, l), "x%d_%d" % (i, l + 1)]},
                    ]
                )
    spec = AlgebraSpec(
        p, vertices, arrows, relations,
        comments=[
            "commutativity relations x_i^(l) x_j^(l+1) = x_j^(l) x_i^(l+1), encoded source-to-target",
        ],
    )
    return CorpusEntry(
        "beilinson%d" % n, spec,
        "Beilinson-type algebra with %d+1 parallel arrows per step; gldim = %d." % (n, n),
    )


def _fivevertex(p=2):
    arrows = [
        {"name": "alpha", "from": "2", "to": "1"},
        {"name": "beta1", "from": "3", "to": "2"},
        {"name": "beta2", "from": "4", "to": "2"},
        {"name": "beta3", "from": "5", "to": "2"},
    ]
    relations = [[{"coeff": 1, "path": ["beta%d" % i, "alpha"]}] for i in (1, 2, 3)]
    spec = AlgebraSpec(
        p, ["1", "2", "3", "4", "5"], arrows, relations,
        comments=[
            "relations: composable reading of alpha.beta_i = 0, i.e. the paths beta_i then alpha vanish",
        ],
    )

    def tilting(algebra):
        vx = algebra.quiver.vindex
        return direct_sum(
            [
                algebra.simple(vx["2"]),
                algebra.projective(vx["2"]),
                algebra.projective(vx["3"]),
                algebra.projective(vx["4"]),
                algebra.projective(vx["5"]),
            ]
        )

    return CorpusEntry(
        "fivevertex", spec,
        "Representation-finite star: three sources feeding 2, one sink 1; "
        "carries the tilting module T = S2 + P2 + P3 + P4 + P5 of projective dimension 1.",
        {"T": tilting},
    )


def _euclideanB(p=2):
    arrows = [
        {"name": "ab", "from": "a", "to": "b"},
        {"name": "ca", "from": "c", "to": "a"},
        {"name": "da", "from": "d", "to": "a"},
        {"name": "ea", "from": "e", "to": "a"},
    ]
    spec = AlgebraSpec(p, ["a", "b", "c", "d", "e"], arrows, [])
    return CorpusEntry(
        "euclideanB", spec,
        "Hereditary star with Euclidean (affine D4) underlying graph; "
        "infinite representation type, global dimension 1.",
    )


def _nodeA(n=6, p=2):
    if n < 6:
        raise UnknownCorpusId("nodeA requires n >= 6")
    vertices = [str(v) for v in range(1, n + 1)]
    arrows = [
        {"name": "gamma", "from": "1", "to": "1"},
        {"name": "beta", "from": "1", "to": "4"},
    ]
    for i in range(2, n):
        arrows.append({"name": "alpha%d" % i, "from": str(i), "to": str(i + 1)})
    relations = [
        [{"coeff": 1, "path": ["gamma", "gamma"]}],
        [{"coeff": 1, "path": ["gamma", "beta"]}],
    ]
    spec = AlgebraSpec(
        p, vertices, arrows, relations,
        comments=["relations: gamma^2 = 0 and the composable reading of beta.gamma = 0 (gamma then beta)"],
    )
    return CorpusEntry(
        "nodeA", spec,
        "Loop-with-chain algebra (n = %d): the simple at the loop vertex is a node; "
        "all first syzygy categories are representation-finite." % n,
    )


def _nodeB(n=6, p=2):
    if n < 6:
        raise UnknownCorpusId("nodeB requires n >= 6")
    vertices = ["1p"] + [str(v) for v in range(1, n + 1)]
    arrows = [
        {"name": "delta", "from": "1", "to": "1p"},
        {"name": "beta", "from": "1", "to": "4"},
    ]
    for i in range(2, n):
        arrows.append({"name": "alpha%d" % i, "from": str(i), "to": str(i + 1)})
    spec = AlgebraSpec(p, vertices, arrows, [])
    return CorpusEntry(
        "nodeB", spec,
        "Hereditary resolution of nodeA (n = %d): the loop is split into an arrow to a new "
        "vertex; the underlying graph is not Dynkin for n >= 6." % n,
    )


def _bm23(p=2):
    vertices = ["1", "2", "3", "4"]
    arrows = []
    fams = ("a", "abar", "b", "bbar")
    for i in range(1, 5):
        nxt = str(i % 4 + 1)
        for fam in fams:
            arrows.append({"name": "%s%d" % (fam, i), "from": str(i), "to": nxt})
    relations = []
    for i in range(1, 5):
        j = i % 4 + 1
        relations.append(
            [
                {"coeff": 1, "path": ["a%d" % i, "a%d" % j]},
                {"coeff": -1, "path": ["abar%d" % i, "abar%d" % j]},
            ]
        )
        relations.append(
            [
                {"coeff": 1, "path": ["b%d" % i, "b%d" % j]},
                {"coeff": -1, "path": ["bbar%d" % i, "bbar%d" % j]},
            ]
        )
        relations.append([{"coeff": 1, "path": ["a%d" % i, "abar%d" % j]}])
        relations.append([{"coeff": 1, "path": ["abar%d" % i, "a%d" % j]}])
        relations.append([{"coeff": 1, "path": ["b%d" % i, "bbar%d" % j]}])
        relations.append([{"coeff": 1, "path": ["bbar%d" % i, "b%d" % j]}])
    # radical cube zero: every length-3 path vanishes
    for i in range(1, 5):
        j = i % 4 + 1
        k = j % 4 + 1
        for f1 in fams:
            for f2 in fams:
                for f3 in fams:
                    relations.append(
                        [{"coeff": 1, "path": ["%s%d" % (f1, i), "%s%d" % (f2, j), "%s%d" % (f3, k)]}]
                    )
    spec = AlgebraSpec(
        p, vertices, arrows, relations,
        comments=["radical cube zero: all length-3 paths are relations"],
    )
    return CorpusEntry(
        "bm23", spec,
        "Radical-cube-zero cycle with four arrow families per edge. External note: the "
        "infinite-syzygy category consists exactly of the projectives (not computed here); "
        "every finite syzygy category has infinite representation type. Excluded from "
        "default test runs (16 arrows make closures heavy).",
    )


def _xiA(n=2, p=2):
    if n < 2:
        raise UnknownCorpusId("xiA requires loop exponent n >= 2")
    arrows = [
        {"name": "gamma", "from": "1", "to": "2"},
        {"name": "beta", "from": "2", "to": "1"},
        {"name": "delta", "from": "2", "to": "3"},
        {"name": "alpha", "from": "3", "to": "2"},
        {"name": "eps", "from": "3", "to": "3"},
        {"name": "eta", "from": "4", "to": "3"},
    ]
    relations = [
        [{"coeff": 1, "path": ["alpha", "delta", "alpha"]}],
        [{"coeff": 1, "path": ["gamma", "delta"]}],
        [
            {"coeff": 1, "path": ["delta", "alpha"]},
            {"coeff": -1, "path": ["beta", "gamma"]},
        ],
        [{"coeff": 1, "path": ["eps"] * n}],
        [{"coeff": 1, "path": ["delta", "eps"]}],
        [{"coeff": 1, "path": ["eps", "alpha"]}],
        [{"coeff": 1, "path": ["eta", "alpha"]}],
    ]
    spec = AlgebraSpec(
        p, ["1", "2", "3", "4"], arrows, relations,
        comments=[
            "composable reading of the operator-notation relations alpha.delta.alpha, delta.gamma, "
            "alpha.delta - gamma.beta, eps^n, eps.delta, alpha.eps, alpha.eta",
        ],
    )
    return CorpusEntry(
        "xiA", spec,
        "Four-vertex algebra with a loop (exponent %d); syzygy-finite via the monomial "
        "partner xiB." % n,
    )


def _xiB(n=2, p=2):
    if n < 2:
        raise UnknownCorpusId("xiB requires loop exponent n >= 2")
    arrows = [
        {"name": "betap", "from": "1p", "to": "2p"},
        {"name": "gammap", "from": "2p", "to": "3p"},
        {"name": "alphap", "from": "3p", "to": "1p"},
        {"name": "epsp", "from": "3p", "to": "3p"},
        {"name": "etap", "from": "4p", "to": "3p"},
    ]
    relations = [
        [{"coeff": 1, "path": ["alphap", "betap", "gammap", "alphap"]}],
        [{"coeff": 1, "path": ["gammap", "alphap", "betap", "gammap"]}],
        [{"coeff": 1, "path": ["epsp"] * n}],
        [{"coeff": 1, "path": ["gammap", "epsp"]}],
        [{"coeff": 1, "path": ["epsp", "alphap"]}],
        [{"coeff": 1, "path": ["etap", "alphap"]}],
    ]
    spec = AlgebraSpec(
        p, ["1p", "2p", "3p", "4p"], arrows, relations,
        comments=["monomial algebra; composable reading of the operator-notation relations"],
    )
    return CorpusEntry(
        "xiB", spec,
        "Monomial partner of xiA (loop exponent %d); 2-syzygy-finite as a monomial algebra." % n,
    )


def _dualnumbers(p=2):
    spec = AlgebraSpec(
        p, ["1"], [{"name": "x", "from": "1", "to": "1"}], [[{"coeff": 1, "path": ["x", "x"]}]]
    )
    return CorpusEntry(
        "dualnumbers", spec,
        "Dual numbers k[x]/(x^2): self-injective, so the nonprojective simple has "
        "infinite projective dimension.",
    )


_BUILDERS = {
    "kron2": _kron2,
    "beilinson2": lambda p: _beilinson(2, p),
    "fivevertex": _fivevertex,
    "euclideanB": _euclideanB,
    "nodeA": _nodeA,
    "nodeB": _nodeB,
    "bm23": _bm23,
    "xiA": _xiA,
    "xiB": _xiB,
    "dualnumbers": _dualnumbers,
}
_SIZED = ("nodeA", "nodeB", "xiA", "xiB")  # the ids whose builder takes a size n


def corpus_ids() -> list:
    return sorted(_BUILDERS)


def load_corpus(entry_id: str, field_p: int = None) -> CorpusEntry:
    """Packaged spec by id; `nodeA:8` style suffixes set the size parameter
    of the sized ids, and the builder's own bound refuses a size below it."""
    base, colon, param = entry_id.partition(":")
    if base not in _BUILDERS:
        raise UnknownCorpusId("unknown corpus id %r (known: %s)" % (entry_id, ", ".join(corpus_ids())))
    p = field_p if field_p is not None else 2
    if not colon:
        entry = _BUILDERS[base](p=p)
    elif base not in _SIZED:
        raise UnknownCorpusId("corpus id %r: %s takes no size (sized: %s)" % (entry_id, base, ", ".join(_SIZED)))
    else:
        try:
            n = int(param)
        except ValueError:
            raise UnknownCorpusId("corpus id %r: the size after ':' must be an integer" % entry_id) from None
        entry = _BUILDERS[base](n, p=p)
    entry.entry_id = entry_id
    return entry


def corpus_algebra(entry_id: str, field_p: int = None) -> PathAlgebra:
    return build_algebra(load_corpus(entry_id, field_p).spec)


def vertex_module(algebra: PathAlgebra, name: str) -> Representation:
    """The simple, projective or injective module named S<v>, P<v> or I<v>."""
    build = {"S": algebra.simple, "P": algebra.projective, "I": algebra.injective}.get(name[:1])
    v = algebra.quiver.vindex.get(name[1:])
    if build is None or v is None:
        raise UnknownCorpusId("unknown module name %r (S, P or I followed by a vertex label)" % name)
    return build(v)


def named_module(entry: CorpusEntry, algebra: PathAlgebra, name: str) -> Representation:
    """Resolve S<v>/P<v>/I<v> or an entry-specific named module like T."""
    if name in entry.module_builders:
        return entry.module_builders[name](algebra)
    return vertex_module(algebra, name)
