"""Path algebras kQ/I with admissible, length-homogeneous relations.

The basis of the quotient algebra is computed degree by degree: paths of
length l between a fixed (source, target) pair are reduced modulo the
degree-l slice of the two-sided ideal generated by the relations.  Loewy
length falls out as the first degree whose slice reduces to zero.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field

from . import linalg
from .errors import (
    NonHomogeneousRelation,
    NonParallelRelation,
    NotFiniteDimensional,
    SpecError,
)

LENGTH_CAP = 30
PATH_BUDGET = 200_000


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise SpecError("duplicate vertex labels")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise SpecError("duplicate arrow names")
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        for a in self.arrows:
            if a.source not in self.vindex or a.target not in self.vindex:
                raise SpecError("arrow %r has undeclared endpoint" % a.name)
        self.aindex = {a.name: i for i, a in enumerate(self.arrows)}
        self.n_vertices = len(self.vertices)
        self.arrows_by_source = [[] for _ in self.vertices]
        for i, a in enumerate(self.arrows):
            self.arrows_by_source[self.vindex[a.source]].append(i)

    def arrow_source(self, i):
        return self.vindex[self.arrows[i].source]

    def arrow_target(self, i):
        return self.vindex[self.arrows[i].target]


@dataclass(frozen=True)
class Relation:
    """Sum of coeff * path terms; paths are arrow-index tuples in traversal order."""

    terms: tuple  # ((coeff, arrow_idx_tuple), ...)
    source: int
    target: int
    length: int


@dataclass
class AlgebraSpec:
    field_p: int
    vertices: list
    arrows: list  # list of dicts {"name","from","to"}
    relations: list  # list of lists of {"coeff","path"}
    comments: list = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "field": self.field_p,
            "vertices": list(self.vertices),
            "arrows": [{"name": a["name"], "from": a["from"], "to": a["to"]} for a in self.arrows],
            "relations": [
                [{"coeff": t["coeff"], "path": list(t["path"])} for t in rel] for rel in self.relations
            ],
        }
        if self.comments:
            doc["comments"] = list(self.comments)
        return json.dumps(doc, indent=2) + "\n"


def parse_algebra_spec(text: str) -> AlgebraSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("invalid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise SpecError("algebra spec must be a JSON object")
    for key in ("field", "vertices", "arrows", "relations"):
        if key not in doc:
            raise SpecError("algebra spec missing %r" % key)
    for key in ("vertices", "arrows", "relations", "comments"):
        if not isinstance(doc.get(key, []), list):
            raise SpecError("algebra spec %r must be a list" % key)
    p = doc["field"]
    if not isinstance(p, int) or not linalg.is_prime(p):
        raise SpecError("field must be a prime integer, got %r" % p)
    arrows = []
    for a in doc["arrows"]:
        if not isinstance(a, dict) or set(a) != {"name", "from", "to"} or not all(isinstance(x, str) for x in a.values()):
            raise SpecError("bad arrow entry %r" % (a,))
        arrows.append({"name": a["name"], "from": a["from"], "to": a["to"]})
    relations = []
    for rel in doc["relations"]:
        if not isinstance(rel, list):
            raise SpecError("bad relation %r" % (rel,))
        terms = []
        for t in rel:
            if not isinstance(t, dict) or not isinstance(t.get("coeff"), int) or not isinstance(t.get("path"), list):
                raise SpecError("bad relation term %r" % (t,))
            terms.append({"coeff": t["coeff"], "path": [str(x) for x in t["path"]]})
        relations.append(terms)
    comments = [str(c) for c in doc.get("comments", [])]
    return AlgebraSpec(p, [str(v) for v in doc["vertices"]], arrows, relations, comments)


class PathAlgebra:
    """Finite-dimensional kQ/I over GF(p); immutable once built."""

    def __init__(self, spec, quiver, p, relations, basis, reduce_maps, nil_degree):
        self.spec = spec
        self.quiver = quiver
        self.p = p
        self.relations = relations
        # basis entries: (source_idx, arrow_idx_tuple, target_idx), residue paths only
        self.basis = basis
        self.reduce_maps = reduce_maps  # (arrow tuple) -> {basis idx: coeff}, all enumerated paths
        self.nil_degree = nil_degree
        self.dim = len(basis)
        self._opposite = None
        self._memo = defaultdict(dict)  # table name -> {key: value}

    def memo(self, table: str, key, build, *args):
        """build(*args), which is never None, computed once per key of a
        table and kept for the algebra's lifetime; every per-algebra cache
        is a table here."""
        cache = self._memo[table]
        got = cache.get(key)
        if got is None:
            got = cache[key] = build(*args)
        return got

    # -- basic queries -------------------------------------------------

    @property
    def n_vertices(self):
        return self.quiver.n_vertices

    def vertex_label(self, i):
        return self.quiver.vertices[i]

    def reduce_path(self, source: int, arrows: tuple) -> dict:
        """Expand an arbitrary composable path in the residue basis."""
        if len(arrows) >= self.nil_degree:
            return {}
        got = self.reduce_maps.get((source, arrows))
        if got is None:
            raise ValueError("path not enumerated: %r" % (arrows,))
        return got

    def loewy_length(self) -> int:
        return self.nil_degree

    def dimension_by_length(self) -> dict:
        out = {}
        for (_, arrows, _) in self.basis:
            out[len(arrows)] = out.get(len(arrows), 0) + 1
        return out

    def is_hereditary(self) -> bool:
        return not self.relations

    def is_semisimple(self) -> bool:
        return self.nil_degree == 1

    # -- derived algebras & modules ------------------------------------

    def opposite(self) -> "PathAlgebra":
        if self._opposite is None:
            spec = AlgebraSpec(
                self.spec.field_p,
                list(self.spec.vertices),
                [{"name": a["name"], "from": a["to"], "to": a["from"]} for a in self.spec.arrows],
                [
                    [{"coeff": t["coeff"], "path": list(reversed(t["path"]))} for t in rel]
                    for rel in self.spec.relations
                ],
                list(self.spec.comments),
            )
            opp = build_algebra(spec)
            opp._opposite = self
            self._opposite = opp
        return self._opposite

    def projective(self, v: int):
        from .rep import projective_rep

        return self.memo("projective", v, projective_rep, self, v)

    def injective(self, v: int):
        from .homology import duality

        return self.memo("injective", v, duality, self.opposite().projective(v))

    def simple(self, v: int):
        from .rep import simple_rep

        return self.memo("simple", v, simple_rep, self, v)

    def regular_module(self):
        from .rep import direct_sum

        return direct_sum([self.projective(v) for v in range(self.n_vertices)])


def _relation_signature(quiver: Quiver, terms) -> Relation:
    """Validate one relation: composable, parallel, homogeneous paths."""
    if not terms:
        raise SpecError("empty relation: a relation needs at least one path")
    cooked = []
    sig = None
    for t in terms:
        path = t["path"]
        if not path:
            raise NonHomogeneousRelation("empty path in relation")
        idxs = []
        for name in path:
            if name not in quiver.aindex:
                raise SpecError("unknown arrow %r in relation" % name)
            idxs.append(quiver.aindex[name])
        src = quiver.arrow_source(idxs[0])
        cur = quiver.arrow_target(idxs[0])
        for k in idxs[1:]:
            if quiver.arrow_source(k) != cur:
                raise SpecError(
                    "path %r is not composable source-to-target" % (list(path),)
                )
            cur = quiver.arrow_target(k)
        this_sig = (src, cur, len(idxs))
        if sig is None:
            sig = this_sig
        else:
            if (sig[0], sig[1]) != (this_sig[0], this_sig[1]):
                raise NonParallelRelation("relation mixes non-parallel paths")
            if sig[2] != this_sig[2]:
                raise NonHomogeneousRelation("relation mixes path lengths")
        cooked.append((t["coeff"], tuple(idxs)))
    if sig[2] < 2:
        raise NonHomogeneousRelation("relation paths must have length >= 2")
    return Relation(tuple(cooked), sig[0], sig[1], sig[2])


def build_algebra(spec: AlgebraSpec) -> PathAlgebra:
    p = spec.field_p
    if not isinstance(p, int) or not linalg.is_prime(p):
        raise SpecError("field must be a prime integer, got %r" % (p,))
    quiver = Quiver(
        spec.vertices,
        [Arrow(a["name"], a["from"], a["to"]) for a in spec.arrows],
    )
    relations = []
    for rel in spec.relations:
        sig = _relation_signature(quiver, rel)
        terms = tuple((c % p, path) for c, path in sig.terms if c % p)
        if terms:
            relations.append(Relation(terms, sig.source, sig.target, sig.length))

    rel_by_deg = {}
    for r in relations:
        rel_by_deg.setdefault(r.length, []).append(r)

    # paths_at[l][(s, t)] -> ordered list of arrow tuples
    paths_at = [dict() for _ in range(1)]
    for v in range(quiver.n_vertices):
        paths_at[0].setdefault((v, v), []).append(())

    basis = []
    reduce_maps = {}

    def add_residue(s, arrows, t):
        idx = len(basis)
        basis.append((s, arrows, t))
        return idx

    for v in range(quiver.n_vertices):
        idx = add_residue(v, (), v)
        reduce_maps[(v, ())] = {idx: 1}

    nil_degree = None
    total_paths = quiver.n_vertices
    length = 0
    while nil_degree is None:
        length += 1
        if length > LENGTH_CAP:
            raise NotFiniteDimensional(
                "no vanishing radical power up to length cap %d" % LENGTH_CAP
            )
        level = {}
        count = 0
        for (s, t), plist in paths_at[length - 1].items():
            for arrows in plist:
                for k in quiver.arrows_by_source[t]:
                    ext = arrows + (k,)
                    level.setdefault((s, quiver.arrow_target(k)), []).append(ext)
                    count += 1
        total_paths += count
        if total_paths > PATH_BUDGET:
            raise NotFiniteDimensional("path enumeration exceeded budget; ideal looks non-admissible")
        paths_at.append(level)
        if count == 0:
            nil_degree = length
            break

        residues_this_level = 0
        for (s, t), plist in sorted(level.items()):
            col_index = {arrows: i for i, arrows in enumerate(plist)}
            rows = []
            for deg, rels in rel_by_deg.items():
                if deg > length:
                    continue
                for r in rels:
                    for a in range(length - deg + 1):
                        b = length - deg - a
                        lefts = paths_at[a].get((s, r.source), [])
                        rights = paths_at[b].get((r.target, t), [])
                        for u in lefts:
                            for w in rights:
                                row = [0] * len(plist)
                                for coeff, mid in r.terms:
                                    row[col_index[u + mid + w]] = (
                                        row[col_index[u + mid + w]] + coeff
                                    ) % p
                                if any(row):
                                    rows.append(row)
            if rows:
                mat = linalg.Matrix.from_rows(p, rows)
                red, pivots = linalg.rref(mat)
            else:
                red, pivots = None, []
            pivot_set = set(pivots)
            local_res = {}
            for j, arrows in enumerate(plist):
                if j not in pivot_set:
                    idx = add_residue(s, arrows, t)
                    local_res[j] = idx
                    residues_this_level += 1
            for ri, pj in enumerate(pivots):
                expansion = {}
                for j in range(len(plist)):
                    if j in pivot_set:
                        continue
                    c = red.entry(ri, j)
                    if c:
                        expansion[local_res[j]] = (-c) % p
                reduce_maps[(s, plist[pj])] = expansion
            for j, arrows in enumerate(plist):
                if j not in pivot_set:
                    reduce_maps[(s, arrows)] = {local_res[j]: 1}
        if residues_this_level == 0:
            nil_degree = length
            break

    return PathAlgebra(spec, quiver, p, tuple(relations), tuple(basis), reduce_maps, nil_degree)
