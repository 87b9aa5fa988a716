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
        # vertex indices of each arrow's ends, by arrow index
        self.sources = tuple(self.vindex[a.source] for a in self.arrows)
        self.targets = tuple(self.vindex[a.target] for a in self.arrows)
        self.ends = tuple(zip(self.sources, self.targets))

    def arrow_source(self, i):
        return self.sources[i]

    def arrow_target(self, i):
        return self.targets[i]


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
            # a bool is an int to Python, but not a coefficient
            if not isinstance(t, dict) or type(t.get("coeff")) is not int or not isinstance(t.get("path"), list):
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


def _relation(quiver: Quiver, p: int, terms) -> Relation | None:
    """Validate one relation (composable, parallel, homogeneous paths) and
    write it over GF(p): terms on one path merged, their coefficients summed
    mod p, zero terms dropped.  None when no term is left."""
    if not terms:
        raise SpecError("empty relation: a relation needs at least one path")
    merged = {}
    sig = None
    sources, targets = quiver.sources, quiver.targets
    for t in terms:
        path = t["path"]
        if not path:
            raise NonHomogeneousRelation("empty path in relation")
        idxs = tuple(map(quiver.aindex.get, path))
        if None in idxs:
            raise SpecError("unknown arrow %r in relation" % path[idxs.index(None)])
        for a, b in zip(idxs, idxs[1:]):
            if targets[a] != sources[b]:
                raise SpecError("path %r is not composable source-to-target" % (list(path),))
        this_sig = (sources[idxs[0]], targets[idxs[-1]], len(idxs))
        if sig is None:
            sig = this_sig
        else:
            if (sig[0], sig[1]) != (this_sig[0], this_sig[1]):
                raise NonParallelRelation("relation mixes non-parallel paths")
            if sig[2] != this_sig[2]:
                raise NonHomogeneousRelation("relation mixes path lengths")
        merged[idxs] = (merged.get(idxs, 0) + t["coeff"]) % p
    if sig[2] < 2:
        raise NonHomogeneousRelation("relation paths must have length >= 2")
    kept = tuple((c, path) for path, c in merged.items() if c)
    return Relation(kept, *sig) if kept else None


def _placements(ending, starting, length, r):
    """(s, t, u, w) for each path u r w of this length, from s to t."""
    for a in range(length - r.length + 1):
        rights = starting[length - r.length - a].get(r.target, ())
        for s, u in ending[a].get(r.source, ()):
            for t, w in rights:
                yield s, t, u, w


def build_algebra(spec: AlgebraSpec) -> PathAlgebra:
    """kQ/I degree by degree.  The paths u r w of one length from s to t, r
    a relation, span the ideal's slice there.  A one-term r puts its u r w
    in the ideal: each such path is a pivot column whose reduced row is the
    unit row, and every other reduced row is 0 there.  So only the other
    rows are reduced, on the remaining columns, and the two kinds of pivot
    merge in column order into the RREF of the whole slice."""
    p = spec.field_p
    if not isinstance(p, int) or not linalg.is_prime(p):
        raise SpecError("field must be a prime integer, got %r" % (p,))
    quiver = Quiver(
        spec.vertices,
        [Arrow(a["name"], a["from"], a["to"]) for a in spec.arrows],
    )
    relations = tuple(r for r in (_relation(quiver, p, rel) for rel in spec.relations) if r)

    vertices = range(quiver.n_vertices)
    # level[(s, t)] -> ordered list of arrow tuples of the current length;
    # ending[l][t] and starting[l][s] -> (s, path) and (t, path) of length l
    level = {(v, v): [()] for v in vertices}
    ending = [{v: [(v, ())] for v in vertices}]
    starting = [{v: [(v, ())] for v in vertices}]
    # basis entries: (source_idx, arrow_idx_tuple, target_idx), residue paths only
    basis = [(v, (), v) for v in vertices]
    reduce_maps = {(v, ()): {v: 1} for v in vertices}
    total_paths = quiver.n_vertices
    length = 0
    while True:
        length += 1
        if length > LENGTH_CAP:
            raise NotFiniteDimensional(
                "no vanishing radical power up to length cap %d" % LENGTH_CAP
            )
        prev, level = level, {}
        count = 0
        for (s, t), plist in prev.items():
            for arrows in plist:
                for k in quiver.arrows_by_source[t]:
                    level.setdefault((s, quiver.targets[k]), []).append(arrows + (k,))
                    count += 1
        total_paths += count
        if total_paths > PATH_BUDGET:
            raise NotFiniteDimensional("path enumeration exceeded budget; ideal looks non-admissible")
        if count == 0:
            break
        ends, starts = {}, {}
        for (s, t), plist in level.items():
            ends.setdefault(t, []).extend([(s, q) for q in plist])
            starts.setdefault(s, []).extend([(t, q) for q in plist])
        ending.append(ends)
        starting.append(starts)

        # per slice: the paths a one-term relation puts in the ideal, and
        # the (coeff, path) terms of every other row
        zeros, others = defaultdict(set), defaultdict(list)
        for r in relations:
            if r.length > length:
                continue
            if len(r.terms) == 1:
                mid = r.terms[0][1]
                for s, t, u, w in _placements(ending, starting, length, r):
                    zeros[s, t].add(u + mid + w)
            else:
                for s, t, u, w in _placements(ending, starting, length, r):
                    others[s, t].append([(c, u + mid + w) for c, mid in r.terms])

        residues_this_level = 0
        for (s, t), plist in sorted(level.items()):
            zero = zeros.get((s, t), ())
            kept = [arrows for arrows in plist if arrows not in zero]
            col = {arrows: k for k, arrows in enumerate(kept)}
            n = len(kept)
            entries = []
            nrows = 0
            for terms in others.get((s, t), ()):
                # a relation's paths are distinct, so no two hits share a column
                hits = [(nrows, k, c) for c, q in terms if (k := col.get(q)) is not None]
                if hits:
                    entries += hits
                    nrows += 1
            pivot_rows = {}
            if nrows:
                red, pivots = linalg.rref(linalg.Matrix.from_entries(p, nrows, n, entries))
                pivot_rows = dict(zip(pivots, red.rows))
            residue = {}
            for k, arrows in enumerate(kept):
                if k not in pivot_rows:
                    residue[k] = len(basis)
                    basis.append((s, arrows, t))
            # pivots in column order, then residues, as the whole slice's RREF
            # gives them; the path at pivot k is minus its reduced row's
            # entries off k, which are 0 at every other pivot, in column order
            for arrows in plist:
                k = col.get(arrows)
                if k is None:
                    reduce_maps[(s, arrows)] = {}
                elif k in pivot_rows:
                    row = linalg.nonzeros(p, pivot_rows[k])
                    reduce_maps[(s, arrows)] = {residue[j]: p - c for j, c in row if j != k}
            for k, idx in residue.items():
                reduce_maps[(s, kept[k])] = {idx: 1}
            residues_this_level += len(residue)
        if residues_this_level == 0:
            break

    return PathAlgebra(spec, quiver, p, relations, tuple(basis), reduce_maps, length)
