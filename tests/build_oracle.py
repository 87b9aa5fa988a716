"""The path-algebra build as it was before relation rows were packed, kept
as a test oracle: every u r w row is written out entry by entry as a list
over all paths of its slice and the whole slice is row-reduced at once;
each reduce map is read column by column with Matrix.entry.  The
projective oracle fills its arrow matrices as lists the same way."""

from syzex import linalg
from syzex.algebra import (
    LENGTH_CAP,
    PATH_BUDGET,
    Arrow,
    PathAlgebra,
    Quiver,
    Relation,
)
from syzex.errors import (
    NonHomogeneousRelation,
    NonParallelRelation,
    NotFiniteDimensional,
    SpecError,
)
from syzex.linalg import Matrix


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


def build_algebra(spec) -> PathAlgebra:
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


def projective_matrices(algebra, v: int) -> tuple:
    """The arrow matrices of P(v), filled entry by entry."""
    q = algebra.quiver
    slots = [[] for _ in range(q.n_vertices)]
    pos = {}
    for idx, (s, arrows, t) in enumerate(algebra.basis):
        if s == v:
            pos[idx] = len(slots[t])
            slots[t].append((idx, arrows))
    dim = tuple(len(sl) for sl in slots)
    action = []
    for ai in range(len(q.arrows)):
        u, w = q.arrow_source(ai), q.arrow_target(ai)
        rows = [[0] * dim[u] for _ in range(dim[w])]
        for col, (_, arrows) in enumerate(slots[u]):
            for gidx, coeff in algebra.reduce_path(v, arrows + (ai,)).items():
                rows[pos[gidx]][col] = coeff
        action.append(Matrix.from_rows(algebra.p, rows) if dim[w] and dim[u] else Matrix.zero(algebra.p, dim[w], dim[u]))
    return tuple(action)
