"""Finite-dimensional left modules as quiver representations.

A representation stores one matrix per arrow, of shape
dim[target] x dim[source]; a path acts by composing its arrow matrices in
traversal order.  Hom(M, N) is the kernel of linalg.derivations, the
map f |-> (f_w M_a - N_a f_u)_a on vertexwise maps, whose image is also
Ext^1's coboundaries; its unknowns are laid out as linalg.flat, which
decides the Hom coordinate layout.  A HomBasis keeps the kernel rows in
that layout with each row's free column, and is memoized on the algebra.
Per-vertex Hom objects are cut from a row only where a caller composes
them (the tilting check, the split search's top images),
and are not kept.  Decomposition peels direct summands with Fitting's
lemma, and is exact for every p: an endomorphism splits M exactly when its
action on top(M) is neither nilpotent nor invertible, so testing each line
of End(M)'s image on top(M) either finds a split or proves M
indecomposable.  Each endomorphism is tried as one block-diagonal matrix
on M, read straight from its row, and a split's two pieces are read
straight off the reduced vectors of its stable power's image and kernel:
sub_rep takes a subspace as reduced rows with their pivots, per vertex,
and reads each arrow's images at the pivots.  Isomorphism is decided
exactly: an indecomposable M has a local endomorphism ring, so M ~ N
exactly when some basis element of Hom(M, N) is invertible; sums are
compared by their Krull-Schmidt factors.  indec_factors is the one factor
route, memoized on the algebra, repeats kept; decompose groups the factors
by isomorphism, only for the reports that print a multiplicity and for the
distinct summands of a tilting module.  sort_key is the one order on
modules.  extension_middle is the one block-module builder: a middle term
[[Y_a, C_a], [0, X_a]] of Ext^1 corners, and direct_sum, the extension with
no quotient part.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import linalg
from .errors import AlgebraMismatch, BudgetExceeded, SpecError
from .linalg import Matrix

SPLIT_ENUM_BUDGET = 256


class Representation:
    __slots__ = ("algebra", "dim", "action", "_key")

    def __init__(self, algebra, dim, action):
        self.algebra = algebra
        self.dim = tuple(dim)
        self.action = tuple(action)
        self._key = None

    @property
    def total_dim(self) -> int:
        return sum(self.dim)

    def key(self) -> bytes:
        if self._key is None:
            out = bytearray()
            for x in self.dim:
                out.extend(x.to_bytes(4, "big"))
            for m in self.action:
                out.extend(m.key())
            self._key = bytes(out)
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.algebra is other.algebra
            and self.dim == other.dim
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((id(self.algebra), self.key()))

    def __repr__(self):
        return "Rep(dim=%s)" % (self.dim,)

    def dim_map(self) -> dict:
        return {self.algebra.vertex_label(v): d for v, d in enumerate(self.dim)}

    def path_action(self, source: int, arrows: tuple) -> Matrix:
        m = Matrix.identity(self.algebra.p, self.dim[source])
        for k in arrows:
            m = self.action[k].mul(m)
        return m

    def validate(self) -> list:
        """All shape and relation violations of this representation."""
        algebra, dim, action = self.algebra, self.dim, self.action
        q = algebra.quiver
        bad = []
        if len(dim) != q.n_vertices:
            return ["dimension vector has %d entries, expected %d" % (len(dim), q.n_vertices)]
        if len(action) != len(q.arrows):
            return ["action has %d matrices, expected %d" % (len(action), len(q.arrows))]
        for i, a in enumerate(q.arrows):
            m = action[i]
            want = (dim[q.arrow_target(i)], dim[q.arrow_source(i)])
            if (m.nrows, m.ncols) != want:
                bad.append("arrow %r matrix is %dx%d, expected %dx%d" % (a.name, m.nrows, m.ncols, *want))
            if m.p != algebra.p:
                bad.append("arrow %r matrix over GF(%d), expected GF(%d)" % (a.name, m.p, algebra.p))
        if bad:
            return bad
        for ridx, rel in enumerate(algebra.relations):
            acc = Matrix.zero(algebra.p, dim[rel.target], dim[rel.source])
            for coeff, path in rel.terms:
                acc = acc.add(self.path_action(rel.source, path).scale(coeff))
            if not acc.is_zero():
                pretty = " + ".join(
                    "%d*%s" % (c, ".".join(q.arrows[k].name for k in path)) for c, path in rel.terms
                )
                bad.append("relation %d (%s) does not vanish" % (ridx, pretty))
        return bad


@dataclass
class Hom:
    source: Representation
    target: Representation
    mats: tuple  # one Matrix per vertex


@dataclass
class HomBasis:
    """A basis of Hom(source, target) as the kernel rows of
    linalg.derivations, in linalg.flat's layout, the block of vertex v
    starting at offsets[v].  Row k is 1 at free[k] and 0 at the other free
    columns.  Hom objects are cut from the rows only when .basis or hom()
    is read, and not kept."""

    source: Representation
    target: Representation
    rows: tuple
    offsets: tuple
    free: tuple

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def hom(self, row) -> Hom:
        """One row cut into its per-vertex blocks."""
        p = self.source.algebra.p
        return Hom(self.source, self.target, tuple(
            linalg.unflat(p, row, at, b, a) for at, a, b in zip(self.offsets, self.source.dim, self.target.dim)
        ))

    @property
    def basis(self) -> tuple:
        """Every row as a Hom, cut anew on each read."""
        return tuple(map(self.hom, self.rows))

    def diagonal(self, row) -> Matrix:
        """A row as one block-diagonal matrix of size dim source, the blocks
        f_v in vertex order; source and target have one dimension vector."""
        return linalg.block_diagonal(self.source.algebra.p, row, self.offsets, self.source.dim)


@dataclass
class Decomposition:
    factors: list  # [(Representation, multiplicity)]


def zero_rep(algebra) -> Representation:
    q = algebra.quiver
    dim = (0,) * q.n_vertices
    action = tuple(Matrix.zero(algebra.p, 0, 0) for _ in q.arrows)
    return Representation(algebra, dim, action)


def simple_rep(algebra, v: int) -> Representation:
    q = algebra.quiver
    dim = tuple(1 if w == v else 0 for w in range(q.n_vertices))
    action = tuple(
        Matrix.zero(algebra.p, dim[q.arrow_target(i)], dim[q.arrow_source(i)])
        for i in range(len(q.arrows))
    )
    return Representation(algebra, dim, action)


def projective_rep(algebra, v: int) -> Representation:
    """Left module on the residue paths starting at v; arrows append."""
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
        # column col is the reduced path slots[u][col] . ai
        entries = [
            (pos[gidx], col, c)
            for col, (_, arrows) in enumerate(slots[u])
            for gidx, c in algebra.reduce_path(v, arrows + (ai,)).items()
        ]
        action.append(Matrix.from_entries(algebra.p, dim[w], dim[u], entries))
    return Representation(algebra, dim, tuple(action))


def direct_sum(reps) -> Representation:
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum needs an algebra; use zero_rep")
    if any(r.algebra is not reps[0].algebra for r in reps):
        raise AlgebraMismatch("direct sum over mixed algebras")
    return extension_middle(reps, (), [()] * len(reps))


def extension_middle(ys, xs, corners) -> Representation:
    """Middle term of an extension of (+)xs by (+)ys, as block matrices.

    Arrow a acts by [[(+)Y_a, C_a], [0, (+)X_a]], Y coordinates first at
    every vertex; the (i, j) block of the corner C_a is corners[i][j][a],
    the Ext1Space.corners of a class in Ext^1(xs[j], ys[i]).  ys is
    nonempty; xs may be empty, which makes the middle the direct sum (+)ys.
    Each block row, Y's and X's alike, is built by linalg's row assembler.
    """
    algebra = ys[0].algebra
    p = algebra.p
    q = algebra.quiver
    mods = list(ys) + list(xs)
    dims = tuple(sum(m.dim[v] for m in mods) for v in range(q.n_vertices))
    action = []
    for ai in range(len(q.arrows)):
        s = q.arrow_source(ai)
        offs = list(itertools.accumulate((m.dim[s] for m in mods), initial=0))
        xoffs = offs[len(ys):]
        rows = []
        for m, off, blocks in zip(mods, offs, list(corners) + [()] * len(xs)):
            rows += linalg.stripe(p, dims[s], [(m.action[ai], off)] + [(b[ai], at) for b, at in zip(blocks, xoffs)])
        action.append(Matrix(p, dims[q.arrow_target(ai)], dims[s], tuple(rows)))
    return Representation(algebra, dims, tuple(action))


def hom_space(m: Representation, n: Representation) -> HomBasis:
    """Basis of Hom_A(m, n), memoized on the algebra by the modules' keys."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    return m.algebra.memo("hom", (m.key(), n.key()), _hom_space, m, n)


def _hom_space(m: Representation, n: Representation) -> HomBasis:
    """Solutions of f_w M_a = N_a f_u per arrow a: u -> w, the kernel of
    linalg.derivations."""
    system, offsets = linalg.derivations(m.algebra.p, m.algebra.quiver.ends, m.dim, m.action, n.dim, n.action)
    kernel, free = linalg.kernel_basis(system)
    return HomBasis(m, n, kernel.rows, offsets, tuple(free))


def is_iso(m: Representation, n: Representation) -> bool:
    """Exact isomorphism test.

    A composite g.f of basis elements f of Hom(M, N) and g of Hom(N, M) is
    invertible only if f is (the dimension vectors agree), so it suffices to
    look for an invertible basis element of Hom(M, N).  For indecomposable M
    one exists whenever M ~ N: Hom(M, N) ~ End(M) is local (Fitting's
    lemma), and its non-units form a subspace that holds no basis.  A
    non-local End(M) can have a basis of non-units (matrix units on S + S),
    so decomposable M is compared factor by factor (Krull-Schmidt).
    """
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("iso test over different algebras")
    if m.dim != n.dim:
        return False
    if m.total_dim == 0 or m.key() == n.key():
        return True
    hb = hom_space(m, n)
    if hb.dimension == 0:
        return False
    if any(hb.diagonal(row).rank() == m.total_dim for row in hb.rows):
        return True
    mine = indec_factors(m)
    if len(mine) == 1:
        return False
    theirs = list(indec_factors(n))
    if len(theirs) != len(mine):
        return False
    for f in mine:
        match = next((i for i, g in enumerate(theirs) if is_iso(f, g)), None)
        if match is None:
            return False
        del theirs[match]
    return True


def sub_rep(m: Representation, spans) -> Representation:
    """The subrepresentation on invariant spans, given per vertex v as
    (rows, pivots): a reduced echelon basis of a subspace of M_v, one vector
    per row, and the pivot column of each row.  A vector of the span has its
    coordinates at the pivots, so each arrow's restricted action is read
    there and checked by one product, with no row reduction, in every
    field (linalg.sub_action)."""
    action = linalg.sub_action(m.algebra.p, m.algebra.quiver.ends, m.action, spans)
    if action is None:
        raise AssertionError("spans are not arrow-invariant")
    return Representation(m.algebra, tuple(rows.nrows for rows, _ in spans), tuple(action))


def top_maps(m: Representation) -> list:
    """Per vertex v, the (projection, lift) pair of M_v -> top(M)_v.

    rad M at v is spanned by the images of the arrows into v, and
    linalg.quotient_maps coordinatizes M_v / rad M_v.
    """
    q = m.algebra.quiver
    maps = []
    for v in range(q.n_vertices):
        into = [m.action[ai] for ai in range(len(q.arrows)) if q.arrow_target(ai) == v]
        maps.append(linalg.quotient_maps(linalg.hstack(into) if into else Matrix.zero(m.algebra.p, m.dim[v], 0)))
    return maps


def quotient_rep(m: Representation, spans) -> tuple:
    """Quotient by the subrepresentation spanned per vertex; returns (rep, projection)."""
    algebra = m.algebra
    q = algebra.quiver
    projs = []
    lifts = []
    for v in range(q.n_vertices):
        pr, lf = linalg.quotient_maps(spans[v])
        projs.append(pr)
        lifts.append(lf)
    dim = tuple(pr.nrows for pr in projs)
    action = []
    for ai in range(len(q.arrows)):
        u, w = q.arrow_source(ai), q.arrow_target(ai)
        action.append(projs[w].mul(m.action[ai]).mul(lifts[u]))
    rep = Representation(algebra, dim, tuple(action))
    return rep, Hom(m, rep, tuple(projs))


def _split_with(m: Representation, e: Matrix):
    """Fitting split along the stable power of e, a block-diagonal
    endomorphism of M = (+) M_v; None if it gives no splitting.

    Squaring until the rank stops falling reaches a power past
    stabilization: no vertex rank rises under squaring, so the total rank
    stops falling exactly when every vertex rank does.  A power of zero or
    full rank stays so, and gives no splitting.  A block-diagonal matrix
    row-reduces block by block, so each reduced vector of its image (rref
    of its transpose) and of its kernel (null_rows, rref of kernel_basis)
    lies in one M_v, and those at v are the canonical basis of that block's
    image or kernel: both pieces are read straight off them by sub_rep.
    """
    f = e
    rank = f.rank()
    while 0 < rank < m.total_dim:
        f2 = f.mul(f)
        rank2 = f2.rank()
        if rank2 == rank:
            break
        f, rank = f2, rank2
    else:
        return None
    image, kernel = linalg.rref(f.transpose()), linalg.null_rows(f)
    return sub_rep(m, linalg.block_spans(*image, m.dim)), sub_rep(m, linalg.block_spans(*kernel, m.dim))


def _split_candidates(m: Representation, end: HomBasis):
    """Endomorphisms of m, as block-diagonal matrices, that include a
    splitting one whenever m decomposes.

    pi sends f in End(M) to its action on top(M).  Its kernel is nilpotent
    (f(M) in rad M gives f^L = 0), so by Fitting's lemma and Nakayama e
    splits M exactly when pi(e) is neither nilpotent nor invertible, which
    holds for the whole line of pi(e).  So after the basis, the lines of
    pi(End M) cover every split: the combinations, with first nonzero
    coefficient 1, of the basis elements whose top images are independent,
    minus the single elements already tried.  Each is tested on the top,
    the top images of all the lines with one lead found by one product,
    and only a splitting one is lifted.  Raises BudgetExceeded when there
    are more than SPLIT_ENUM_BUDGET such lines.
    """
    diagonals = []
    for row in end.rows:
        diagonals.append(end.diagonal(row))
        yield diagonals[-1]
    p = m.algebra.p
    tops = top_maps(m)
    images = [tuple(pr.mul(f).mul(lf) for (pr, lf), f in zip(tops, h.mats)) for h in end.basis]
    size = sum(t.nrows * t.ncols for t in images[0])
    vectors = Matrix(p, len(images), size, tuple(linalg.flat(p, ts) for ts in images))
    independent = linalg.pivots(vectors.transpose())
    r = len(independent)
    count = (p ** r - 1) // (p - 1) - r
    if count > SPLIT_ENUM_BUDGET:
        raise BudgetExceeded(
            "split search: End(M) of a module of dimension %d has %d lines on top(M) over GF(%d) beyond its basis,"
            " more than %d"
            % (m.total_dim, count, p, SPLIT_ENUM_BUDGET)
        )
    shapes = [(t.nrows, t.ncols) for t in images[0]]
    offsets = list(itertools.accumulate((a * b for a, b in shapes), initial=0))
    for lead in range(r):
        rest = independent[lead:]
        lines, coeffs = _lines(p, len(rest))
        sums = coeffs.mul(Matrix(p, len(rest), size, tuple([vectors.rows[i] for i in rest])))
        for line, row in zip(lines, sums.rows):
            if _splits_top([linalg.unflat(p, row, at, a, b) for at, (a, b) in zip(offsets, shapes)]):
                yield linalg.combine(line, [(diagonals[i],) for i in rest])[0]


@functools.lru_cache(maxsize=64)
def _lines(p: int, n: int) -> tuple:
    """The coefficients (1, t), t nonzero, in itertools.product order, of the
    lines through n independent top images, and the matrix of them as rows."""
    lines = [(1,) + t for t in itertools.product(range(p), repeat=n - 1) if any(t)]
    return lines, Matrix.from_rows(p, lines) if lines else Matrix.zero(p, 0, n)


def _splits_top(ts) -> bool:
    """Whether an action on top(M), one matrix per vertex, is neither
    nilpotent nor invertible; a q x q block is nilpotent when its
    2^j-th power, 2^j >= q, is zero."""
    if all(t.rank() == t.nrows for t in ts):
        return False
    for t in ts:
        e = 1
        while e < t.nrows:
            t, e = t.mul(t), 2 * e
        if not t.is_zero():
            return True
    return False


def sort_key(m: Representation) -> tuple:
    """The canonical order on modules: total dimension, dimension vector, key."""
    return (m.total_dim, m.dim, m.key())


def indec_factors(m: Representation) -> tuple:
    """All indecomposable factors of m (with repeats), memoized on the algebra."""
    return m.algebra.memo("factors", m.key(), _peel, m)


def _peel(m: Representation) -> tuple:
    """The indecomposable factors of m by Fitting peeling."""
    if m.total_dim == 0:
        return ()
    end = hom_space(m, m)
    if end.dimension > 1:  # dim End(M) = 1 means End(M) = k: M is indecomposable
        for cand in _split_candidates(m, end):
            split = _split_with(m, cand)
            if split is not None:
                a, b = split
                return indec_factors(a) + indec_factors(b)
    return (m,)


def decompose(m: Representation) -> Decomposition:
    """Indecomposable factors grouped by isomorphism, with multiplicities, in
    sort_key order; the group's module is its first factor."""
    groups = []
    for f in indec_factors(m):
        for g in groups:
            if is_iso(f, g[0]):
                g[1] += 1
                break
        else:
            groups.append([f, 1])
    groups.sort(key=lambda g: sort_key(g[0]))
    return Decomposition([(g[0], g[1]) for g in groups])


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_module_doc(doc: dict, algebra) -> Representation:
    """Build a representation from the ModuleSpec JSON structure.

    Raises SpecError on a malformed document: an unknown vertex or arrow, a
    dimension that is not a nonnegative integer, or an action that is not a
    rectangular list of integer rows.  Matrix shapes and relations are left
    to Representation.validate, which reports them as violations.
    """
    q = algebra.quiver
    dims = doc.get("dim", {}) if isinstance(doc, dict) else None
    acts = doc.get("action", {}) if isinstance(doc, dict) else None
    if not isinstance(dims, dict) or not isinstance(acts, dict):
        raise SpecError("a module file is a JSON object whose 'dim' and 'action' are objects")
    dim = [0] * q.n_vertices
    for label, d in dims.items():
        if label not in q.vindex:
            raise SpecError("unknown vertex %r" % label)
        if not _is_int(d) or d < 0:
            raise SpecError("dimension at vertex %r is not a nonnegative integer: %r" % (label, d))
        dim[q.vindex[label]] = d
    for name, rows in acts.items():
        if name not in q.aindex:
            raise SpecError("unknown arrow %r" % name)
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise SpecError("action of arrow %r is not a list of rows" % name)
        if any(len(r) != len(rows[0]) for r in rows):
            raise SpecError("action of arrow %r has ragged rows" % name)
        if not all(_is_int(x) for r in rows for x in r):
            raise SpecError("action of arrow %r has a non-integer entry" % name)
    action = []
    for ai, a in enumerate(q.arrows):
        want = (dim[q.arrow_target(ai)], dim[q.arrow_source(ai)])
        if a.name in acts:
            mat = Matrix.from_rows(algebra.p, acts[a.name]) if acts[a.name] else Matrix.zero(algebra.p, *want)
        else:
            mat = Matrix.zero(algebra.p, *want)
        action.append(mat)
    rep = Representation(algebra, tuple(dim), tuple(action))
    return rep


def module_doc(rep: Representation, algebra_name: str) -> dict:
    q = rep.algebra.quiver
    return {
        "algebra": algebra_name,
        "dim": {q.vertices[v]: rep.dim[v] for v in range(q.n_vertices) if rep.dim[v]},
        "action": {
            q.arrows[ai].name: rep.action[ai].tolist()
            for ai in range(len(q.arrows))
            if not rep.action[ai].is_zero()
        },
    }
