"""Projective covers, syzygies, Ext^1 spaces and middle terms, tilting test.

A projective cover takes one summand P(v) per top generator g of M at v.
The epi column of the basis path q of P(v) is q applied to g.  The images
of all generators at v are the rows of one matrix per path, the memoized
image of q's prefix times the transpose of q's last arrow, so a path costs
one sparse product for all of them.  The syzygy is the kernel of that
epi, its reduced basis per vertex and the pivots of that basis read off
two row reductions (linalg.null_rows: the kernel, then its rref), from
which sub_rep reads the arrow matrices without a third.  The
presentation of M is cached per M, and keeps no summands.  Syzygies are
taken one indecomposable at a time (minimal syzygies are additive):
syzygy_summands reads the memoized Krull-Schmidt factors of Omega(M),
repeats kept, and pd_bounded never decomposes a whole Omega^n(M).

Ext^1(X, Y) is read off extensions, with no cover (Assem, Simson and
Skowronski, Elements of the Representation Theory of Associative Algebras
1, 2006; Ringel, Representations of K-species and bimodules, 1976):
arrow a acts on Y (+) X by [[Y_a, C_a], [0, X_a]], a module exactly when
every relation acts by 0, which is linear in the corners C_a, and two
corners give equivalent extensions exactly when they differ by an inner
derivation f_w X_a - Y_a f_u.  So Hom and Ext^1 are the cohomology of one
complex (+)_v Hom(X_v, Y_v) -> (+)_a Hom(X_u, Y_w) -> (+)_r ..., both
laid out flat: Hom is ker delta0 and Ext^1 is ker delta1 / im delta0,
delta0 the inner derivations, built only by linalg.derivations, and
delta1 the relation system, built here.  The C_a are the defects of the
vertexwise section of the middle onto X, and each basis row of ker delta1
is checked against delta1 once.  delta0's columns have their coordinates
at the free columns of ker delta1 (linalg.coordinates), and its rows off
their pivots, cut per arrow, are the corner tuples of the Ext^1 basis.
ext1_space memoizes each space on the algebra by the keys of X and Y, as
hom_space memoizes Hom; Ext1Space.corners maps a coefficient tuple to the
corner blocks of that class, memoized per tuple, the only route from
Ext^1 coordinates to a middle term.  extension_middle, the one middle-term
builder, places the blocks in the matrices [[Y_a, C_a], [0, X_a]], each
row built by linalg's block-row assembler.  Ext^1 through a projective
cover, and the pushout of P <- OX -> Y, survive only as the independent
references the tests compare these spaces and middles against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import linalg
from .errors import AlgebraMismatch, SpecError
from .linalg import Matrix
from .rep import (
    Hom,
    Representation,
    decompose,
    direct_sum,
    hom_space,
    indec_factors,
    is_iso,
    quotient_rep,
    sub_rep,
    top_maps,
    zero_rep,
)


@dataclass
class ProjectivePresentation:
    module: Representation
    cover: Representation
    epi: Hom
    kernel: Representation  # the syzygy


def projective_cover(m: Representation) -> ProjectivePresentation:
    """The minimal presentation of m, memoized on the algebra by m's key."""
    return m.algebra.memo("cover", m.key(), _projective_cover, m)


def _projective_cover(m: Representation) -> ProjectivePresentation:
    algebra = m.algebra
    q = algebra.quiver
    p = algebra.p

    slots = []
    gens = []  # per vertex, the generators of M_v as the rows of a matrix
    for v, (pr, lf) in enumerate(top_maps(m)):
        slots.extend([v] * pr.nrows)
        gens.append(lf.transpose())
    cover = direct_sum([algebra.projective(v) for v in slots]) if slots else zero_rep(algebra)

    # epi columns: slot basis path q (v -> w) maps to q applied to the generator
    epi_cols = [[] for _ in range(q.n_vertices)]
    trivial = [[] for _ in range(q.n_vertices)]  # cover coordinates of the trivial paths
    transposed = [a.transpose() for a in m.action]
    for v, g in enumerate(gens):
        if not g.nrows:
            continue
        images = {(): g}
        paths = [(arrows, t) for (s, arrows, t) in algebra.basis if s == v]
        rows = [_path_image(transposed, images, arrows).rows for arrows, _ in paths]
        for i in range(g.nrows):
            for (arrows, t), image in zip(paths, rows):
                if not arrows:
                    trivial[t].append(len(epi_cols[t]))
                epi_cols[t].append(image[i])
    epi_mats = tuple(
        Matrix(p, len(epi_cols[w]), m.dim[w], tuple(epi_cols[w])).transpose()
        for w in range(q.n_vertices)
    )
    epi = Hom(cover, m, epi_mats)

    spans = [linalg.null_rows(mat) for mat in epi_mats]
    if any(rows.nrows != cover.dim[w] - m.dim[w] for w, (rows, _) in enumerate(spans)):
        raise AssertionError("projective cover is not surjective")
    kernel = sub_rep(cover, spans)

    # minimality: kernel must avoid the trivial-path coordinates of the cover
    for (rows, _), coords in zip(spans, trivial):
        if coords:
            cols = rows.transpose().rows
            if not Matrix(p, len(coords), rows.nrows, tuple([cols[c] for c in coords])).is_zero():
                raise AssertionError("cover kernel escapes the radical")

    return ProjectivePresentation(m, cover, epi, kernel)


def _path_image(transposed: list, images: dict, arrows: tuple) -> Matrix:
    """Images of the generators under a path, as rows: the memoized prefix
    image times the transpose of the path's last arrow."""
    got = images.get(arrows)
    if got is None:
        got = _path_image(transposed, images, arrows[:-1]).mul(transposed[arrows[-1]])
        images[arrows] = got
    return got


def syzygy(m: Representation, n: int = 1) -> Representation:
    if n < 0:
        raise SpecError("syzygy index must be nonnegative")
    cur = m
    for _ in range(n):
        if cur.total_dim == 0:
            return cur
        cur = projective_cover(cur).kernel
    return cur


def duality(m: Representation) -> Representation:
    """Exact contravariant duality: transpose matrices, module over A^op."""
    opp = m.algebra.opposite()
    action = tuple(mat.transpose() for mat in m.action)
    return Representation(opp, m.dim, action)


def cosyzygy(m: Representation, n: int = 1) -> Representation:
    return duality(syzygy(duality(m), n))


def syzygy_summands(m: Representation) -> tuple:
    """The memoized indecomposable factors of Omega(m), with repeats; () when m is projective."""
    return indec_factors(projective_cover(m).kernel)


def pd_bounded(m: Representation, bound: int):
    """Least n <= bound with syzygy(m, n) projective, else None; the layer
    holds the distinct factors of syzygy(m, n)."""
    layer = [m]
    for n in range(bound + 1):
        layer = list(dict.fromkeys(f for rep in layer for f in syzygy_summands(rep)))
        if not layer:
            return n
    return None


def cartan_determinant(algebra) -> int:
    """det C, C_uv the number of basis paths from u to v, by Bareiss elimination."""
    n = algebra.n_vertices
    c = [[0] * n for _ in range(n)]
    for s, _, t in algebra.basis:
        c[s][t] += 1
    det, prev = 1, 1
    while c:
        k = next((i for i, r in enumerate(c) if r[0]), None)
        if k is None:
            return 0
        top = c.pop(k)
        c = [[(x * top[0] - r[0] * y) // prev for x, y in zip(r[1:], top[1:])] for r in c]
        det, prev = det * (-1) ** k, top[0]
    return det * prev


def _pd_walk_bound(algebra) -> int:
    """The default number of syzygy steps a pd walk takes before it gives up."""
    return 2 * max(algebra.dim, 1)


def gldim_bounded(algebra):
    # a finite global dimension forces det C = +-1 (Eilenberg, Comment. Math.
    # Helv. 28, 1954): any other determinant is infinite without a walk
    if abs(cartan_determinant(algebra)) != 1:
        return None
    worst = 0
    for v in range(algebra.n_vertices):
        pd = pd_bounded(algebra.simple(v), _pd_walk_bound(algebra))
        if pd is None:
            return None
        worst = max(worst, pd)
    return worst


@dataclass
class Ext1Space:
    X: Representation
    Y: Representation
    basis: tuple  # per basis class, its corner block C_a per arrow a
    _corners: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def corners(self, coeffs) -> tuple:
        """Corner blocks of the class sum_t coeffs[t] * (basis class t), zero
        blocks when every coefficient is 0; memoized per tuple."""
        got = self._corners.get(coeffs)
        if got is None:
            p = self.X.algebra.p
            got = self._corners[coeffs] = linalg.combine(coeffs, self.basis) or tuple(
                Matrix.zero(p, self.Y.dim[w], self.X.dim[u]) for u, w in self.X.algebra.quiver.ends
            )
        return got


def ext1_space(x: Representation, y: Representation) -> Ext1Space:
    """Ext^1(x, y), memoized on the algebra by the modules' keys."""
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("ext over different algebras")
    return x.algebra.memo("ext", (x.key(), y.key()), _ext1_space, x, y)


def _ext1_space(x: Representation, y: Representation) -> Ext1Space:
    p, ends = x.algebra.p, x.algebra.quiver.ends
    # the unknowns: C_a, a y_w x x_u block for a: u -> w, flat arrow by arrow
    off = list(itertools.accumulate((y.dim[w] * x.dim[u] for u, w in ends), initial=0))
    size = off.pop()
    system = _relation_system(x, y, off, size)
    cocycles, free = linalg.kernel_basis(system)
    if not cocycles.nrows:
        return Ext1Space(x, y, ())
    # C_a is the defect E_a s - s X_a of the vertexwise section s = [0; I]
    # of the middle E onto X; E is a module exactly when it solves the system
    columns = cocycles.transpose()
    if not system.mul(columns).is_zero():
        raise AssertionError("section defect not in the kernel")
    delta0, _ = linalg.derivations(p, ends, x.dim, x.action, y.dim, y.action)
    image = linalg.coordinates(columns, free, delta0)
    if image is None:
        raise AssertionError("inner derivation outside the corner cocycles")
    pivot = set(linalg.pivots(image.transpose()))
    basis = tuple(
        tuple(linalg.unflat(p, row, at, y.dim[w], x.dim[u]) for at, (u, w) in zip(off, ends))
        for j, row in enumerate(cocycles.rows) if j not in pivot
    )
    return Ext1Space(x, y, basis)


def _relation_system(x: Representation, y: Representation, off, size) -> Matrix:
    """delta1: the linear conditions on the corners C for every relation to
    act by 0 on [[Y, C], [0, X]], one equation per entry (r, s) of each
    relation: a term c a_1...a_m puts c Y_{a_m...a_{i+1}}[r, k]
    X_{a_{i-1}...a_1}[l, s] at the unknown C_{a_i}[k, l], for each i.  The
    products grow one arrow at a time, None standing for an identity."""
    p, ends = x.algebra.p, x.algebra.quiver.ends
    eqs = {}
    n = 0
    for rel in x.algebra.relations:
        width, height = x.dim[rel.source], y.dim[rel.target]
        if not width * height:
            continue
        for coeff, path in rel.terms:
            m = len(path)
            before, after = [None], [None]  # X_{a_{i-1}...a_1}, Y_{a_m...a_{i+1}}
            for i in range(1, m):
                a, b = x.action[path[i - 1]], y.action[path[m - i]]
                before.append(a if before[-1] is None else a.mul(before[-1]))
                after.append(b if after[-1] is None else after[-1].mul(b))
            for a, xs, ys in zip(path, before, reversed(after)):
                xu = x.dim[ends[a][0]]
                left = [[(r, 1)] for r in range(height)] if ys is None else [linalg.nonzeros(p, r) for r in ys.rows]
                right = [[(l, 1)] for l in range(width)] if xs is None else [linalg.nonzeros(p, r) for r in xs.rows]
                for r, row in enumerate(left):
                    for k, c in row:
                        at, c = off[a] + k * xu, coeff * c
                        for l, col in enumerate(right):
                            for s, d in col:
                                key = (n + r * width + s, at + l)
                                eqs[key] = eqs.get(key, 0) + c * d
        n += width * height
    return Matrix.from_entries(p, n, size, [(i, j, c) for (i, j), c in eqs.items()])


def extension_middle(ys, xs, corners) -> Representation:
    """Middle term of an extension of (+)xs by (+)ys, as block matrices.

    Arrow a acts by [[(+)Y_a, C_a], [0, (+)X_a]], Y coordinates first at
    every vertex; the (i, j) block of the corner C_a is corners[i][j][a],
    the Ext1Space.corners of a class in Ext^1(xs[j], ys[i]).  Both lists
    are nonempty.  Each block row is built by linalg's row assembler.
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
        for y, yoff, blocks in zip(ys, offs, corners):
            rows += linalg.stripe(p, dims[s], [(y.action[ai], yoff)] + [(b[ai], off) for b, off in zip(blocks, xoffs)])
        for x, xoff in zip(xs, xoffs):
            rows += linalg.stripe(p, dims[s], [(x.action[ai], xoff)])
        action.append(Matrix(p, dims[q.arrow_target(ai)], dims[s], tuple(rows)))
    return Representation(algebra, dims, tuple(action))


@dataclass
class TiltingVerdict:
    is_tilting: bool
    pd: object
    failures: list = field(default_factory=list)
    coresolution: list = field(default_factory=list)  # dim vectors of the add(T) terms


def in_add(m: Representation, t_factors) -> bool:
    """Every indecomposable factor of m is iso to one of t_factors."""
    return all(any(is_iso(f, g) for g in t_factors) for f in indec_factors(m))


def tilting_check(t: Representation, bound: int = None) -> TiltingVerdict:
    """Conditions: finite pd, no self-extensions, add(T)-coresolution of A."""
    algebra = t.algebra
    if bound is None:
        bound = _pd_walk_bound(algebra)
    failures = []
    pd = pd_bounded(t, bound)
    if pd is None:
        return TiltingVerdict(False, None, ["pd exceeds bound %d" % bound])
    for i in range(1, pd + 1):
        dim_ext = ext1_space(syzygy(t, i - 1), t).dimension
        if dim_ext:
            failures.append("Ext^%d(T,T) has dimension %d" % (i, dim_ext))
    t_factors = [f for f, _ in decompose(t).factors]
    cores = []
    current = algebra.regular_module()
    step = 0
    while True:
        if in_add(current, t_factors):
            cores.append(current.dim)
            break
        if step >= pd:
            failures.append("no add(T)-coresolution of A within %d steps" % pd)
            break
        # canonical left add(T)-approximation into distinct indecomposable summands
        pieces = []
        stacks = [[] for _ in range(algebra.n_vertices)]
        for ti in t_factors:
            hb = hom_space(current, ti)
            for h in hb.basis:
                pieces.append(ti)
                for v in range(algebra.n_vertices):
                    stacks[v].append(h.mats[v])
        if not pieces:
            failures.append("regular module does not embed in add(T)")
            break
        umats = [linalg.vstack(stacks[v]) for v in range(algebra.n_vertices)]
        if any(umats[v].rank() != current.dim[v] for v in range(algebra.n_vertices)):
            failures.append(
                "coresolution stalls at step %d: current module does not embed in add(T)" % step
            )
            break
        target = direct_sum(pieces)
        cores.append(target.dim)
        current, _ = quotient_rep(target, umats)
        step += 1
    return TiltingVerdict(not failures, pd, failures, cores)
