"""Ext^1 through the projective cover, the independent reference for
homology's Ext^1 from extension corners.

On a minimal presentation 0 -> OX -> P -> X -> 0, Ext^1(X, Y) is Hom(OX, Y)
modulo the homs that extend to P.  Each basis row of Hom(P, Y) is cut into a
Hom, composed with the inclusion of OX and flattened again; solve_matrix
gives the coordinates of those restrictions in the cocycle basis, and the
cocycles off the pivots of those coordinates are the Ext^1 basis.  A class
theta has the corner blocks theta_{t(a)} d_a, d_a the defect of a section s
of the epi, inclusion d_a = P_a s_u - s_w X_a; its pushout middle is
(Y (+) P) / {(theta(z), -z) : z in OX}, built with no section and no block
layout, as the independent reference for every middle term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from syzex import linalg
from syzex.homology import projective_cover
from syzex.linalg import Matrix
from syzex.rep import Hom, Representation, hom_space

from conftest import solve_matrix, then
from property_suites import block_diag


@dataclass
class CoverExt:
    X: Representation
    Y: Representation
    cover: Representation
    inclusion: Hom  # OX -> P, OX's reduced basis per vertex as columns
    basis: tuple  # cocycle OX -> Y per basis class

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def classes(self) -> list:
        """Every coordinate tuple, in itertools.product order."""
        return list(itertools.product(range(self.X.algebra.p), repeat=self.dimension))

    def cocycle(self, coords) -> tuple:
        """The class's cocycle OX -> Y per vertex: the basis cocycles combined."""
        mats = linalg.combine(coords, [h.mats for h in self.basis])
        if mats is None:
            p = self.X.algebra.p
            mats = tuple(Matrix.zero(p, y, f.ncols) for y, f in zip(self.Y.dim, self.inclusion.mats))
        return mats

    def corners(self, coords) -> tuple:
        """theta_{t(a)} d_a per arrow a, theta the class's cocycle."""
        theta = self.cocycle(coords)
        return tuple(theta[w].mul(d) for (_, w), d in zip(self.X.algebra.quiver.ends, self.defects()))

    def defects(self) -> tuple:
        """d_a per arrow a: u -> w, from a section of the epi at each vertex."""
        x = self.X
        p = x.algebra.p
        epi = projective_cover(x).epi
        sections = []
        for v, e in enumerate(epi.mats):
            s = solve_matrix(e, Matrix.identity(p, x.dim[v]))
            assert s is not None, "cover epi admits no section"
            sections.append(s)
        out = []
        for ai, (u, w) in enumerate(x.algebra.quiver.ends):
            delta = self.cover.action[ai].mul(sections[u]).add(sections[w].mul(x.action[ai]).scale(p - 1))
            d = solve_matrix(self.inclusion.mats[w], delta)
            assert d is not None, "section defect not in the kernel"
            out.append(d)
        return tuple(out)

    def pushout_middle(self, coords) -> Representation:
        """The middle of the class: the pushout of P <- OX -> Y."""
        algebra = self.X.algebra
        p = algebra.p
        theta = self.cocycle(coords)
        projs, lifts = [], []
        for v in range(algebra.n_vertices):
            span = linalg.vstack([theta[v], self.inclusion.mats[v].scale(p - 1)])
            pr, lf = linalg.quotient_maps(span)
            projs.append(pr)
            lifts.append(lf)
        dims = tuple(pr.nrows for pr in projs)
        assert dims == tuple(a + b for a, b in zip(self.Y.dim, self.X.dim)), "pushout dimension mismatch"
        action = tuple(
            projs[w].mul(block_diag(p, [self.Y.action[ai], self.cover.action[ai]])).mul(lifts[u])
            for ai, (u, w) in enumerate(algebra.quiver.ends)
        )
        return Representation(algebra, dims, action)


def cover_ext1(x: Representation, y: Representation) -> CoverExt:
    """Ext^1(x, y) through x's projective cover."""
    p = x.algebra.p
    pres = projective_cover(x)
    omega = pres.kernel
    inclusion = Hom(omega, pres.cover, tuple(linalg.null_rows(e)[0].transpose() for e in pres.epi.mats))
    cocycles = hom_space(omega, y)
    basis = ()
    if cocycles.rows:
        size = sum(a * b for a, b in zip(omega.dim, y.dim))

        def columns(rows):
            return Matrix(p, len(rows), size, tuple(rows)).transpose()

        extended = [linalg.flat(p, then(inclusion, h).mats) for h in hom_space(pres.cover, y).basis]
        image = solve_matrix(columns(cocycles.rows), columns(extended))
        assert image is not None, "restricted hom outside Hom(OX, Y)"
        pivot = set(linalg.rref(image.transpose())[1])
        basis = tuple(cocycles.hom(row) for j, row in enumerate(cocycles.rows) if j not in pivot)
    return CoverExt(x, y, pres.cover, inclusion, basis)

