"""The subspace routes as they were before the Fitting pieces and the cover's
kernel were read straight off reduced vectors, kept as a test oracle: the
kernel through rref's back-substitution and a scatter of the reduced rows
(_kernel_rows), bases as matrix columns (column_space_basis, null_space),
cut per vertex by _vertex_blocks, and sub_rep finding each basis column's
pivot row entry by entry."""

from syzex.linalg import Matrix, rref
from syzex.rep import Hom, Representation


def _kernel_rows(red: Matrix, pivots: list, ncols: int) -> Matrix:
    """The kernel of a reduced matrix with these pivot columns, as rows.

    Row k is 1 at the k-th free column f, 0 at the other free columns, and
    minus the reduced entry in column f at each pivot column.
    """
    pivot_set = set(pivots)
    free = [f for f in range(ncols) if f not in pivot_set]
    p = red.p
    if p == 2:
        # scatter each reduced row's free bits into per-column pivot masks
        at_free = [0] * ncols
        for r, pc in enumerate(pivots):
            bit = 1 << pc
            m = red.rows[r] ^ bit
            while m:
                low = m & -m
                at_free[low.bit_length() - 1] |= bit
                m ^= low
        return Matrix(p, len(free), ncols, tuple([at_free[f] | 1 << f for f in free]))
    rows = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.entry(r, f) % p
        rows.append(v)
    return Matrix.from_rows(p, rows) if rows else Matrix.zero(p, 0, ncols)


def kernel_basis(m: Matrix) -> Matrix:
    return _kernel_rows(*rref(m), m.ncols)


def _reverse_cols(m: Matrix) -> Matrix:
    """m with its columns in reverse order, read and written entry by entry."""
    n = m.ncols
    rows = [[m.entry(i, n - 1 - j) for j in range(n)] for i in range(m.nrows)]
    return Matrix.from_rows(m.p, rows) if rows else Matrix.zero(m.p, 0, n)


def null_space(m: Matrix) -> Matrix:
    """Canonical basis of {v : m v = 0} as matrix columns: the kernel rows of
    the column-reversed matrix, reversed back and read in reverse order."""
    ker = _reverse_cols(kernel_basis(_reverse_cols(m)))
    return Matrix(m.p, ker.nrows, m.ncols, ker.rows[::-1]).transpose()


def column_space_basis(m: Matrix) -> Matrix:
    """Canonical basis of the column space, returned as matrix columns."""
    red, pivots = rref(m.transpose())
    return Matrix(m.p, len(pivots), m.nrows, red.rows[:len(pivots)]).transpose()


def sub_rep(m: Representation, bases) -> tuple:
    """Subrepresentation on canonical per-vertex bases given as columns
    (must be invariant); returns (rep, inclusion hom)."""
    algebra = m.algebra
    q = algebra.quiver
    p = algebra.p
    # basis column r is 1 at its pivot row and 0 at the other pivot rows, so
    # a vector of the span has its coordinates at the pivot rows; column r's
    # pivot is the first row past column r-1's with a nonzero entry in column r
    pivots = []
    for b in bases:
        rows = []
        for i in range(b.nrows):
            if len(rows) < b.ncols and b.entry(i, len(rows)):
                rows.append(i)
        pivots.append(rows)
    dim = tuple(b.ncols for b in bases)
    action = []
    for ai in range(len(q.arrows)):
        u, w = q.arrow_source(ai), q.arrow_target(ai)
        image = m.action[ai].mul(bases[u])
        sol = Matrix(p, dim[w], dim[u], tuple(image.rows[i] for i in pivots[w]))
        if bases[w].mul(sol) != image:
            raise AssertionError("spans are not arrow-invariant")
        action.append(sol)
    rep = Representation(algebra, dim, tuple(action))
    return rep, Hom(rep, m, tuple(bases))


def _vertex_blocks(m: Representation, basis: Matrix) -> list:
    """Per vertex v, the columns of basis that lie in M_v, cut to M_v's
    coordinates: every column lies in one M_v, in vertex order, so they run
    from the first column no earlier vertex took to the last with an entry
    in M_v's rows."""
    p = basis.p
    blocks = []
    start = k = 0
    for d in m.dim:
        if p == 2:
            rows = basis.rows[start:start + d]
            j = max([k, *map(int.bit_length, rows)])
            blocks.append(Matrix(p, d, j - k, tuple([r >> k for r in rows])))
        else:
            rows = [basis.row(i) for i in range(start, start + d)]
            j = k
            for r in rows:
                i = len(r)
                while i > j and not r[i - 1]:
                    i -= 1
                j = i
            blocks.append(Matrix.from_rows(p, [r[k:j] for r in rows]) if d else Matrix.zero(p, 0, j - k))
        start, k = start + d, j
    return blocks


def fitting_pieces(m: Representation, f: Matrix) -> tuple:
    """The image and kernel pieces of a stable block-diagonal power f of an
    endomorphism of m, through the column bases."""
    im_rep, _ = sub_rep(m, _vertex_blocks(m, column_space_basis(f)))
    ker_rep, _ = sub_rep(m, _vertex_blocks(m, null_space(f)))
    return im_rep, ker_rep
