"""Exact dense linear algebra over prime fields GF(p), and the one module
that knows how a matrix row is stored.

Row layouts.  Over GF(2) a row is a bit mask, a python int whose bit j is
entry j.  Over GF(3) it is bit-sliced (Boothby and Bradshaw,
arXiv:0901.1413): a (ones, twos) pair of masks, bit j of ones set where
entry j is 1 and of twos where it is 2, never both, and no bit at or beyond
the row's length.  Pairs are added by _add3 in seven boolean operations and
negated by swapping the masks; whatever only moves entries (transpose, flat
and unflat, block_diagonal, stripe, block_spans) moves both masks as the
GF(2) code moves one, inline, which measured faster than splitting a matrix
into two GF(2) planes.  Over larger p a row is a tuple of residues.
Other modules build and read rows only through this module, whose
functions keep the route measured fastest for each layout:
Matrix.from_entries writes sparse entries and nonzeros reads them, stripe
sets blocks side by side, derivations builds delta0, whose kernel is Hom
and whose image is Ext^1's coboundaries, block_spans cuts the bases of
invariant subspaces out per vertex, and rref_pool enumerates full-rank
RREFs.  moved_rrefs, which multiplies such RREFs by a matrix and reduces
them back, and sub_action, which restricts arrow matrices to invariant
subspaces, have no layout of their own: one runs mul and the reduction,
the other reads each arrow's images by coordinates, one route for every
p.

Matrices are immutable.  Row reduction uses deterministic pivoting (first
nonzero entry in column order), so every derived basis is canonical.  rref
returns the pivot columns with the reduced matrix, and pivots the columns
alone.  kernel_basis, the one kernel entry point, returns a basis in the
system's row layout, one vector per row, with the free column of each;
null_rows, the reduced echelon basis of the kernel with the pivot column
of each row, is rref of those rows, a second reduction.  A coordinate is
the entry at a pivot: coordinates reads a vector's coefficients in a basis
whose vectors are each 1 at their own pivot and 0 at the others' (a kernel
row's free column is such a pivot), and one product checks them; no
general solver is kept.

Matrices met on the syzygy path are large and sparse, so the kernel rows,
products and mask elimination do work in proportion to the nonzero entries
of each row, not to its length.  Every layout shares one forward pass,
_echelon (_echelon3 on pairs): rank counts its pivots, pivots reads them,
rref back-substitutes over them (_reduced), and kernel_basis reads the
kernel off them: over GF(2) by a back-solve, one mask per column over the
kernel vectors, over GF(3) off _reduced's rows, one mask pair per free
column (_kernel3), over larger p off rref.

The Hom coordinate layout is decided here too: flat lays a tuple of
matrices out as one row, row-major and concatenated, and unflat cuts a
block back out, as Ext^1 cuts its corners; block_diagonal sets the square
blocks of such a row down the diagonal of one matrix, as the split search
and the iso test read End(M) and Hom(M, N).  Matrix.key packs flat's row,
one bit per entry over GF(2), one byte per entry otherwise; keys of equal
shape compare as one-byte-per-entry keys would.
"""

from __future__ import annotations

import functools
import itertools

from .errors import SpecError

# Miller-Rabin with the first 13 prime bases decides every n below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; SpecError at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise SpecError("%d is too large to certify as a prime (the bound is %d)" % (n, _MR_BOUND))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(%d)" % p)
    return pow(a, p - 2, p)


class Matrix:
    """Dense matrix over GF(p); entries are plain ints in [0, p)."""

    __slots__ = ("p", "nrows", "ncols", "rows")

    def __init__(self, p, nrows, ncols, rows):
        # rows: tuple of int bit masks when p == 2, of (ones, twos) mask pairs
        # when p == 3, else of tuples
        self.p = p
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    # -- construction ------------------------------------------------

    @staticmethod
    def from_rows(p: int, data) -> "Matrix":
        """The matrix with these rows of ints, each entry taken mod p, written
        by from_entries; ValueError on ragged rows."""
        data = [list(r) for r in data]
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return Matrix.from_entries(p, len(data), ncols, [(i, j, c) for i, r in enumerate(data) for j, c in enumerate(r)])

    @staticmethod
    def from_entries(p: int, nrows: int, ncols: int, entries) -> "Matrix":
        """The matrix with entry c mod p at each (i, j, c) of entries, which
        name distinct positions, and 0 elsewhere: each entry is written
        straight into its row, as a bit over GF(2) and GF(3), the latter in
        the plane of its value, as a list slot over larger p."""
        if p == 2:
            rows = [0] * nrows
            for i, j, c in entries:
                if c & 1:
                    rows[i] |= 1 << j
            return Matrix(2, nrows, ncols, tuple(rows))
        if p == 3:
            planes = ([0] * nrows, [0] * nrows)
            for i, j, c in entries:
                c %= 3
                if c:
                    planes[c - 1][i] |= 1 << j
            return Matrix(3, nrows, ncols, tuple(zip(*planes)))
        rows = [[0] * ncols for _ in range(nrows)]
        for i, j, c in entries:
            rows[i][j] = c % p
        return Matrix(p, nrows, ncols, tuple(map(tuple, rows)))

    @staticmethod
    def zero(p: int, nrows: int, ncols: int) -> "Matrix":
        return Matrix(p, nrows, ncols, (0 if p == 2 else (0, 0) if p == 3 else (0,) * ncols,) * nrows)

    @staticmethod
    def identity(p: int, n: int) -> "Matrix":
        return Matrix.from_entries(p, n, n, [(i, i, 1) for i in range(n)])

    # -- access ------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if self.p == 2:
            return (self.rows[i] >> j) & 1
        if self.p == 3:
            ones, twos = self.rows[i]
            return (ones >> j & 1) | (twos >> j & 1) << 1
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        if self.p == 2:
            return _unpack(self.rows[i], self.ncols)
        if self.p == 3:
            return _unpack3(*self.rows[i], self.ncols)
        return self.rows[i]

    def tolist(self) -> list:
        """The rows as lists of ints, as a module file writes them; over GF(2)
        and GF(3) each list is built once from its row's masks."""
        if self.p == 2:
            return [list(_bits(r, self.ncols)) for r in self.rows]
        if self.p == 3:
            return [list(_trits(o, t, self.ncols)) for o, t in self.rows]
        return [list(r) for r in self.rows]

    def key(self) -> bytes:
        """flat's row as bytes: over GF(2) one bit per entry, most significant
        bit first, the last byte zero-padded; one byte per entry for other
        p <= 256, fixed-width big-endian above.  Keys of equal-shape matrices
        compare and test equal as their entry sequences do."""
        if self.p == 2:
            # little-endian bytes, each byte's bits reversed, put bit 0 first
            row = flat(2, (self,))
            return row.to_bytes((self.nrows * self.ncols + 7) // 8, "little").translate(_BIT_REVERSED)
        # flat's row-major order, written row by row
        if self.p == 3:
            return b"".join([_trits(o, t, self.ncols) for o, t in self.rows])
        if self.p <= 256:
            return b"".join(map(bytes, self.rows))
        width = ((self.p - 1).bit_length() + 7) // 8
        return b"".join([x.to_bytes(width, "big") for r in self.rows for x in r])

    def is_zero(self) -> bool:
        if self.p == 2:
            return all(r == 0 for r in self.rows)
        # a pair is (0, 0) exactly when its row is zero
        return not any(map(any, self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.p == other.p
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return "Matrix(GF(%d), %dx%d)" % (self.p, self.nrows, self.ncols)

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        p = self.p
        if p == 2:
            rows = tuple(a ^ b for a, b in zip(self.rows, other.rows))
        elif p == 3:
            rows = tuple([_add3(a1, a2, b1, b2) for (a1, a2), (b1, b2) in zip(self.rows, other.rows)])
        else:
            rows = tuple([tuple([(a + b) % p for a, b in zip(r, s)]) for r, s in zip(self.rows, other.rows)])
        return Matrix(p, self.nrows, self.ncols, rows)

    def scale(self, c: int) -> "Matrix":
        """c times self; over GF(3), 2 = -1 swaps each row's masks."""
        p = self.p
        c %= p
        if c == 1:
            return self
        if c == 0:
            return Matrix.zero(p, self.nrows, self.ncols)
        if p == 3:
            return Matrix(3, self.nrows, self.ncols, tuple([(t, o) for o, t in self.rows]))
        return Matrix(p, self.nrows, self.ncols, tuple([tuple([c * a % p for a in r]) for r in self.rows]))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %dx%d * %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        if self.p != other.p:
            raise ValueError("mixed characteristics")
        if self.p == 2:
            orows = other.rows
            out = []
            for m in self.rows:
                acc = 0
                while m:
                    low = m & -m
                    acc ^= orows[low.bit_length() - 1]
                    m ^= low
                out.append(acc)
            return Matrix(2, self.nrows, other.ncols, tuple(out))
        if self.p == 3:
            # other's row k added at each 1 in column k, subtracted at each 2
            orows = other.rows
            out = []
            for o, t in self.rows:
                m = o | t
                if not m:
                    out.append((0, 0))
                    continue
                low = m & -m
                a1, a2 = orows[low.bit_length() - 1]
                if t & low:
                    a1, a2 = a2, a1
                m ^= low
                while m:
                    low = m & -m
                    b1, b2 = orows[low.bit_length() - 1]
                    a1, a2 = _add3(a1, a2, b2, b1) if t & low else _add3(a1, a2, b1, b2)
                    m ^= low
                out.append((a1, a2))
            return Matrix(3, self.nrows, other.ncols, tuple(out))
        p = self.p
        ocols = other.ncols
        orows = other.rows
        zero = (0,) * ocols
        out = []
        for r in self.rows:
            # rows are sparse: a zero row or a single entry needs no sum
            nonzero = len(r) - r.count(0)
            if not nonzero:
                out.append(zero)
            elif nonzero == 1:
                a = next(filter(None, r))
                orow = orows[r.index(a)]
                out.append(orow if a == 1 else tuple([a * x % p for x in orow]))
            else:
                row = [0] * ocols
                for k, a in enumerate(r):
                    if a:
                        orow = orows[k]
                        for j in range(ocols):
                            row[j] += a * orow[j]
                out.append(tuple([x % p for x in row]))
        return Matrix(p, self.nrows, ocols, tuple(out))

    def transpose(self) -> "Matrix":
        if self.p == 2:
            rows = [0] * self.ncols
            for i, m in enumerate(self.rows):
                bit = 1 << i
                while m:
                    low = m & -m
                    rows[low.bit_length() - 1] |= bit
                    m ^= low
            return Matrix(2, self.ncols, self.nrows, tuple(rows))
        if self.p == 3:
            ones, twos = [0] * self.ncols, [0] * self.ncols
            for i, (o, t) in enumerate(self.rows):
                bit = 1 << i
                while o:
                    low = o & -o
                    ones[low.bit_length() - 1] |= bit
                    o ^= low
                while t:
                    low = t & -t
                    twos[low.bit_length() - 1] |= bit
                    t ^= low
            return Matrix(3, self.ncols, self.nrows, tuple(zip(ones, twos)))
        rows = tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols
        return Matrix(self.p, self.ncols, self.nrows, rows)

    def _shape_check(self, other: "Matrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols or self.p != other.p:
            raise ValueError("shape/field mismatch")

    def rank(self) -> int:
        return len(_echelon(self.p, self.rows))


def _bits(mask: int, n: int) -> bytes:
    """Entry j of an n-entry GF(2) row as byte j, 0 or 1."""
    # bit n is a sentinel that keeps the leading zeros
    return bin(mask | 1 << n)[:2:-1].encode().translate(_BIT_DIGITS)


def _unpack(mask: int, n: int) -> tuple:
    return tuple(_bits(mask, n))


_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_BIT_REVERSED = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))


@functools.lru_cache(maxsize=1024)
def _trits(ones: int, twos: int, n: int) -> bytes:
    """Entry j of an n-entry GF(3) row, given as its (ones, twos) pair, as
    byte j; memoized, as module keys read the same few short rows over and
    over."""
    # entry j of each plane as byte j, summed with no carry between bytes
    both = int.from_bytes(_bits(ones, n), "little") + 2 * int.from_bytes(_bits(twos, n), "little")
    return both.to_bytes(n, "little")


def _unpack3(ones: int, twos: int, n: int) -> tuple:
    return tuple(_trits(ones, twos, n))


def nonzeros(p: int, row) -> list:
    """(column, entry) for each nonzero entry of a row, in column order."""
    if p == 2:
        out = []
        while row:
            low = row & -row
            out.append((low.bit_length() - 1, 1))
            row ^= low
        return out
    if p == 3:
        ones, row, out = row[0], row[0] | row[1], []
        while row:
            low = row & -row
            out.append((low.bit_length() - 1, 1 if ones & low else 2))
            row ^= low
        return out
    return [(j, c) for j, c in enumerate(row) if c]


def flat(p: int, mats):
    """The entries of mats, each row-major, concatenated into one row: over
    GF(2) a bit mask, entry (i, j) of a block at offset off being bit
    off + i * ncols + j, over GF(3) a pair of such masks, over larger p a
    tuple."""
    if p == 3:
        ones = twos = off = 0
        for m in mats:
            for o, t in m.rows:
                ones |= o << off
                twos |= t << off
                off += m.ncols
        return ones, twos
    if p == 2:
        out = off = 0
        for m in mats:
            for r in m.rows:
                out |= r << off
                off += m.ncols
        return out
    out = []
    for m in mats:
        for r in m.rows:
            out += r
    return tuple(out)


def unflat(p: int, row, off: int, nrows: int, ncols: int) -> Matrix:
    """The nrows x ncols block of a flat row that starts at entry off."""
    if p == 3:
        mask = (1 << ncols) - 1
        ones, twos = row[0] >> off, row[1] >> off
        return Matrix(3, nrows, ncols, tuple([(ones >> i * ncols & mask, twos >> i * ncols & mask) for i in range(nrows)]))
    if p == 2:
        mask = (1 << ncols) - 1
        row >>= off
        return Matrix(2, nrows, ncols, tuple([(row >> (i * ncols)) & mask for i in range(nrows)]))
    return Matrix(p, nrows, ncols, tuple([row[off + i * ncols:off + (i + 1) * ncols] for i in range(nrows)]))


def block_diagonal(p: int, row, offsets, dims) -> Matrix:
    """The square blocks of a flat row, dims[v] x dims[v] starting at entry
    offsets[v], as one block-diagonal matrix, the blocks in order."""
    n = sum(dims)
    rows = []
    at = 0
    for off, d in zip(offsets, dims):
        if p == 2:
            mask = (1 << d) - 1
            block = row >> off
            rows += [(block >> i * d & mask) << at for i in range(d)]
        elif p == 3:
            mask = (1 << d) - 1
            ones, twos = row[0] >> off, row[1] >> off
            rows += [((ones >> i * d & mask) << at, (twos >> i * d & mask) << at) for i in range(d)]
        else:
            pad, end = (0,) * at, (0,) * (n - at - d)
            rows += [pad + row[off + i * d:off + (i + 1) * d] + end for i in range(d)]
        at += d
    return Matrix(p, n, n, tuple(rows))


def hstack(mats: list) -> Matrix:
    p = mats[0].p
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("row count mismatch")
    pieces = []
    ncols = 0
    for m in mats:
        pieces.append((m, ncols))
        ncols += m.ncols
    return Matrix(p, nrows, ncols, tuple(stripe(p, ncols, pieces)))


def stripe(p: int, ncols: int, pieces) -> list:
    """The one block-row assembler: rows of equal-height blocks placed side by
    side, pieces being (matrix, column offset) in increasing offset order,
    zeros elsewhere.  A row is one shifted OR of bit masks over GF(2), one
    per mask over GF(3), one zero-padded tuple concatenation over larger p."""
    rows = range(pieces[0][0].nrows)
    out = []
    if p == 2:
        for r in rows:
            row = 0
            for m, off in pieces:
                row |= m.rows[r] << off
            out.append(row)
        return out
    if p == 3:
        for r in rows:
            ones = twos = 0
            for m, off in pieces:
                o, t = m.rows[r]
                ones |= o << off
                twos |= t << off
            out.append((ones, twos))
        return out
    for r in rows:
        row = ()
        for m, off in pieces:
            row += (0,) * (off - len(row)) + m.rows[r]
        out.append(row + (0,) * (ncols - len(row)))
    return out


def vstack(mats: list) -> Matrix:
    p = mats[0].p
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("column count mismatch")
    rows = []
    for m in mats:
        rows.extend(m.rows)
    return Matrix(p, sum(m.nrows for m in mats), ncols, tuple(rows))


def combine(coeffs, terms) -> tuple | None:
    """sum_t coeffs[t] * terms[t] for terms that are equal-shape tuples of
    matrices; None when every coefficient is 0."""
    acc = None
    for c, mats in zip(coeffs, terms):
        if c:
            scaled = tuple([m.scale(c) for m in mats])
            acc = scaled if acc is None else tuple([a.add(b) for a, b in zip(acc, scaled)])
    return acc


def _echelon(p: int, rows) -> dict:
    """Forward pass: lead -> pivot row, each row reduced by the pivot at its
    lead until the lead is new or the row is 0.  The lead is the lowest set
    bit over GF(2) and GF(3) (_echelon3), else the first nonzero column,
    scaled to 1."""
    if p == 3:
        return _echelon3(rows)
    piv = {}
    if p == 2:
        for r in rows:
            while r:
                low = r & -r
                q = piv.get(low)
                if q is None:
                    piv[low] = r
                    break
                r ^= q
        return piv
    for r in rows:
        a = next(filter(None, r), 0)
        while a and r.index(a) in piv:
            r = tuple([(x - a * y) % p for x, y in zip(r, piv[r.index(a)])])
            a = next(filter(None, r), 0)
        if a:
            inv = inv_mod(a, p)
            piv[r.index(a)] = r if inv == 1 else tuple([x * inv % p for x in r])
    return piv


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form with its pivot columns, one per nonzero row.

    Pivots are the first nonzero entry in column order, giving a unique
    canonical form: _reduced's rows, then zero rows.
    """
    rows, leads = _reduced(m.p, m.rows)
    zeros = Matrix.zero(m.p, m.nrows - len(rows), m.ncols).rows
    return Matrix(m.p, m.nrows, m.ncols, tuple(rows) + zeros), _lead_columns(m.p, leads)


def pivots(m: Matrix) -> list:
    """rref's pivot columns, read off _echelon's forward pass with no
    back-substitution."""
    return _lead_columns(m.p, sorted(_echelon(m.p, m.rows)))


def _lead_columns(p: int, leads) -> list:
    """The columns of _echelon's sorted leads."""
    return leads if p > 3 else [low.bit_length() - 1 for low in leads]


def _reduced(p: int, rows) -> tuple:
    """The nonzero rows of the reduced row echelon form of rows, in pivot
    order, with _echelon's leads (each pivot's bit over GF(2) and GF(3), its
    column otherwise): _echelon's rows back-substituted from the last pivot.
    Equal row spaces give equal rows."""
    piv = _echelon(p, rows)
    leads = sorted(piv)
    if p == 3:
        done = 0
        for low in reversed(leads):
            o, t = piv[low]
            later = (o | t) & done
            while later:
                b = later & -later
                qo, qt = piv[b]
                # entry 1: subtract the pivot row; entry 2: add it
                o, t = _add3(o, t, qt, qo) if o & b else _add3(o, t, qo, qt)
                later ^= b
            piv[low] = (o, t)
            done |= low
        return [piv[low] for low in leads], leads
    if p == 2:
        done = 0
        for low in reversed(leads):
            r = piv[low]
            later = r & done
            while later:
                b = later & -later
                r ^= piv[b]
                later ^= b
            piv[low] = r
            done |= low
        return [piv[low] for low in leads], leads
    for k in reversed(range(len(leads))):
        r = piv[leads[k]]
        for d in leads[k + 1:]:
            f = r[d]
            if f:
                r = tuple([(x - f * y) % p for x, y in zip(r, piv[d])])
        piv[leads[k]] = r
    return [piv[c] for c in leads], leads


def kernel_basis(m: Matrix) -> tuple:
    """Canonical basis of {v : m v = 0}, one vector per row in m's row
    layout, with its free columns f_1 < ... < f_q.

    Row k is 1 at f_k, 0 at the other free columns, and the unique solution
    at the pivot columns, so its last nonzero entry is at f_k.  Over GF(2)
    that solution is read off _echelon's forward pass by one bit-sliced
    back-solve: per column j a mask of the rows k with entry j set, found
    for the pivot columns last to first, a pivot's mask the XOR of the masks
    at the other set bits of its row, all of which lie to its right.  Over
    odd p row k holds minus rref's reduced entry in column f_k at each pivot
    column, over GF(3) read off _reduced's pairs (_kernel3).
    """
    n, p = m.ncols, m.p
    if p == 3:
        return _kernel3(m.rows, n)
    if p != 2:
        red, pivots = rref(m)
        pivot_set = set(pivots)
        free = [f for f in range(n) if f not in pivot_set]
        rows = []
        for f in free:
            v = [0] * n
            v[f] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][f] % p
            rows.append(tuple(v))
        return Matrix(p, len(rows), n, tuple(rows)), free
    piv = _echelon(2, m.rows)
    leads = sorted(piv)
    at = [0] * n
    rows, free = [], []
    rest = ((1 << n) - 1) ^ sum(leads)
    while rest:
        low = rest & -rest
        at[low.bit_length() - 1] = 1 << len(rows)
        rows.append(low)
        free.append(low.bit_length() - 1)
        rest ^= low
    if not rows:  # full column rank
        return Matrix(2, 0, n, ()), free
    for low in reversed(leads):
        r = piv[low] ^ low
        acc = 0
        while r:
            b = r & -r
            acc ^= at[b.bit_length() - 1]
            r ^= b
        at[low.bit_length() - 1] = acc
        # the pivot's entry goes into every row its mask names
        while acc:
            b = acc & -acc
            rows[b.bit_length() - 1] |= low
            acc ^= b
    return Matrix(2, len(rows), n, tuple(rows)), free


def _add3(a1: int, a2: int, b1: int, b2: int) -> tuple:
    """The (ones, twos) pair of a + b over GF(3), for a = (a1, a2) and
    b = (b1, b2); a - b is a + (b2, b1)."""
    x = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ x, (a1 | b1) ^ x


def _echelon3(pairs) -> dict:
    """_echelon over GF(3) on (ones, twos) pairs: lead -> pivot pair, its
    lead entry 1.  A row whose lead is 2 is negated (its masks swapped)
    before it is stored or reduced, so a reduction always subtracts; the
    subtraction is _add3 of the swapped pivot, written out.  ValueError on a
    pair with a bit set in both masks, whose lead no reduction would clear."""
    piv = {}
    for o, t in pairs:
        if o & t:
            raise ValueError("GF(3) row pair has entries that are both 1 and 2: %#x" % (o & t))
        m = o | t
        while m:
            low = m & -m
            if t & low:
                o, t = t, o
            q = piv.get(low)
            if q is None:
                piv[low] = (o, t)
                break
            qo, qt = q
            x = (o | qo) ^ (t | qt)
            o, t = (t | qo) ^ x, (o | qt) ^ x
            m = o | t
    return piv


def _kernel3(pairs, n: int) -> tuple:
    """kernel_basis of a GF(3) system of n columns given as (ones, twos)
    pairs, one per equation.

    Minus _reduced's entries at a free column f are row f's entries at the
    pivots, so each reduced row's set bits off its pivot are read once into
    per-free-column masks.
    """
    rows, leads = _reduced(3, pairs)
    ones, twos = {}, {}
    for low, (o, t) in zip(leads, rows):
        # a reduced 1 at f puts -1 = 2 at this pivot in row f, a 2 puts 1
        o ^= low
        while o:
            f = o & -o
            twos[f] = twos.get(f, 0) | low
            o ^= f
        while t:
            f = t & -t
            ones[f] = ones.get(f, 0) | low
            t ^= f
    kernel, free = [], []
    rest = ((1 << n) - 1) ^ sum(leads)
    while rest:
        f = rest & -rest
        kernel.append((ones.get(f, 0) | f, twos.get(f, 0)))
        free.append(f.bit_length() - 1)
        rest ^= f
    return Matrix(3, len(kernel), n, tuple(kernel)), free


def derivations(p: int, ends, x_dim, x_mats, y_dim, y_mats) -> tuple:
    """delta0, the map f |-> (f_w X_a - Y_a f_u)_a on the maps
    f = (f_v: X_v -> Y_v), ends[a] being (u, w) and X_a, Y_a the matrices
    x_mats[a], y_mats[a]: (matrix, offsets), its columns in flat's layout
    of (f_v), f_v's block starting at offsets[v], and one row per entry
    (i, j) of each f_w X_a - Y_a f_u, zero rows kept, so the rows are laid
    out as flat lays out Ext^1's corners.  Hom(X, Y) is its kernel, and its
    columns span Ext^1's coboundaries.

    Row (a, i, j) is column j of X_a at row i of f_w, minus Y_a's row i
    spread over column j of f_u; where a loop meets one unknown from both
    sides, the two entries are summed.  X_a's columns are its transpose's
    rows at every p.  Over GF(2) a row is one bit mask.  Over GF(3) it is a
    (ones, twos) pair, X_a's column pair and -Y_a's row spread from its set
    bits, summed by _add3.  Over larger p it is a tuple."""
    off = list(itertools.accumulate((a * b for a, b in zip(x_dim, y_dim)), initial=0))
    total = off.pop()
    rows = []
    for (u, w), xa, ya in zip(ends, x_mats, y_mats):
        dxu, dxw = x_dim[u], x_dim[w]
        xa_cols = xa.transpose().rows
        for i, ya_row in enumerate(ya.rows):
            base_w = off[w] + i * dxw
            if p == 2:
                # Y_a's row i with bit l moved to bit l * dxu, f_u[l][j]'s offset less j
                spread = _spread(ya_row, dxu)
                rows += [(xa_cols[j] << base_w) ^ (spread << (off[u] + j)) for j in range(dxu)]
            elif p == 3:
                # -Y_a's row i spread as over GF(2), -1 = 2 and -2 = 1 swapping the masks
                neg1, neg2 = _spread(ya_row[1], dxu), _spread(ya_row[0], dxu)
                for j, (o, t) in enumerate(xa_cols):
                    a1, a2, b1, b2 = o << base_w, t << base_w, neg1 << off[u] + j, neg2 << off[u] + j
                    # the two sides meet at one unknown only on a loop
                    rows.append(_add3(a1, a2, b1, b2) if u == w else (a1 | b1, a2 | b2))
            else:
                negs = [(off[u] + l * dxu, p - c) for l, c in enumerate(ya_row) if c]
                for j in range(dxu):
                    row = [0] * total
                    row[base_w:base_w + dxw] = xa_cols[j]
                    for at, c in negs:
                        row[at + j] = (row[at + j] + c) % p
                    rows.append(tuple(row))
    return Matrix(p, len(rows), total, tuple(rows)), tuple(off)


def _spread(mask: int, step: int) -> int:
    """mask with bit l moved to bit l * step."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (low.bit_length() - 1) * step
        mask ^= low
    return out


def null_rows(m: Matrix) -> tuple:
    """The reduced echelon basis of {v : m v = 0}, one vector per row, with
    the pivot column of each row: rref of kernel_basis, whose rows are
    independent, so no zero row is added, and a row space has one RREF."""
    return rref(kernel_basis(m)[0])


def coordinates(basis: Matrix, pivots, vectors: Matrix) -> Matrix | None:
    """X with basis X = vectors, or None if a column of vectors is outside
    the span of basis's columns, column k of basis being 1 at row pivots[k]
    and 0 at the other pivot rows: X is vectors' rows at the pivots, and one
    product checks that it recombines to vectors."""
    x = Matrix(vectors.p, len(pivots), vectors.ncols, tuple([vectors.rows[c] for c in pivots]))
    return x if basis.mul(x) == vectors else None


def sub_action(p: int, ends, mats, spans) -> list | None:
    """Each matrix mats[a]: V_u -> V_w, ends[a] being (u, w), restricted to
    subspaces given per vertex v as (rows, pivots), a reduced echelon basis
    of a subspace of V_v, one vector per row, with the pivot of each row:
    the X with mats[a] B_u = B_w X, B_v the basis as columns, read by
    coordinates at the pivots of w; None as soon as some mats[a] B_u leaves
    the span of B_w.  Each span is transposed once, whatever the field p."""
    bases = [rows.transpose() for rows, _ in spans]
    out = []
    for (u, w), mat in zip(ends, mats):
        x = coordinates(bases[w], spans[w][1], mat.mul(bases[u]))
        if x is None:
            return None
        out.append(x)
    return out


def block_spans(basis: Matrix, pivots, widths) -> list:
    """sub_action's spans, per column block of the given widths in order,
    from the first len(pivots) rows of basis, reduced vectors that each lie
    in one block: a vector goes to the block of its pivot, cut to that
    block's columns."""
    p, rows = basis.p, basis.rows
    spans = []
    k = start = 0
    for d in widths:
        j = k
        while j < len(pivots) and pivots[j] < start + d:
            j += 1
        if p == 2:
            cut = tuple([r >> start for r in rows[k:j]])
        elif p == 3:
            cut = tuple([(o >> start, t >> start) for o, t in rows[k:j]])
        else:
            cut = tuple([r[start:start + d] for r in rows[k:j]])
        spans.append((Matrix(p, j - k, d, cut), [c - start for c in pivots[k:j]]))
        k, start = j, start + d
    return spans


def quotient_maps(sub: Matrix) -> tuple:
    """Projection/lift pair for k^n -> k^n / colspace(sub).

    Returns (proj, lift) with proj of shape q x n, lift of shape n x q,
    proj . lift = I and ker(proj) = colspace(sub).  The quotient is
    coordinatized by the free columns f_1 < ... < f_q of sub^T: lift column
    i is e_{f_i}, and proj is the canonical kernel basis of sub^T (row i is
    1 at f_i and 0 at the other free columns), the only projection with
    that kernel and that lift.
    """
    proj, free = kernel_basis(sub.transpose())
    return proj, Matrix.from_entries(sub.p, sub.nrows, len(free), [(f, i, 1) for i, f in enumerate(free)])


def rref_pool(p: int, nrows: int, ncols: int) -> list:
    """Every full-rank nrows x ncols reduced row echelon form, as a tuple of
    rows: the pivot columns in itertools.combinations order, then the
    entries right of each pivot and off the other pivots, row by row, in
    itertools.product order.  Each row's choices are built once per pivot
    set, and an RREF is a product of them."""
    pool = []
    if nrows > ncols:
        return pool
    for pivots in itertools.combinations(range(ncols), nrows):
        choices = []
        for c in pivots:
            slots = [f for f in range(c + 1, ncols) if f not in pivots]
            vals = list(itertools.product(range(p), repeat=len(slots)))
            entries = [(t, f, v) for t, vs in enumerate(vals) for f, v in zip([c] + slots, (1,) + vs)]
            choices.append(Matrix.from_entries(p, len(vals), ncols, entries).rows)
        pool += itertools.product(*choices)
    return pool


def moved_rrefs(pool, g: Matrix) -> list:
    """The rows of each pool entry, a tuple of rows of g's width, times g,
    reduced back to RREF, as a tuple."""
    p, n = g.p, g.nrows
    return [tuple(_reduced(p, Matrix(p, len(rows), n, rows).mul(g).rows)[0]) for rows in pool]
