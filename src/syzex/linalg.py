"""Exact dense linear algebra over prime fields GF(p), and the one module
that knows how a matrix row is stored.

Row layouts.  Over GF(2) a row is a bit mask, a python int whose bit j is
entry j.  Over GF(3) it is bit-sliced (Boothby and Bradshaw,
arXiv:0901.1413): a (ones, twos) pair of masks, bit j of ones set where
entry j is 1 and of twos where it is 2, never both, and no bit at or beyond
the row's length; pairs are added by _add3 in seven boolean operations and
negated by swapping the masks.  Over larger p a row is one int of lanes,
entry j, below p, in bits jL to jL + L - 1 for L = _width(p), whole bytes
of at least 4 bits(p) + 4 bits.  A row operation leaves a few products
below p^2 in a lane, which carries into no other, and one product, shift
and mask give every lane's exact Barrett quotient by p at once (_barrett:
the simultaneous reduction of Dumas, Fousse and Salvy, J. Symb. Comp. 46,
2011), so it is a handful of big-int operations whatever the row's length.
Whatever only moves entries (transpose, flat and unflat, block_diagonal,
stripe, block_spans) shifts lanes by L where GF(2) shifts bits by 1, and
moves both masks of a GF(3) pair as GF(2) moves one; a row's bytes give
its entries for row, tolist and key.  Other modules build and read rows
only through this module: Matrix.from_entries writes sparse entries and
nonzeros reads them, stripe sets blocks side by side, derivations builds
delta0, whose kernel is Hom and whose image is Ext^1's coboundaries,
block_spans cuts the bases of invariant subspaces out per vertex, and
rref_pool enumerates full-rank RREFs.  moved_rrefs and sub_action have no
layout of their own: one runs mul and the reduction, the other reads each
arrow's images by coordinates.

Matrices are immutable.  Row reduction uses deterministic pivoting (first
nonzero entry in column order), so every derived basis is canonical.  rref
returns the pivot columns with the reduced matrix, and pivots the columns
alone.  kernel_basis, the one kernel entry point, returns a basis in the
system's row layout, one vector per row, with the free column of each;
null_rows, the reduced echelon basis of the kernel, is rref of those rows.
A coordinate is the entry at a pivot: coordinates reads a vector's
coefficients in a basis whose vectors are each 1 at their own pivot and 0
at the others' (a kernel row's free column is such a pivot), and one
product checks them; no general solver is kept.

Rows are walked by their set bits or nonzero lanes, so products, kernels
and elimination do work in proportion to the nonzero entries of each row,
not to its length.  Every layout shares one forward pass, _echelon
(_echelon3 on pairs): rank counts its pivots, pivots reads them, rref
back-substitutes over them (_reduced), and kernel_basis reads the kernel
off them by a back-solve, one mask or lane row per column over the kernel
vectors, or over GF(3) off _reduced's pairs (_kernel3).

The Hom coordinate layout is decided here too: flat lays a tuple of
matrices out as one row, row-major and concatenated, and unflat cuts a
block back out, as Ext^1 cuts its corners; block_diagonal sets the square
blocks of such a row down the diagonal of one matrix, as the split search
and the iso test read End(M) and Hom(M, N).  Matrix.key packs flat's row,
one bit per entry over GF(2), one byte per entry for other p <= 256 and
fixed-width big-endian above, so keys of equal shape compare as their
entry sequences do.
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


class Matrix:
    """Dense matrix over GF(p); entries are plain ints in [0, p)."""

    __slots__ = ("p", "nrows", "ncols", "rows")

    def __init__(self, p, nrows, ncols, rows):
        # rows: tuple of ints, one bit per entry when p == 2 and one lane of
        # _width(p) bits when p >= 5, or of (ones, twos) mask pairs when p == 3
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
        the plane of its value, as a lane over larger p."""
        if p == 3:
            planes = ([0] * nrows, [0] * nrows)
            for i, j, c in entries:
                c %= 3
                if c:
                    planes[c - 1][i] |= 1 << j
            return Matrix(3, nrows, ncols, tuple(zip(*planes)))
        s = _width(p)
        rows = [0] * nrows
        for i, j, c in entries:
            c %= p
            if c:
                rows[i] |= c << j * s
        return Matrix(p, nrows, ncols, tuple(rows))

    @staticmethod
    def zero(p: int, nrows: int, ncols: int) -> "Matrix":
        return Matrix(p, nrows, ncols, ((0, 0) if p == 3 else 0,) * nrows)

    @staticmethod
    def identity(p: int, n: int) -> "Matrix":
        return Matrix.from_entries(p, n, n, [(i, i, 1) for i in range(n)])

    # -- access ------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if self.p == 3:
            ones, twos = self.rows[i]
            return (ones >> j & 1) | (twos >> j & 1) << 1
        s = _width(self.p)
        return self.rows[i] >> j * s & (1 << s) - 1

    def row(self, i: int) -> tuple:
        return tuple(_entries(self.p, self.rows[i], self.ncols))

    def tolist(self) -> list:
        """The rows as lists of ints, as a module file writes them."""
        return [list(_entries(self.p, r, self.ncols)) for r in self.rows]

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
        p, n = self.p, self.ncols
        if p == 3:
            return b"".join([_trits(o, t, n) for o, t in self.rows])
        if p <= 256:
            return b"".join([_entries(p, r, n) for r in self.rows])
        width = (p.bit_length() + 7) // 8
        return b"".join([x.to_bytes(width, "big") for r in self.rows for x in _entries(p, r, n)])

    def is_zero(self) -> bool:
        if self.p == 3:
            # a pair is (0, 0) exactly when its row is zero
            return not any(map(any, self.rows))
        return not any(self.rows)

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
            _, _, k, m, quotient, _ = _barrett(p, self.ncols)
            rows = tuple([x - (x * m >> k & quotient) * p for x in map(int.__add__, self.rows, other.rows)])
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
        _, _, k, m, quotient, _ = _barrett(p, self.ncols)
        cm = c * m
        return Matrix(p, self.nrows, self.ncols, tuple([c * r - (r * cm >> k & quotient) * p for r in self.rows]))

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
        # other's row j times each nonzero lane j, reduced once per batch of
        # terms; a zero row or a single entry 1 needs no reduction
        p, orows = self.p, other.rows
        s, full, k, m, quotient, batch = _barrett(p, other.ncols)
        out = []
        for r in self.rows:
            acc = t = 0
            while r:
                j = (r & -r).bit_length() // s
                a = r >> j * s & full
                r ^= a << j * s
                acc += a * orows[j]
                t += 1
                if not t % batch:
                    acc -= (acc * m >> k & quotient) * p
            if t % batch and (t > 1 or a != 1):
                acc -= (acc * m >> k & quotient) * p
            out.append(acc)
        return Matrix(p, self.nrows, other.ncols, tuple(out))

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
        s = _width(self.p)
        full, rows = (1 << s) - 1, [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                j = ((r & -r).bit_length() - 1) // s
                c = r >> j * s & full
                r ^= c << j * s
                rows[j] |= c << i * s
        return Matrix(self.p, self.ncols, self.nrows, tuple(rows))

    def _shape_check(self, other: "Matrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols or self.p != other.p:
            raise ValueError("shape/field mismatch")

    def rank(self) -> int:
        return len(_echelon(self.p, self.rows))


@functools.lru_cache(maxsize=64)
def _width(p: int) -> int:
    """Bits per entry of a GF(p) row: 1 over GF(2) and in each GF(3) mask,
    else a lane of 4 bits(p) + 1 bits rounded up to whole bytes, which is
    at least 4 bits(p) + 4."""
    return 1 if p < 5 else (p.bit_length() // 2 + 1) * 8


@functools.lru_cache(maxsize=1024)
def _barrett(p: int, n: int) -> tuple:
    """(L, lane mask, k, m, quotient mask, batch) for n-lane GF(p) rows, so
    that x - (x m >> k & quotient mask) p reduces every lane of x, each below
    2^N, N = (L - 1) // 2 >= 2 bits(p) + 1, at once: with k = N + bits(p)
    and m = ceil(2^k / p), x m < 2^(2N + 1) fits in its lane and
    floor(x m / 2^k) = floor(x / p), the error being below 1 / p, and the
    mask drops the next lane's fraction above that quotient.  The batch is
    how many terms below (p - 1)^2 a lane below p takes before 2^N."""
    L, b = _width(p), p.bit_length()
    N = (L - 1) // 2
    k = N + b
    ones = ((1 << n * L) - 1) // ((1 << L) - 1)
    return L, (1 << L) - 1, k, -(-(1 << k) // p), ones * ((1 << L - k) - 1), ((1 << N) - p) // (p - 1) ** 2


def _entries(p: int, row, n: int):
    """Entry j of an n-entry row as item j: a bytes for p <= 256, else a
    list of ints."""
    if p == 2:
        # bit n is a sentinel that keeps the leading zeros
        return bin(row | 1 << n)[:2:-1].encode().translate(_BIT_DIGITS)
    if p == 3:
        return _trits(*row, n)
    # a lane's low byte first, so for p <= 256 every lane's first byte is its entry
    w = _width(p) // 8
    data = row.to_bytes(n * w, "little")
    if p <= 256:
        return data[::w]
    return [int.from_bytes(data[i:i + w], "little") for i in range(0, len(data), w)]


_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_BIT_REVERSED = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))


@functools.lru_cache(maxsize=1024)
def _trits(ones: int, twos: int, n: int) -> bytes:
    """Entry j of an n-entry GF(3) row, given as its (ones, twos) pair, as
    byte j; memoized, as module keys read the same few short rows over and
    over."""
    # entry j of each plane as byte j, summed with no carry between bytes
    both = int.from_bytes(_entries(2, ones, n), "little") + 2 * int.from_bytes(_entries(2, twos, n), "little")
    return both.to_bytes(n, "little")


def nonzeros(p: int, row) -> list:
    """(column, entry) for each nonzero entry of a row, in column order: the
    lowest set bit names the next nonzero bit or lane, over GF(3) of either
    mask."""
    out = []
    if p == 3:
        ones, row = row[0], row[0] | row[1]
        while row:
            low = row & -row
            out.append((low.bit_length() - 1, 1 if ones & low else 2))
            row ^= low
        return out
    s = _width(p)
    full = (1 << s) - 1
    while row:
        j = ((row & -row).bit_length() - 1) // s
        c = row >> j * s & full
        out.append((j, c))
        row ^= c << j * s
    return out


def flat(p: int, mats):
    """The entries of mats, each row-major, concatenated into one row: entry
    (i, j) of a block at offset off is entry off + i * ncols + j of the row,
    its bit over GF(2), its bit in each mask of the pair over GF(3), its
    lane over larger p."""
    if p == 3:
        ones = twos = off = 0
        for m in mats:
            for o, t in m.rows:
                ones |= o << off
                twos |= t << off
                off += m.ncols
        return ones, twos
    s = _width(p)
    out = off = 0
    for m in mats:
        step = m.ncols * s
        for r in m.rows:
            out |= r << off
            off += step
    return out


def unflat(p: int, row, off: int, nrows: int, ncols: int) -> Matrix:
    """The nrows x ncols block of a flat row that starts at entry off."""
    if p == 3:
        mask = (1 << ncols) - 1
        ones, twos = row[0] >> off, row[1] >> off
        return Matrix(3, nrows, ncols, tuple([(ones >> i * ncols & mask, twos >> i * ncols & mask) for i in range(nrows)]))
    s = _width(p)
    step = ncols * s
    mask = (1 << step) - 1
    row >>= off * s
    return Matrix(p, nrows, ncols, tuple([row >> i * step & mask for i in range(nrows)]))


def block_diagonal(p: int, row, offsets, dims) -> Matrix:
    """The square blocks of a flat row, dims[v] x dims[v] starting at entry
    offsets[v], as one block-diagonal matrix, the blocks in order."""
    n = sum(dims)
    s = _width(p)
    rows = []
    at = 0
    for off, d in zip(offsets, dims):
        mask = (1 << d * s) - 1
        if p == 3:
            ones, twos = row[0] >> off, row[1] >> off
            rows += [((ones >> i * d & mask) << at, (twos >> i * d & mask) << at) for i in range(d)]
        else:
            block = row >> off * s
            rows += [(block >> i * d * s & mask) << at * s for i in range(d)]
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
    zeros elsewhere.  A row is one shifted OR of its blocks' rows, of each
    mask over GF(3)."""
    rows = range(pieces[0][0].nrows)
    out = []
    if p == 3:
        for r in rows:
            ones = twos = 0
            for m, off in pieces:
                o, t = m.rows[r]
                ones |= o << off
                twos |= t << off
            out.append((ones, twos))
        return out
    s = _width(p)
    for r in rows:
        row = 0
        for m, off in pieces:
            row |= m.rows[r] << off * s
        out.append(row)
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
    matrices; None when every coefficient is 0.  Over p >= 5 each term is
    one flat row, and their sum is reduced once per _barrett's batch."""
    p = terms[0][0].p if terms and terms[0] else 2
    if p < 5:
        acc = None
        for c, mats in zip(coeffs, terms):
            if c:
                scaled = tuple([m.scale(c) for m in mats])
                acc = scaled if acc is None else tuple([a.add(b) for a, b in zip(acc, scaled)])
        return acc
    picked = [(c % p, flat(p, mats)) for c, mats in zip(coeffs, terms) if c]
    if not picked:
        return None
    _, _, k, m, quotient, batch = _barrett(p, sum([f.nrows * f.ncols for f in terms[0]]))
    row = off = 0
    for at in range(0, len(picked), batch):
        row += sum([c * r for c, r in picked[at:at + batch]])
        row -= (row * m >> k & quotient) * p
    out = []
    for f in terms[0]:
        out.append(unflat(p, row, off, f.nrows, f.ncols))
        off += f.nrows * f.ncols
    return tuple(out)


def _echelon(p: int, rows) -> dict:
    """Forward pass: lead -> pivot row, each row reduced by the pivot at its
    lead until the lead is new or the row is 0.  The lead is the lowest set
    bit over GF(2) and GF(3) (_echelon3), else the column of the lowest
    nonzero lane, whose entry a pivot keeps: a row with entry a there
    becomes b r + (p - a) q for the pivot q with lead b, each lane below
    2 p^2, and one Barrett step reduces every lane up to the widest row's
    last.  _reduced scales each lane pivot's lead to 1."""
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
    if not rows:
        return piv
    # masks up to the last lane any row uses; a lane's lowest set bit is
    # below its top bit, so // s names its lane
    s, full, k, m, quotient, _ = _barrett(p, max(rows).bit_length() // _width(p) + 1)
    for r in rows:
        while r:
            j = (r & -r).bit_length() // s
            q = piv.get(j)
            if q is None:
                piv[j] = r
                break
            r = (q >> j * s & full) * r + (p - (r >> j * s & full)) * q
            r -= (r * m >> k & quotient) * p
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
    # the later pivot rows are 0 at each other's leads, so a row's entries
    # there are read at once and its multiples of them summed in batches
    s, full, k, m, quotient, batch = _barrett(p, max(piv.values(), default=0).bit_length() // _width(p) + 1)
    done = 0
    for c in reversed(leads):
        r = piv[c]
        a = r >> c * s & full
        if a != 1:
            r *= pow(a, -1, p)
            r -= (r * m >> k & quotient) * p
        later = r & done
        t = 0
        while later:
            d = (later & -later).bit_length() // s
            f = later >> d * s & full
            later ^= f << d * s
            r += (p - f) * piv[d]
            t += 1
            if not t % batch or not later:
                r -= (r * m >> k & quotient) * p
        piv[c] = r
        done |= full << c * s
    return [piv[c] for c in leads], leads


def kernel_basis(m: Matrix) -> tuple:
    """Canonical basis of {v : m v = 0}, one vector per row in m's row
    layout, with its free columns f_1 < ... < f_q.

    Row k is 1 at f_k, 0 at the other free columns, and the unique solution
    at the pivot columns, so its last nonzero entry is at f_k.  Except over
    GF(3) that solution is read off _echelon's forward pass by one
    back-solve: per column j one row whose bit or lane k is entry j of row
    k, found for the pivot columns last to first, a pivot's row the sum of
    the rows at the other entries of its pivot row, all to its right, each
    times minus that entry, over the pivot's lead; the kernel rows are those
    rows' transpose.  Over GF(3) row k holds minus _reduced's entry in
    column f_k at each pivot, each reduced pair read once into
    per-free-column pairs (_kernel3).
    """
    n, p = m.ncols, m.p
    if p == 3:
        return _kernel3(m.rows, n)
    piv = _echelon(p, m.rows)
    if p != 2:
        free = [f for f in range(n) if f not in piv]
        s, full, k, mu, quotient, batch = _barrett(p, len(free))
        at = {f: 1 << i * s for i, f in enumerate(free)}
        for c in sorted(piv, reverse=True):
            r = piv[c]
            b = r >> c * s & full
            r ^= b << c * s
            acc = t = 0
            while r:
                j = (r & -r).bit_length() // s
                e = r >> j * s & full
                r ^= e << j * s
                if j in at:
                    acc += (p - e) * at[j]
                    t += 1
                    if not t % batch:
                        acc -= (acc * mu >> k & quotient) * p
            if acc:
                acc -= (acc * mu >> k & quotient) * p
                acc *= pow(b, -1, p)
                at[c] = acc - (acc * mu >> k & quotient) * p
        return Matrix(p, n, len(free), tuple([at.get(j, 0) for j in range(n)])).transpose(), free
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
    rows at every p, and -Y_a's row is spread from its set bits or nonzero
    lanes; the sum is an XOR over GF(2), _add3 over GF(3) and a lane sum,
    reduced, over larger p."""
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
                s, _, k, m, quotient, _ = _barrett(p, total)
                spread = sum([p - c << (off[u] + l * dxu) * s for l, c in nonzeros(p, ya_row)])
                summed = [(x << base_w * s) + (spread << j * s) for j, x in enumerate(xa_cols)]
                # the two sides meet at one unknown only on a loop
                rows += [r - (r * m >> k & quotient) * p for r in summed] if u == w else summed
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
        if p == 3:
            cut = tuple([(o >> start, t >> start) for o, t in rows[k:j]])
        else:
            cut = tuple([r >> start * _width(p) for r in rows[k:j]])
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
