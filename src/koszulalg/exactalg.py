"""Exact fields (F_p and Q) and exact linear algebra.

Scalars are plain Python ints in [0, p) for prime fields and
fractions.Fraction for the rationals; a Field descriptor supplies the
arithmetic, so no rounding can ever occur.  A sparse vector is a
{position: nonzero scalar} dict, the form of eliminate's columns and
kernel vectors and of every strand vector of the Koszul full path.  A
Matrix is row-major lists of scalars; its rref, rank and kernel, over
every field and at every size, come from eliminate: one sparse column
elimination.  The one dense kernel is the core that sparse_rank's peeling
leaves over F_p (F_2 included): one row echelon form on a numpy int64
array (_fp_eliminate); with p < 2^31 every product of two scalars stays
below 2^62, so no step can overflow.

A sparse matrix that is only ranked (a batch of strands of the Koszul
differential) is one (nnz, 3) array of (row, col, coeff) triplets: int64
over F_p, dtype=object over Q, so its .tolist() holds Python ints and
Fractions only.  sparse_rank peels it in whole-array rounds, and ranks
the blocks of a block-diagonal array in one peel; over Q
triplet_columns reads the columns of the core that peeling leaves for
eliminate.  Everything else eliminate reduces arrives as {row: scalar}
columns.

Every operation here is pure: it returns new values and leaves its
arguments unchanged.  Only the private _fp_eliminate works in place, on
an array its caller has just allocated.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Descriptor of an exact coefficient field."""

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        raise NotImplementedError

    def from_fraction(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return self.div(self.from_int(num), self.from_int(den))


class PrimeField(Field):
    """F_p for a word-size prime p; scalars are ints in [0, p)."""

    def __init__(self, p):
        if not (2 <= p < 2 ** 31):
            raise ValueError("prime must satisfy 2 <= p < 2^31")
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p
        self.name = "F%d" % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return self.name


class RationalField(Field):
    """Q with arbitrary-precision Fraction scalars, always in lowest terms."""

    def __init__(self):
        self.characteristic = 0
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.name = "Q"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"


GF2 = PrimeField(2)
QQ = RationalField()


def field_by_name(name):
    """Resolve "Q" or "F<p>", p in ASCII digits, to a Field descriptor."""
    if not isinstance(name, str):
        raise ValueError("field name must be a string, got %r" % (name,))
    if name == "Q":
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isascii() and digits.isdigit():
        p = int(digits)
        return GF2 if p == 2 else PrimeField(p)
    raise ValueError("unknown field %r (expected 'Q' or 'F<prime>')" % name)


class Matrix:
    """Dense exact matrix: row-major list of scalar lists over one field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if ncols is None:
            if not self.rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(self.rows[0])
        self.ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_columns(cls, field, cols, nrows):
        m = cls.zeros(field, nrows, len(cols))
        for j, c in enumerate(cols):
            if len(c) != nrows:
                raise ValueError("column length mismatch")
            for i, a in enumerate(c):
                m.rows[i][j] = a
        return m

    @classmethod
    def from_triplets(cls, field, nrows, ncols, entries):
        m = cls.zeros(field, nrows, ncols)
        for i, j, a in entries:
            m.rows[i][j] = field.add(m.rows[i][j], a)
        return m

    def mul(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        F = self.field
        out = Matrix.zeros(F, self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            orow = out.rows[i]
            for k, a in enumerate(row):
                if a == F.zero:
                    continue
                brow = other.rows[k]
                for j, b in enumerate(brow):
                    if b != F.zero:
                        orow[j] = F.add(orow[j], F.mul(a, b))
        return out

    def is_zero(self):
        z = self.field.zero
        return all(a == z for row in self.rows for a in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return "Matrix(%s, %dx%d)" % (self.field, self.nrows, self.ncols)


def unit_vector(field, n, a):
    """The a-th standard basis vector of field^n."""
    v = [field.zero] * n
    v[a] = field.one
    return v


# ----------------------------------------------------------------- F_p int64

def _fp_eliminate(a, p):
    """In-place row echelon of an int64 array over F_p; returns the pivot columns.

    Its one caller, _core_rank, ranks the core that sparse_rank's peeling
    leaves over F_p.  Entries must lie in [0, p) with p < 2^31, p = 2
    included.  The pivot is the first nonzero row at or below the cursor,
    scaled to 1; the rows below it with a nonzero entry in the pivot
    column are updated from that column on.
    """
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        prow = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        a[r, c:] = prow
        hits = r + nz[1:]
        if hits.size:
            # a - f*prow == a + (p - f)*prow (mod p); the product stays
            # below 2^62 and the sum below 2^63, so one reduction suffices.
            a[hits, c:] = (a[hits, c:] + (p - a[hits, c, None]) * prow) % p
        pivots.append(c)
        r += 1
    return pivots


# The benchmark tracer (bench/tracing.py) binds this name; nothing calls it.
_gf2_eliminate = _fp_eliminate


# ------------------------------------------------------- sparse elimination

def _eliminate_matrix(M):
    """eliminate on the columns of a Matrix."""
    if not isinstance(M, Matrix):
        raise TypeError("expected Matrix, got %r" % type(M).__name__)
    return eliminate(M.field, [
        {i: row[j] for i, row in enumerate(M.rows) if row[j] != M.field.zero}
        for j in range(M.ncols)])


def eliminate(field, columns):
    """(pivots, kernel) of the matrix with these {row: nonzero scalar} columns.

    Left-looking (Gilbert, Peierls, SIAM J. Sci. Stat. Comput. 1988): a
    column is reduced by the stored columns that own its rows, popped
    from a heap in storing order (stored column k brings in only rows
    owned after it), and stored, owning its least row, if anything is
    left: the stored columns are the rref pivots.  The combination that
    zeroes a free column is its canonical kernel vector, a {column:
    scalar} dict, 1 at that column and absent at the other free ones.
    """
    p = field.characteristic
    owner, stored, pivots, kernel = {}, [], [], []
    for j, column in enumerate(columns):
        col, comb = dict(column), {j: field.one}
        heap = sorted(owner[r] for r in col if r in owner)
        while heap:
            prow, inv, red, red_comb = stored[heapq.heappop(heap)]
            f = col.get(prow)  # None once cleared: an owner can be pushed twice
            if f is not None:
                f = -f * inv % p if p else -f * inv
                for r in _add_multiple(col, f, red, p):
                    if r in owner:
                        heapq.heappush(heap, owner[r])
                _add_multiple(comb, f, red_comb, p)
        if col:
            prow = min(col)
            owner[prow] = len(stored)
            stored.append((prow, field.inv(col[prow]), col, comb))
            pivots.append(j)
        else:
            kernel.append(comb)
    return pivots, kernel


def _add_multiple(target, f, source, p):
    """target += f * source in place, zeros dropped; returns the keys it brings in."""
    new = []
    for r, a in source.items():
        b = target.get(r)
        if b is None:
            target[r] = f * a % p if p else f * a
            new.append(r)
            continue
        b = (b + f * a) % p if p else b + f * a
        if b:
            target[r] = b
        else:
            del target[r]
    return new


def triplet_columns(field, ncols, entries):
    """The columns of a triplet array (see as_triplets) as {row: nonzero scalar} dicts.

    Its one caller is _core_rank, on the core that peeling leaves over Q.
    """
    columns = [{} for _ in range(ncols)]
    for r, c, a in entries.tolist():  # repeated positions are summed
        columns[c][r] = field.add(columns[c].get(r, field.zero), a)
    return [col if all(col.values()) else {r: a for r, a in col.items() if a}
            for col in columns]


# ------------------------------------------------------------------- public

def rref(M):
    """Reduced row echelon form, read off eliminate.

    Returns (R, pivots) with R row-equivalent to M, pivots strictly
    increasing, rank = len(pivots).  Row r has 1 at pivots[r] and
    -v_f[pivots[r]] at each free column f, v_f its kernel vector.
    """
    pivots, kernel = _eliminate_matrix(M)
    F = M.field
    free = iter(kernel)  # -e_c stands in for a pivot column c: 1 in its own row
    vectors = [{c: F.neg(F.one)} if c in pivots else next(free) for c in range(M.ncols)]
    rows = [[F.neg(v.get(r, F.zero)) for v in vectors] for r in pivots]
    return Matrix(F, rows + [[F.zero] * M.ncols] * (M.nrows - len(pivots)), M.ncols), pivots


def rank(M):
    """Rank of M: the number of pivots eliminate finds."""
    return len(_eliminate_matrix(M)[0])


def kernel_basis(M):
    """Canonical basis of {v : Mv = 0}: the kernel of eliminate, as lists."""
    return [[v.get(c, M.field.zero) for c in range(M.ncols)]
            for v in _eliminate_matrix(M)[1]]


def coords_in_span(v, basis, field):
    """Coordinates of v in span(basis), or None if v is outside.

    Solves the column system exactly; free coordinates are set to zero
    so the answer is deterministic even for dependent spanning sets.
    """
    n = len(v)
    for b in basis:
        if len(b) != n:
            raise ValueError("dimension mismatch")
    if not basis:
        return [] if all(a == field.zero for a in v) else None
    aug = Matrix(
        field,
        [[basis[j][i] for j in range(len(basis))] + [v[i]] for i in range(n)],
        len(basis) + 1,
    )
    R, pivots = rref(aug)
    k = len(basis)
    if k in pivots:
        return None
    coords = [field.zero] * k
    for r, p in enumerate(pivots):
        coords[p] = R.rows[r][k]
    return coords


def span_dim(vectors, field, ambient):
    if not vectors:
        return 0
    return rank(Matrix(field, vectors, ambient))


# -------------------------------------------------------------- sparse rank

def triplet_dtype(field):
    """int64 over F_p, object (Python ints and Fractions) over Q."""
    return np.int64 if isinstance(field, PrimeField) else object


def as_triplets(field, entries=()):
    """entries as an (nnz, 3) array of (row, col, coeff) of triplet_dtype(field).

    An array of that dtype is returned as it is; a sequence of triplets
    is converted (Python ints stay Python ints in an object array).
    """
    return np.asarray(entries, dtype=triplet_dtype(field)).reshape(-1, 3)


def negate(field, values):
    """-values over field, elementwise, for a coefficient column of a triplet array."""
    if isinstance(field, PrimeField):
        return (field.p - values) % field.p
    return -values


def matmul(field, a, b):
    """a @ b over field, for arrays of triplet_dtype(field), stacks broadcast.

    Over F_p, b is split into 16-bit halves: an entry times a half stays
    below 2^31 * 2^16, so a dot product of fewer than 2^15 terms stays
    below 2^63.
    """
    if not isinstance(field, PrimeField):
        return a @ b
    p = field.p
    return ((a @ (b >> 16) % p << 16) + a @ (b & 0xFFFF)) % p


def sparse_rank(field, nrows, ncols, entries, blocks=None):
    """Rank of a sparse matrix given as a triplet array (see as_triplets).

    Repeated positions are summed.  Singleton rows and columns are
    peeled first, in rounds over the whole array (the first stage of
    structured Gaussian elimination: LaMacchia, Odlyzko, CRYPTO 1990).
    A round counts the live entries of every row; each row with one
    entry (i, j) is a pivot, and removing row i and column j is a pure
    deletion, because eliminating column j with row i touches nothing
    else.  Several such rows may sit in one column, so a round keeps one
    pivot per column.  A round that finds no singleton row counts
    columns instead and keeps one singleton column per row, by the same
    argument transposed.  The pivot rows and columns are masked out, and
    rounds go on until none is found.  A row counted with a repeated
    position is not a singleton, so repeats cost pivots, never
    correctness.  The surviving core is ranked by _fp_eliminate as a
    dense int64 array over every F_p, F_2 included, at any size, and by
    eliminate on its triplet_columns over Q.

    blocks, if given, are row-block bounds 0 = b_0 <= ... <= b_k = nrows
    of a block-diagonal matrix (no column has entries in two blocks),
    and the answer is the list of the k block ranks.  The rounds run
    once over the whole array; a block's rank counts the pivot rows that
    fall in it, plus the rank of its own part of the core.
    """
    e = as_triplets(field, entries)
    prime = isinstance(field, PrimeField)
    vals = e[:, 2] % field.p if prime else e[:, 2]
    live = np.flatnonzero(vals != 0)
    r = e[live, 0].astype(np.int64)
    c = e[live, 1].astype(np.int64)
    vals = vals[live]
    bounds = np.asarray((0, nrows) if blocks is None else blocks, dtype=np.int64)
    found = np.zeros(bounds.size - 1, dtype=np.int64)
    while r.size:
        single = np.bincount(r, minlength=nrows)[r] == 1
        if single.any():
            pc, pr = _one_each(c[single], r[single], ncols)
        else:
            single = np.bincount(c, minlength=ncols)[c] == 1
            if not single.any():
                break
            pr, pc = _one_each(r[single], c[single], nrows)
        found += np.bincount(_block_of(bounds, pr), minlength=found.size)
        dead_rows = np.zeros(nrows, dtype=bool)
        dead_rows[pr] = True
        dead_cols = np.zeros(ncols, dtype=bool)
        dead_cols[pc] = True
        keep = ~(dead_rows[r] | dead_cols[c])
        r, c, vals = r[keep], c[keep], vals[keep]
    if r.size:
        # the core, split by block and each part eliminated on its own
        b = _block_of(bounds, r)
        order = np.argsort(b, kind="stable")
        r, c, vals, b = r[order], c[order], vals[order], b[order]
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [r.size]):
            found[b[lo]] += _core_rank(field, r[lo:hi], c[lo:hi], vals[lo:hi])
    return int(found[0]) if blocks is None else found.tolist()


def _one_each(keys, values, size):
    """(each distinct key, one of its values), keys in [0, size).

    A scatter: when a key repeats, whichever write lands is kept.
    """
    owner = np.full(size, -1, dtype=np.int64)
    owner[keys] = values
    hit = np.flatnonzero(owner >= 0)
    return hit, owner[hit]


def _block_of(bounds, rows):
    """Block of each row, for row-block bounds (empty blocks allowed)."""
    return np.searchsorted(bounds, rows, side="right") - 1


def _core_rank(field, r, c, vals):
    """Rank of the core left by peeling, its rows and columns compacted."""
    rows, r = np.unique(r, return_inverse=True)
    cols, c = np.unique(c, return_inverse=True)
    if isinstance(field, PrimeField):
        a = np.zeros((rows.size, cols.size), dtype=np.int64)
        np.add.at(a, (r, c), vals)
        return len(_fp_eliminate(a % field.p, field.p))
    columns = triplet_columns(field, cols.size, np.column_stack((r, c, vals)))
    return len(eliminate(field, columns)[0])
