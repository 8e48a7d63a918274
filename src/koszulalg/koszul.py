"""The Koszul complex on the generators of m as a dg algebra.

K(f) is the exterior algebra over R on e_1..e_n with d(e_i) = x_i,
graded internally by (ring degree of the coefficient) + (sum of the
weights of the wedge factors).  The differential preserves internal
degree, so every computation happens strand by strand: the strand
(i, d) has one basis element per pair (subset S of size i, basis
element of R_{d - w(S)}).

The full path holds every vector of a strand as a {position: nonzero
scalar} dict: the columns of d_i, read straight off the multiplication
tables of the ring (diff_columns), kernel vectors, class representatives
and the components class_of receives (strand_vectors).  The rank-only
path holds the strands of d_i in several consecutive degrees as one
block-diagonal triplet array (exactalg.as_triplets: int64 over F_p,
dtype=object over Q; diff_triplets).  It reads each face of
each subset once for the whole window, as one range of the ring's table
(ring.mult_range), and places and signs the blocks of every degree in
whole-array steps.

Homology is computed in one pass over internal degrees that builds every
H_i at once (a caller that reads only H_1 can build H_0 and H_1 from the
strands of d_1 and d_2 alone).  In degree d it walks i from n down to 0
and assembles the columns of each d_i once: one sparse elimination
(exactalg.eliminate) gives the kernel vectors of H_i, and one step later
its columns at the pivots span the boundaries of H_{i-1}.  In the
coordinates of the free columns of d_i, a second elimination gives the
classes and the functionals of class_of (see _homology_pass).  Only a
strand that holds a class keeps a record.  class_of checks d_i z = 0
against one cache of strand columns on the complex, which the pass
seeds with the recorded strands (see class_of).  Strand layouts are one
array of block bounds per i, built with the complex from the Hilbert
function; past SIZE_LIMIT entries it raises MemoryError.

Products are read off the structure constants of H(K) that each complex
keeps (StructureConstants): the class of the wedge of two basis
representatives, and the class of the contraction of one by e_g^*, each
computed by one class_of on its first query.  The product of two classes
given by coordinates is the bilinear form on those entries
(homology_product), so no caller builds a representative of a
combination of classes.

Betti tables read off rank H_i(K)_{i+j}; a rank-only path serves
tables far beyond the sizes where kernel bases fit in memory.  It takes
the ranks of d_1 and (for quotients) d_2 in closed form from dim R_d and
the minimal generators of the ideal, and ranks the other strands of
each d_i in batches of consecutive degrees: one block-diagonal triplet
array per batch, gathered with one range read per (subset, face) and no
Python per degree, peeled once in whole-array rounds, each strand's rank
read from the block of its pivot rows plus dense elimination of its own
part of the core.

Truncation: Artinian rings carry everything in internal degrees
d <= top_degree + sum(w_j).  For semigroup rings the strand in degree
d >= conductor + sum(g_j) is the Koszul complex on a sequence of
units of k (every R_{d-w(S)} is one-dimensional), hence exact; the
complex still asserts computed vanishing in that degree instead of
trusting the argument blindly, and truncates there.  Cycles built from
the recorded ones (images under a lift, products with a perturbation)
may reach past the truncation; those components add nothing to the
class, and class_of checks them against the d_i of the exactness
floor's strand, which every degree from the floor on shares.
"""

from __future__ import annotations

import itertools

import numpy as np

from koszulalg import exactalg
from koszulalg.exactalg import Matrix
from koszulalg.gring import SIZE_LIMIT, ArtinianQuotient, SemigroupRing


class TruncationError(RuntimeError):
    """A computation touched internal degrees beyond the truncation bound."""


class NotACycleError(ValueError):
    """class_of received an element with nonzero differential."""


class KoszulElement:
    """Map from index subsets S (sorted tuples) to nonzero RingElements."""

    __slots__ = ("complex", "data")

    def __init__(self, complex_, data):
        clean = {}
        for S, r in data.items():
            if not r.is_zero():
                clean[tuple(S)] = r
        self.complex = complex_
        self.data = clean

    def _check(self, other):
        if self.complex is not other.complex:
            raise ValueError("Koszul complex mismatch")

    def is_zero(self):
        return not self.data

    def homological_degree(self):
        """Common subset size, 0 for the zero element, None if mixed."""
        sizes = {len(S) for S in self.data}
        if not sizes:
            return 0
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def __add__(self, other):
        self._check(other)
        out = dict(self.data)
        for S, r in other.data.items():
            out[S] = out.get(S, self.complex.ring.zero()) + r
        return KoszulElement(self.complex, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.data)
        for S, r in other.data.items():
            out[S] = out.get(S, self.complex.ring.zero()) - r
        return KoszulElement(self.complex, out)

    def __neg__(self):
        return KoszulElement(self.complex, {S: -r for S, r in self.data.items()})

    def scale(self, c):
        return KoszulElement(
            self.complex, {S: r.scale(c) for S, r in self.data.items()})

    def coeff_mul(self, r):
        """Multiply by a ring element (degree-0 coefficient, no sign)."""
        return KoszulElement(
            self.complex, {S: r * v for S, v in self.data.items()})

    def __eq__(self, other):
        return (
            isinstance(other, KoszulElement)
            and self.complex is other.complex
            and self.data == other.data
        )

    def __str__(self):
        if not self.data:
            return "0"
        K = self.complex
        pieces = []
        for S in sorted(self.data, key=lambda S: (len(S), S)):
            r = self.data[S]
            wedge_str = "".join("e%d" % (j + 1) for j in S)
            if not S:
                pieces.append("(%s)" % r)
            else:
                pieces.append("(%s)*%s" % (r, wedge_str))
        return " + ".join(pieces)

    def __repr__(self):
        return "KoszulElement(%s)" % self


def _merge_sign(S, T):
    """Sign of sorting the concatenation S ++ T; 0 if they overlap."""
    inversions = 0
    for s in S:
        for t in T:
            if s == t:
                return 0
            if s > t:
                inversions += 1
    return -1 if inversions % 2 else 1


class _DegreeData:
    """Reduction data of one homology strand (i, d) that holds a class.

    boundary holds the pivot columns of d_{i+1} (see _homology_pass), a
    basis of B_{i,d}; rep_vectors are the kernel vectors of d_i that are
    classes.  Both are {position: scalar} dicts.  rep_coords applies the
    class functionals, kept as {free column: [(class, scalar)]}, to a
    cycle; class_of checks d_i z = 0 first.  filtration is None until
    analyze builds its table on the first query.
    """

    __slots__ = ("boundary", "rep_vectors", "class_indices", "filtration",
                 "_functionals")

    def __init__(self, boundary, rep_vectors, class_indices, functionals):
        self.boundary = boundary
        self.rep_vectors = rep_vectors
        self.class_indices = class_indices
        self.filtration = None
        self._functionals = functionals

    def rep_coords(self, field, vec):
        """Coordinates of the cycle vec on rep_vectors modulo boundaries."""
        p = field.characteristic
        out = [field.zero] * len(self.rep_vectors)
        for f, b in vec.items():
            for t, a in self._functionals.get(f, ()):
                out[t] += a * b
        return [a % p for a in out] if p else out


def _is_cycle(field, columns, vec):
    """True iff the matrix with these {row: scalar} columns kills vec."""
    p = field.characteristic
    image = {}
    for c, b in vec.items():
        for r, a in columns[c].items():
            image[r] = image.get(r, 0) + a * b
    return not any(a % p if p else a for a in image.values())


class HomologyClass:
    __slots__ = ("index", "degree", "element", "label")

    def __init__(self, index, degree, element, label):
        self.index = index
        self.degree = degree
        self.element = element
        self.label = label


class HomologyBasis:
    """Basis of H_i with reduction data for class_of in each degree that holds a class.

    levels is None until analyze.class_levels computes the filtration
    level of every class on the first query.
    """

    def __init__(self, complex_, i, classes, degree_data):
        self.complex = complex_
        self.i = i
        self.classes = classes
        self.degree_data = degree_data
        self.dim = len(classes)
        self.levels = None

    def degrees(self):
        return sorted({c.degree for c in self.classes})


class StructureConstants:
    """The structure constants of H(K) on the basis classes, each entry computed on its first query.

    product(i, a, j, b), for i + j <= n, is class_of(K, i + j, h_i.a ∧
    h_j.b): the coordinates of the product of two basis classes.
    contraction(g, i, b), for i >= 1, is class_of(K, i - 1, ι_g(h_i.b)),
    ι_g the contraction by e_g^*: column b of the map ι_g^H: H_i ->
    H_(i-1).  That map is well defined, since contract anticommutes with
    d and so maps cycles to cycles and boundaries to boundaries.  Every
    entry is kept once filled, so no product or contraction of basis
    classes is computed twice on one complex; callers must not write to
    an entry.
    """

    __slots__ = ("complex", "products", "contractions")

    def __init__(self, complex_):
        self.complex = complex_
        self.products = {}  # (i, a, j, b): coordinates in H_(i+j)
        self.contractions = {}  # (g, i, b): coordinates in H_(i-1)

    def product(self, i, a, j, b):
        key = (i, a, j, b)
        entry = self.products.get(key)
        if entry is None:
            K = self.complex
            entry = self.products[key] = class_of(K, i + j, wedge(
                homology_basis(K, i).classes[a].element,
                homology_basis(K, j).classes[b].element))
        return entry

    def contraction(self, g, i, b):
        key = (g, i, b)
        entry = self.contractions.get(key)
        if entry is None:
            K = self.complex
            entry = self.contractions[key] = class_of(
                K, i - 1, contract(homology_basis(K, i).classes[b].element, g))
        return entry


class BettiTable:
    """Ranks of H_i(K)_{i+j} laid out column i, row j."""

    def __init__(self, entries):
        self.entries = {k: v for k, v in entries.items() if v}
        self.pdim = max((i for i, _ in self.entries), default=0)
        self.regularity = max((j for _, j in self.entries), default=0)

    def rank(self, i, j):
        return self.entries.get((i, j), 0)

    def column_total(self, i):
        return sum(v for (c, _), v in self.entries.items() if c == i)

    def rows(self):
        out = {}
        for j in sorted({j for _, j in self.entries}):
            out[j] = [self.rank(i, j) for i in range(self.pdim + 1)]
        return out

    def to_json(self):
        return {
            "rows": {str(j): ranks for j, ranks in self.rows().items()},
            "pdim": self.pdim,
            "regularity": self.regularity,
        }

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __str__(self):
        cols = list(range(self.pdim + 1))
        header = [""] + [str(i) for i in cols]
        totals = ["total:"] + [str(self.column_total(i)) for i in cols]
        body = []
        for j, ranks in self.rows().items():
            body.append(
                ["%d:" % j] + [str(r) if r else "-" for r in ranks])
        table = [header, totals] + body
        widths = [max(len(row[c]) for row in table) for c in range(len(header))]
        lines = []
        for row in table:
            lines.append(" ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)


class KoszulComplex:
    """K(f) for the ring's minimal generators, truncated in internal degree."""

    def __init__(self, ring):
        self.ring = ring
        self.field = ring.field
        self.n = ring.ngens
        self.weights = list(ring.weights)
        if isinstance(ring, SemigroupRing):
            self.exactness_floor = ring.conductor + sum(ring.weights)
            self.truncation = self.exactness_floor
        else:
            self.exactness_floor = None
            self.truncation = ring.top_degree + sum(ring.weights)
        if 2 ** self.n * (self.truncation + 1) > SIZE_LIMIT:
            raise MemoryError("strand layout of %d subsets in %d degrees is past %d entries"
                              % (2 ** self.n, self.truncation + 1, SIZE_LIMIT))
        self.subsets = [
            tuple(itertools.combinations(range(self.n), i))
            for i in range(self.n + 1)
        ]
        self.subset_index = [
            {S: t for t, S in enumerate(level)} for level in self.subsets
        ]
        self.subset_weights = [
            [self.subset_weight(S) for S in level] for level in self.subsets
        ]
        # faces[i][s]: (l, j, position of S minus j) for the s-th subset S of size i
        self.faces = [
            [[(l, j, self.subset_index[i - 1][S[:l] + S[l + 1:]])
              for l, j in enumerate(S)] for S in level]
            for i, level in enumerate(self.subsets)]
        # _bounds[i][d]: the block offsets of the strand (i, d), then its
        # dimension; a block of S has size dim R_{d - w(S)}, row top + 1 is empty
        top, reach = self.truncation, sum(self.weights)
        h = np.zeros(reach + top + 1, np.int64)  # h[reach + a] = dim R_a
        h[reach:] = [ring.dim(a) for a in range(top + 1)]
        degrees = np.arange(reach, reach + top + 1)[:, None]
        self._bounds = []
        for weights in self.subset_weights:
            bounds = np.zeros((top + 2, len(weights) + 1), np.int64)
            np.cumsum(h[degrees - weights], axis=1, out=bounds[:-1, 1:])
            self._bounds.append(bounds)
        self._homology = None
        self._cycle_columns = {}  # (i, d): columns of d_i, i > 0, for class_of
        self.structure = StructureConstants(self)
        self._no_entries = exactalg.as_triplets(self.field)

    # ------------------------------------------------------------ structure

    def subset_weight(self, S):
        return sum(self.weights[j] for j in S)

    def _layout(self, i, d, stop):
        """Block bounds of the strands (i, d), ..., (i, stop - 1), one row each (see strand_offsets)."""
        if not 0 <= i <= self.n:
            return np.zeros((stop - d, 1), np.int64)
        top = self.truncation
        if 0 <= d and stop <= top + 1:
            return self._bounds[i][d:stop]
        last = top if self.exactness_floor is not None else top + 1
        degrees = np.arange(d, stop)
        return self._bounds[i][np.where(degrees < 0, top + 1, np.minimum(degrees, last))]

    def strand_offsets(self, i, d):
        """(offset of each subset's block, total dimension) of the strand (i, d).

        For i outside 0..n the strand has no blocks.  For d < 0, and
        past the truncation of a quotient, every block is empty; past the
        truncation of a semigroup ring the strand has the layout of the
        exactness floor (every R_{d - w(S)} is k).
        """
        *offsets, total = self._layout(i, d, d + 1)[0].tolist()
        return offsets, total

    def strand_dim(self, i, d):
        return int(self._layout(i, d, d + 1)[0, -1])

    def diff_triplets(self, i, d, stop=None):
        """Triplet array of d_{i,d}: strand (i, d) -> strand (i-1, d).

        The block from subset S to S minus its l-th element j (0-based)
        is the table of x_j on R_{d-w(S)} with sign (-1)^l.  The result
        is an (nnz, 3) array in exactalg.as_triplets form, len() its
        number of nonzeros; a strand with no entries shares one empty
        array.

        With stop, the strands of d_i in the degrees d..stop-1 are
        stacked block-diagonally in one array: each strand's rows and
        columns start where the previous degree's end.  Each (S, face)
        is one range read of the ring's table (ring.mult_range: x_j on
        R_{d-w(S)}, ..., R_{stop-1-w(S)}, with its entry count per
        degree).  Entries come face by face, each face's in degree order:
        one np.repeat over the counts of every face and degree adds the
        block offsets, and each odd face is negated as one slice.
        """
        stop = d + 1 if stop is None else stop
        if not 1 <= i <= self.n:
            return self._no_entries
        tables, counts, source, target, odd = [], [], [], [], []
        for s_pos, (w, faces) in enumerate(zip(self.subset_weights[i], self.faces[i])):
            for l, j, t_pos in faces:
                table, count = self.ring.mult_range(j, d - w, stop - w)
                if len(table):
                    tables.append(table)
                    counts.append(count)
                    source.append(s_pos)
                    target.append(t_pos)
                    odd.append(l % 2)
        if not tables:
            return self._no_entries
        # the offset of a block in the stack: its degree's base plus its
        # offset in that degree, one row per face in face order
        src, dst = self._layout(i, d, stop), self._layout(i - 1, d, stop)
        cols = src[:, source].T + (src[:, -1].cumsum() - src[:, -1])
        rows = dst[:, target].T + (dst[:, -1].cumsum() - dst[:, -1])
        counts = np.concatenate(counts)
        out = np.concatenate(tables)
        # one column at a time: numpy adds an (nnz, 2) block row by row
        out[:, 0] += np.repeat(rows.ravel(), counts)
        out[:, 1] += np.repeat(cols.ravel(), counts)
        if self.field.characteristic != 2:  # -1 = 1 in characteristic 2
            ends = list(itertools.accumulate(map(len, tables)))
            for start, end, sign in zip([0] + ends, ends, odd):
                if sign:
                    out[start:end, 2] = exactalg.negate(self.field, out[start:end, 2])
        return out

    def diff_columns(self, i, d):
        """The columns of d_{i,d}, one {row: nonzero scalar} dict per basis element of (i, d).

        The same blocks, offsets and signs as diff_triplets (-1 = 1 over
        F_2), read straight off the multiplication tables: the column of
        the c-th basis element of R_{d-w(S)} e_S holds, at the block of
        S minus its l-th element j, column c of the table of x_j with
        sign (-1)^l.  The blocks of one column lie in distinct row
        blocks, so no position repeats.
        """
        p = self.field.characteristic
        src = self._layout(i, d, d + 1)[0].tolist()
        dst = self._layout(i - 1, d, d + 1)[0].tolist()
        columns = [{} for _ in range(src[-1])]
        for s_pos in range(len(src) - 1):
            base = src[s_pos]
            if base == src[s_pos + 1]:
                continue
            a = d - self.subset_weights[i][s_pos]
            for l, j, t_pos in self.faces[i][s_pos]:
                row = dst[t_pos]
                table = self.ring.mult_triplets(j, a).tolist()
                if l % 2 and p != 2:
                    for r, c, v in table:
                        columns[base + c][row + r] = p - v if p else -v
                else:
                    for r, c, v in table:
                        columns[base + c][row + r] = v
        return columns

    def strand_vectors(self, i, u):
        """Strand coordinates of the homological-degree-i part of u, per internal degree.

        Returns {d: {position: nonzero scalar}} for every d where that
        part has a nonzero component.
        """
        index = self.subset_index[i]
        out = {}
        for S, r in u.data.items():
            s_pos = index.get(S)
            if s_pos is None:
                continue
            wS = self.subset_weights[i][s_pos]
            for a, entries in self.ring.coords_by_degree(r).items():
                d = a + wS
                if d not in out:
                    out[d] = ({}, self.strand_offsets(i, d)[0])
                vec, offsets = out[d]
                for t, c in entries:
                    vec[offsets[s_pos] + t] = c
        return {d: out[d][0] for d in sorted(out)}

    def vector_to_element(self, i, d, vec):
        """The element of the strand (i, d) with coordinates vec, {position: scalar}."""
        bounds = self._layout(i, d, d + 1)[0].tolist()
        if not all(0 <= c < bounds[-1] for c in vec):
            raise ValueError("position outside the strand (%d, %d)" % (i, d))
        blocks = zip(self.subsets[i], self.subset_weights[i], bounds, bounds[1:])
        return KoszulElement(self, {S: self.ring.element_from_coords(
            d - w, {c - start: a for c, a in vec.items() if start <= c < end})
            for S, w, start, end in blocks if start < end})

    def strand_basis_elements(self, i, d):
        """All basis elements of the strand (i, d) as KoszulElements."""
        out = []
        for S, w in zip(self.subsets[i], self.subset_weights[i]):
            for r in self.ring.basis_of_degree(d - w):
                out.append(KoszulElement(self, {S: r}))
        return out

    def element(self, data):
        """Build an element from {subset: RingElement}."""
        return KoszulElement(self, data)

    def generator_element(self, j):
        return KoszulElement(self, {(j,): self.ring.one()})

    def zero_element(self):
        return KoszulElement(self, {})

    def __repr__(self):
        return "KoszulComplex(%r, D=%d)" % (self.ring, self.truncation)


# ------------------------------------------------------------- dg operations

def differential(u):
    """d(r e_S) = sum_l (-1)^(l-1) (r x_{j_l}) e_{S \\ j_l}, 1-based l."""
    K = u.complex
    out = {}
    for S, r in u.data.items():
        for l, j in enumerate(S):
            T = tuple(x for x in S if x != j)
            term = r * K.ring.generator(j)
            if l % 2 == 1:
                term = -term
            if T in out:
                out[T] = out[T] + term
            else:
                out[T] = term
    return KoszulElement(K, out)


def contract(u, g):
    """Contraction by e_g^*: r e_S -> (-1)^(l-1) r e_{S \\ g}, g at 1-based slot l."""
    out = {}
    for S, r in u.data.items():
        if g in S:
            l = S.index(g)
            out[S[:l] + S[l + 1:]] = -r if l % 2 else r
    return KoszulElement(u.complex, out)


def wedge(u, v):
    """Bilinear extension of e_S ∧ e_T = sign(S,T) e_{S∪T}."""
    u._check(v)
    K = u.complex
    out = {}
    for S, r in u.data.items():
        for T, s in v.data.items():
            sign = _merge_sign(S, T)
            if sign == 0:
                continue
            U = tuple(sorted(S + T))
            term = r * s
            if sign < 0:
                term = -term
            if U in out:
                out[U] = out[U] + term
            else:
                out[U] = term
    return KoszulElement(K, out)


# ------------------------------------------------------------------ homology

def homology_basis(K, i):
    """Representatives and reduction data for H_i(K), all internal degrees.

    The first call builds every H_j in one pass (see _homology_pass);
    later calls look the basis up, or rerun the full pass for an H_i
    past those _homology_through built.
    """
    if not (0 <= i <= K.n):
        raise ValueError("homological degree out of range")
    if K._homology is None or i >= len(K._homology):
        K._homology = _homology_pass(K, K.n)
    return K._homology[i]


def _homology_through(K, top):
    """Build only H_0..H_top (H_1 needs d_1 and d_2) unless homology is built."""
    if K._homology is None:
        K._homology = _homology_pass(K, top)


def _homology_pass(K, top):
    """H_0..H_top, one internal degree at a time, each d_i assembled once.

    In degree d, i runs from min(top + 1, n) down to 0, over the columns
    of each d_i (K.diff_columns).  The columns of d_{i+1} at its pivots
    (exactalg.eliminate) are independent boundary columns of the strand
    (i, d); past top all columns go.  With F the free columns of d_i, a
    cycle z is the combination of the canonical kernel vectors v_f with
    coefficients z[f], so z -> z[F] maps Z_{i,d} onto k^F and B_{i,d}
    onto the span of C, the boundary columns restricted to the rows F.
    v_f is a class iff f is not the last nonzero position of a vector of
    span(C), a pivot of C^T with its columns reversed: exactly the kernel
    vectors that a search adding the boundaries, then each v_f in turn,
    keeps.  That C^T has one kernel vector u per class, and u . z[F] (F
    reversed) is the coordinate of z on the class modulo boundaries.  If
    the boundary columns are independent and as many as the cycles, B =
    Z: nothing is eliminated.  Only a strand with a class keeps a record
    (_DegreeData), and for i > 0 leaves the columns of d_i in the cache
    of class_of; the pass keeps nothing of a classless strand.  A strand
    past SIZE_LIMIT dense entries raises MemoryError before any work.
    """
    F = K.field
    dims = np.array([bounds[:, -1] for bounds in K._bounds])  # dims[i, d] = dim K_{i,d}
    dense = np.multiply(dims[:-1], dims[1:], dtype=float)[:min(top + 1, K.n)]  # float: no overflow
    over = np.argwhere(dense > SIZE_LIMIT)
    if len(over):
        i, d = over[0].tolist()
        raise MemoryError("strand of d_%d in degree %d is past %d dense entries"
                          % (i + 1, d, SIZE_LIMIT))
    classes = [[] for _ in range(top + 1)]
    degree_data = [{} for _ in range(top + 1)]
    for d in range(K.truncation + 1):
        boundary = []  # the boundary columns of d_{i+1}, {row: scalar} dicts
        for i in range(min(top + 1, K.n), -1, -1):
            total = int(dims[i, d])
            if total == 0:
                boundary = []
                continue
            # d_0 = 0: a matrix with no rows, whose kernel is every unit vector
            columns = K.diff_columns(i, d) if i else [{} for _ in range(total)]
            if i > top:
                boundary = columns
                continue
            pivots, kernel = exactalg.eliminate(F, columns)
            if kernel:
                positions, functionals = _classes_in_free_columns(
                    F, total, pivots, boundary, i < top)
                if positions:
                    reps = [kernel[t] for t in positions]
                    indices = list(range(len(classes[i]), len(classes[i]) + len(reps)))
                    classes[i] += [HomologyClass(idx, d, K.vector_to_element(i, d, v),
                                                 "h%d.%d" % (i, idx + 1))
                                   for idx, v in zip(indices, reps)]
                    degree_data[i][d] = _DegreeData(boundary, reps, indices, functionals)
                    if i:
                        K._cycle_columns[(i, d)] = columns
                    if K.exactness_floor is not None and d >= K.exactness_floor:
                        raise TruncationError(
                            "nonzero H_%d in degree %d inside the vanishing window"
                            % (i, d))
            boundary = [columns[c] for c in pivots]
    return [HomologyBasis(K, i, classes[i], degree_data[i])
            for i in range(top + 1)]


def _classes_in_free_columns(F, total, pivots, boundary, independent):
    """(positions of the classes among the kernel vectors, functionals); see _homology_pass.

    The functionals are {free column: [(class, scalar)]}.
    """
    if independent and len(boundary) == total - len(pivots):  # B = Z
        return [], {}
    rev = sorted(set(range(total)).difference(pivots), reverse=True)  # F reversed
    slot = {f: q for q, f in enumerate(rev)}  # row f of C is column slot[f] of C^T
    columns = [{} for _ in rev]
    for t, column in enumerate(boundary):
        for r, a in column.items():
            if r in slot:
                columns[slot[r]][t] = a
    trailing, duals = exactalg.eliminate(F, columns)
    classes = sorted(set(range(len(rev))).difference(trailing), reverse=True)
    functionals = {}
    for t, u in enumerate(reversed(duals)):
        for q, a in u.items():
            functionals.setdefault(rev[q], []).append((t, a))
    return [len(rev) - 1 - q for q in classes], functionals


def class_of(K, i, z):
    """Coordinates of the cycle z in the basis of H_i; verifies d(z) = 0.

    d preserves internal degree, so z is a cycle iff each internal
    component is.  For i > 0 each component is checked against the
    columns of d_i in one cache on K by (i, d), which _homology_pass
    seeds with the strands that keep a record; any other strand is
    assembled on its first such query.  A cycle is mapped by its
    strand's record; a strand without one holds only boundaries.  Past
    the truncation (semigroup rings only) every block is k t^a and x_j
    t^a = t^(a+g_j), so the strand has the layout and the d_i of the
    exactness floor, which holds no classes.
    """
    deg = z.homological_degree()
    if not z.is_zero() and deg != i:
        raise ValueError("element lies in homological degree %s, not %d" % (deg, i))
    basis = homology_basis(K, i)
    F = K.field
    coords = [F.zero] * basis.dim
    for d, vec in K.strand_vectors(i, z).items():
        if d > K.truncation:
            if K.exactness_floor is None:
                raise TruncationError(
                    "cycle component in degree %d exceeds truncation %d"
                    % (d, K.truncation))
            d = K.exactness_floor
        if i:
            columns = K._cycle_columns.get((i, d))
            if columns is None:
                columns = K._cycle_columns[(i, d)] = K.diff_columns(i, d)
            if not _is_cycle(F, columns, vec):
                raise NotACycleError("class_of received a non-cycle")
        data = basis.degree_data.get(d)
        if data is not None:
            for idx, c in zip(data.class_indices, data.rep_coords(F, vec)):
                if c != F.zero:
                    coords[idx] = F.add(coords[idx], c)
    return coords


def homology_product(K, i, a_coords, j, b_coords):
    """Coordinates in H_{i+j} of the product of two classes, given by their coordinates.

    The bilinear form on the structure constants: only the entries of
    basis pairs where both coordinates are nonzero are read.
    """
    if i + j > K.n:
        return []  # H_{i+j} = 0
    if (len(a_coords) != homology_basis(K, i).dim
            or len(b_coords) != homology_basis(K, j).dim):
        raise ValueError("coordinate length mismatch")
    F = K.field
    p = F.characteristic
    out = [F.zero] * homology_basis(K, i + j).dim
    for a, x in enumerate(a_coords):
        if x != F.zero:
            for b, y in enumerate(b_coords):
                if y != F.zero:
                    s = x * y
                    for t, c in enumerate(K.structure.product(i, a, j, b)):
                        if c:
                            out[t] += s * c
    return [c % p for c in out] if p else out


def product_witness(K, i, j):
    """First (a, b, product) with h_i.a * h_j.b != 0, in basis order; None if all vanish.

    The product is the structure constants' entry; callers must not
    write to it.
    """
    hi = homology_basis(K, i)
    hj = homology_basis(K, j)
    if i + j > K.n:
        return None
    F = K.field
    for a in range(hi.dim):
        for b in range(hj.dim):
            prod = K.structure.product(i, a, j, b)
            if any(c != F.zero for c in prod):
                return a, b, prod
    return None


def product_vanishing(K, i, j):
    """True iff every product of basis classes H_i x H_j is zero."""
    return product_witness(K, i, j) is None


# Source columns of one stacked batch of strand_ranks; a larger strand is
# a batch of its own.  Below it, numpy's per-call cost of one assembly and
# one peel per strand dominates the small rings (the betti-fp rank phase
# about halves).  On the x^98 ring (strands of up to 6598 columns) caps of
# 2^13-2^17 rank d_3 as fast as one strand a batch at the same 207 MB
# peak, while a single batch of all 732550 columns is slower and peaks at
# 279 MB.
BATCH_COLUMNS = 1 << 15


def strand_ranks(K):
    """{(i, d): rank of d_i on the strand (i, d)} wherever source and target are nonzero.

    Two families are known in closed form and never assembled.  d_1 maps
    K_1 onto m, so rank d_1 in degree d >= 1 is dim R_d.  For a quotient
    R = S/I, H_1(K)_d = Tor_1^S(R, k)_d = (I/mI)_d has dimension mu_d(I),
    the number of minimal generators of I in degree d, so rank d_2 in
    degree d is dim K_{1,d} - dim R_d - mu_d(I).  A semigroup ring has
    no given ideal and ranks its d_2 strands.  Every other strand is
    ranked in a batch: the strands of d_i in consecutive degrees, up to
    BATCH_COLUMNS source columns (a larger strand makes a batch of its
    own), are stacked into one block-diagonal triplet array and peeled
    once, and each strand's rank is read from its block.
    """
    mu = (K.ring.minimal_generator_counts()
          if isinstance(K.ring, ArtinianQuotient) else None)
    ranks = {}
    for i in range(1, K.n + 1):
        src, dst = K._bounds[i][:, -1], K._bounds[i - 1][:, -1]
        live = np.flatnonzero((src > 0) & (dst > 0))
        if i == 1 or (i == 2 and mu is not None):
            for d, rows in zip(live.tolist(), dst[live].tolist()):
                ranks[(i, d)] = (rows if i == 1 else
                                 rows - ranks.get((1, d), 0) - mu.get(d, 0))
            continue
        live, widths = live.tolist(), src[live].tolist()
        start = 0
        while start < len(live):
            stop, cols = start + 1, widths[start]
            while stop < len(live) and cols + widths[stop] <= BATCH_COLUMNS:
                cols += widths[stop]
                stop += 1
            first, last = live[start], live[stop - 1] + 1
            bounds = np.concatenate(([0], np.cumsum(dst[first:last])))
            block_ranks = exactalg.sparse_rank(
                K.field, int(bounds[-1]), int(src[first:last].sum()),
                K.diff_triplets(i, first, last), bounds)
            for d in live[start:stop]:
                ranks[(i, d)] = block_ranks[d - first]
            start = stop
    return ranks


def betti_table(K, rank_only=False, threads=None):
    """Betti table: entry (i, j) is rank H_i(K)_{i+j}.

    rank_only reads the table off strand_ranks and never materializes
    kernels; required at the scale of the largest example, identical
    answers elsewhere.  On a quotient it ranks only the strands of d_i
    for i >= 3, on a semigroup ring those for i >= 2.  threads is an
    upper bound on worker threads; strands run serially in one thread,
    which meets every bound, so the argument is accepted and unused.
    """
    entries = {}
    if rank_only:
        ranks = strand_ranks(K)
        for i, bounds in enumerate(K._bounds):
            live = np.flatnonzero(bounds[:, -1])
            for d, total in zip(live.tolist(), bounds[live, -1].tolist()):
                h = total - ranks.get((i, d), 0) - ranks.get((i + 1, d), 0)
                if h:
                    entries[(i, d - i)] = h
    else:
        for i in range(K.n + 1):
            basis = homology_basis(K, i)
            for cls in basis.classes:
                key = (i, cls.degree - i)
                entries[key] = entries.get(key, 0) + 1
    return BettiTable(entries)


def h1_from_relations(K):
    """Cycles z_q = sum_j a_qj e_j from the ideal generators; basis check.

    Each minimal generator q = sum_j a_j x_j of I yields the cycle
    sum_j (image of a_j) e_j; the report verifies the cycle condition,
    linear independence in H_1, and that they span (their count equals
    dim H_1 exactly when the given generating set is minimal).
    """
    ring = K.ring
    if not isinstance(ring, ArtinianQuotient):
        raise ValueError("relations are explicit only for quotient rings")
    ctx = ring.ctx
    cycles = []
    for q in ring.ideal_gens:
        parts = [ctx.zero() for _ in range(K.n)]
        for mono, coeff in q.terms:
            j = next(t for t, e in enumerate(mono) if e > 0)
            lowered = tuple(e - 1 if t == j else e for t, e in enumerate(mono))
            parts[j] = parts[j] + ctx.monomial(lowered, coeff)
        data = {}
        for j, p in enumerate(parts):
            data[(j,)] = ring.from_polynomial(p)
        cycles.append(KoszulElement(K, data))
    basis = homology_basis(K, 1)
    all_cycles = all(differential(z).is_zero() for z in cycles)
    coords = [class_of(K, 1, z) for z in cycles]
    mat = Matrix(K.field, coords, basis.dim) if coords else None
    independent = (
        exactalg.rank(mat) == len(cycles) if coords else True)
    spans = len(cycles) == basis.dim
    return {
        "cycles": cycles,
        "coordinates": coords,
        "all_cycles": all_cycles,
        "independent": independent,
        "spans_h1": spans,
        "minimal": independent and spans,
        "dim_h1": basis.dim,
    }
