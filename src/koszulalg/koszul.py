"""The Koszul complex on the generators of m as a dg algebra.

K(f) is the exterior algebra over R on e_1..e_n with d(e_i) = x_i,
graded internally by (ring degree of the coefficient) + (sum of the
weights of the wedge factors).  The differential preserves internal
degree, so every computation happens strand by strand: the strand
(i, d) has one basis element per pair (subset S of size i, basis
element of R_{d - w(S)}).

Homology is computed in one pass over internal degrees that builds every
H_i at once.  In degree d it walks i from n down to 0 and assembles the
triplets of each d_i once: they give the kernel of H_i, and one step
later the boundary columns of H_{i-1}.  Each strand is one sparse row
echelon form.  The columns of d_{i+1} go in first and span the
boundaries B; then the canonical kernel basis of d_i goes in, and the
kernel vectors that extend the span become the representatives Z', each
row remembering its coefficients on Z'.  So Z_{i,d} = span(B) + span(Z'),
a direct sum, and every class_of query is one reduction of the cycle's
coordinate vector.  Since the strand's span is exactly its cycle space,
a zero residual is the cycle condition itself, so class_of needs no
separate d(z) = 0.  Strand layouts (block offsets) are kept per (i, d).

Betti tables read off rank H_i(K)_{i+j}; a rank-only path serves
tables far beyond the sizes where kernel bases fit in memory.  It takes
the ranks of d_1 and (for quotients) d_2 in closed form from dim R_d and
the minimal generators of the ideal, and ranks the other strands by
sparse peeling plus dense elimination of the core.

Truncation: Artinian rings carry everything in internal degrees
d <= top_degree + sum(w_j).  For semigroup rings the strand in degree
d >= conductor + sum(g_j) is the Koszul complex on a sequence of
units of k (every R_{d-w(S)} is one-dimensional), hence exact; the
complex still asserts computed vanishing in that degree instead of
trusting the argument blindly, and truncates there.  Cycles built from
the recorded ones (images under a lift, products with a perturbation)
may reach past the truncation; those components add nothing to the
class, and class_of reduces them against the recorded span of the
exactness floor's strand, which every degree from the floor on shares.
"""

from __future__ import annotations

import itertools

from koszulalg import exactalg
from koszulalg.exactalg import Matrix
from koszulalg.gring import ArtinianQuotient, SemigroupRing


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
    """Reduction data of one homology strand (i, d).

    span is one sparse Echelon of the cycle space Z_{i,d}.  Its untagged
    rows, from the columns of d_{i+1}, span the boundaries B_{i,d}; each
    tagged row carries its coefficients on rep_vectors, which complete
    B_{i,d} to Z_{i,d}.  residuals is a memo, keyed by filtration level,
    that analyze fills with the filtration of this strand's classes.
    """

    __slots__ = ("span", "rep_vectors", "class_indices", "residuals")

    def __init__(self, span, rep_vectors, class_indices):
        self.span = span
        self.rep_vectors = rep_vectors
        self.class_indices = class_indices
        self.residuals = {}

    def boundary_rows(self):
        """The untagged echelon rows: a basis of B_{i,d}."""
        return [row for row in self.span.rows if not row[3]]

    def rep_coords(self, vec):
        """Coordinates of vec on rep_vectors modulo boundaries; None if vec is no cycle."""
        return self.span.coords(vec, len(self.rep_vectors))


class HomologyClass:
    __slots__ = ("index", "degree", "element", "label")

    def __init__(self, index, degree, element, label):
        self.index = index
        self.degree = degree
        self.element = element
        self.label = label


class HomologyBasis:
    """Basis of H_i with per-degree reduction data for class_of."""

    def __init__(self, complex_, i, classes, degree_data):
        self.complex = complex_
        self.i = i
        self.classes = classes
        self.degree_data = degree_data
        self.dim = len(classes)

    def degrees(self):
        return sorted({c.degree for c in self.classes})


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
        self._layouts = {}
        self._homology = None

    # ------------------------------------------------------------ structure

    def subset_weight(self, S):
        return sum(self.weights[j] for j in S)

    def strand_offsets(self, i, d):
        """(offset of each subset's block, total dimension) of the strand (i, d)."""
        layout = self._layouts.get((i, d))
        if layout is None:
            offsets, total = [], 0
            if 0 <= i <= self.n:
                dim = self.ring.dim
                for w in self.subset_weights[i]:
                    offsets.append(total)
                    total += dim(d - w)
            layout = self._layouts[(i, d)] = (offsets, total)
        return layout

    def strand_dim(self, i, d):
        return self.strand_offsets(i, d)[1]

    def diff_triplets(self, i, d):
        """Sparse triplets of d_{i,d}: strand (i, d) -> strand (i-1, d)."""
        src_offsets, _ = self.strand_offsets(i, d)
        dst_offsets, _ = self.strand_offsets(i - 1, d)
        out = []
        for s_pos, S in enumerate(self.subsets[i]):
            a = d - self.subset_weights[i][s_pos]
            if self.ring.dim(a) == 0:
                continue
            col0 = src_offsets[s_pos]
            for l, j in enumerate(S):
                T = tuple(x for x in S if x != j)
                row0 = dst_offsets[self.subset_index[i - 1][T]]
                sign = 1 if l % 2 == 0 else -1
                for r, c, coeff in self.ring.mult_triplets(j, a):
                    if sign < 0:
                        coeff = self.field.neg(coeff)
                    out.append((row0 + r, col0 + c, coeff))
        return out

    def diff_matrix(self, i, d):
        _, src = self.strand_offsets(i, d)
        _, dst = self.strand_offsets(i - 1, d)
        return Matrix.from_triplets(self.field, dst, src, self.diff_triplets(i, d))

    def strand_vectors(self, i, u):
        """Strand coordinates of the homological-degree-i part of u, per internal degree.

        Returns {d: vector of strand (i, d)} for every d where that part
        has a nonzero component.
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
                    offsets, total = self.strand_offsets(i, d)
                    out[d] = ([self.field.zero] * total, offsets)
                vec, offsets = out[d]
                for t, c in entries:
                    vec[offsets[s_pos] + t] = c
        return {d: out[d][0] for d in sorted(out)}

    def vector_to_element(self, i, d, vec):
        offsets, total = self.strand_offsets(i, d)
        if len(vec) != total:
            raise ValueError("strand coordinate length mismatch")
        data = {}
        for s_pos, S in enumerate(self.subsets[i]):
            a = d - self.subset_weights[i][s_pos]
            b = self.ring.dim(a)
            if b == 0:
                continue
            coords = vec[offsets[s_pos]:offsets[s_pos] + b]
            r = self.ring.element_from_coords(a, coords)
            if not r.is_zero():
                data[S] = r
        return KoszulElement(self, data)

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
    later calls look the basis up.
    """
    if not (0 <= i <= K.n):
        raise ValueError("homological degree out of range")
    if K._homology is None:
        K._homology = _homology_pass(K)
    return K._homology[i]


def _homology_pass(K):
    """Every H_i, one internal degree at a time, each d_i assembled once.

    In degree d, i runs from n down to 0: the triplets of d_i give the
    kernel of the strand (i, d) and are kept one step, as the boundary
    columns of the strand (i-1, d).
    """
    F = K.field
    classes = [[] for _ in range(K.n + 1)]
    degree_data = [{} for _ in range(K.n + 1)]
    for d in range(K.truncation + 1):
        boundary = []
        for i in range(K.n, -1, -1):
            total = K.strand_dim(i, d)
            if total == 0:
                boundary = []
                continue
            if i == 0:
                triplets = []
                kernel = [exactalg.unit_vector(F, total, s) for s in range(total)]
            else:
                triplets = K.diff_triplets(i, d)
                kernel = exactalg.kernel_basis(Matrix.from_triplets(
                    F, K.strand_dim(i - 1, d), total, triplets))
            if kernel:
                span = exactalg.Echelon(F)
                columns = {}
                for r, c, a in boundary:
                    if c not in columns:
                        columns[c] = [F.zero] * total
                    columns[c][r] = F.add(columns[c][r], a)
                for c in sorted(columns):
                    span.add(columns[c])
                reps = []
                indices = []
                for v in kernel:
                    if not span.add(v, ((len(reps), F.one),)):
                        continue
                    idx = len(classes[i])
                    label = "h%d.%d" % (i, idx + 1)
                    classes[i].append(HomologyClass(
                        idx, d, K.vector_to_element(i, d, v), label))
                    reps.append(v)
                    indices.append(idx)
                degree_data[i][d] = _DegreeData(span, reps, indices)
                if K.exactness_floor is not None and d >= K.exactness_floor and reps:
                    raise TruncationError(
                        "nonzero H_%d in degree %d inside the vanishing window"
                        % (i, d))
            boundary = triplets
    return [HomologyBasis(K, i, classes[i], degree_data[i])
            for i in range(K.n + 1)]


def class_of(K, i, z):
    """Coordinates of the cycle z in the basis of H_i; verifies d(z) = 0.

    d preserves internal degree, so z is a cycle iff each internal
    component is.  Up to the truncation a component lies in a strand
    whose recorded span is its whole cycle space (zero where no data
    is recorded), so its zero residual is the cycle check.  Past the
    truncation (semigroup rings only) every block is k t^a and
    x_j t^a = t^(a+g_j), so the strand has the layout and the d_i of the
    exactness floor; the component is reduced against the floor's span,
    which is all of Z there and holds no representatives.
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
        data = basis.degree_data.get(d)
        if data is None:
            # no data recorded: Z_{i,d} = 0
            if any(a != F.zero for a in vec):
                raise NotACycleError("class_of received a non-cycle")
            continue
        sol = data.rep_coords(vec)
        if sol is None:
            raise NotACycleError("class_of received a non-cycle")
        for idx, c in zip(data.class_indices, sol):
            if c != F.zero:
                coords[idx] = F.add(coords[idx], c)
    return coords


def representative(K, i, coords):
    """The linear combination of basis representatives with given coordinates."""
    basis = homology_basis(K, i)
    if len(coords) != basis.dim:
        raise ValueError("coordinate length mismatch")
    out = K.zero_element()
    for c, cls in zip(coords, basis.classes):
        if c != K.field.zero:
            out = out + cls.element.scale(c)
    return out


def homology_product(K, i, a_coords, j, b_coords):
    """Coordinates in H_{i+j} of the product of two classes."""
    if i + j > K.n:
        return []  # H_{i+j} = 0
    za = representative(K, i, a_coords)
    zb = representative(K, j, b_coords)
    return class_of(K, i + j, wedge(za, zb))


def product_witness(K, i, j):
    """First (a, b, product) with h_i.a * h_j.b != 0, in basis order; None if all vanish."""
    hi = homology_basis(K, i)
    hj = homology_basis(K, j)
    if i + j > K.n:
        return None
    F = K.field
    for a in range(hi.dim):
        ea = exactalg.unit_vector(F, hi.dim, a)
        for b in range(hj.dim):
            prod = homology_product(K, i, ea, j, exactalg.unit_vector(F, hj.dim, b))
            if any(c != F.zero for c in prod):
                return a, b, prod
    return None


def product_vanishing(K, i, j):
    """True iff every product of basis classes H_i x H_j is zero."""
    return product_witness(K, i, j) is None


def strand_ranks(K):
    """{(i, d): rank of d_i on the strand (i, d)} wherever source and target are nonzero.

    Two families are known in closed form and never assembled.  d_1 maps
    K_1 onto m, so rank d_1 in degree d >= 1 is dim R_d.  For a quotient
    R = S/I, H_1(K)_d = Tor_1^S(R, k)_d = (I/mI)_d has dimension mu_d(I),
    the number of minimal generators of I in degree d, so rank d_2 in
    degree d is dim K_{1,d} - dim R_d - mu_d(I).  A semigroup ring has
    no given ideal and ranks its d_2 strands.  Every other strand is
    ranked by sparse peeling plus dense elimination of the core.
    """
    mu = (K.ring.minimal_generator_counts()
          if isinstance(K.ring, ArtinianQuotient) else None)
    ranks = {}
    for d in range(K.truncation + 1):
        for i in range(1, K.n + 1):
            src, dst = K.strand_dim(i, d), K.strand_dim(i - 1, d)
            if not (src and dst):
                continue
            if i == 1:
                ranks[(i, d)] = dst
            elif i == 2 and mu is not None:
                ranks[(i, d)] = dst - ranks.get((1, d), 0) - mu.get(d, 0)
            else:
                ranks[(i, d)] = exactalg.sparse_rank(
                    K.field, dst, src, K.diff_triplets(i, d))
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
        for i in range(K.n + 1):
            for d in range(K.truncation + 1):
                total = K.strand_dim(i, d)
                if total == 0:
                    continue
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
