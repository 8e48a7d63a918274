"""Graded rings behind one interface: Artinian quotients and semigroup rings.

An ArtinianQuotient is k[x_1..x_n]/I for a weighted-homogeneous ideal
I with Artinian quotient, presented by a reduced monic Groebner basis.
Its basis is the standard monomials (those outside LT(I)), kept as the
rows of one int64 exponent array, degree by degree in decreasing term
order.  The array is built in one whole-array round per variable: a
standard monomial on x_1..x_{i-1} extends by the powers of x_i below
the least x_i-exponent of a leading monomial that blocks it.
Multiplication by x_i is built without general division (the
multiplication-matrix construction of FGLM: Faugere, Gianni, Lazard,
Mora, J. Symb. Comp. 1993; border bases: Kehrein, Kreuzer, Robbiano),
for every generator and degree at once: all products x_i*m of standard
monomials are located among the standard monomials by one sorted search
of hash keys, each hit checked against the exponent rows.  A product
not found in degree <= top_degree lies on the border of the staircase;
the normal forms of all of them come from whole-array rounds that
replace each pending term by the tail of its first dividing basis
element, merge equal terms and keep those found among the standard
monomials.
The same table answers every product of elements: a monomial's normal
form is nothing past top_degree, itself if standard, and otherwise x_i
times the normal form of mono/x_i, one table column per term, so
neither products nor parsed polynomials go through polyring.normal_form.

A SemigroupRing is k[t^{g_1},...,t^{g_n}] inside k[t], graded by
t-degree, with dim R_d <= 1 decided by a coin-problem sieve.  Both
expose per-degree bases, multiplication-by-generator matrices as triplet
arrays (exactalg.as_triplets), and degree slices of powers of the
maximal ideal.  A quotient also counts the minimal generators of its
ideal per degree (graded Nakayama); the rank-only Betti path and ord(R)
read them instead of Koszul homology in degree 1.

Construction validates minimality of the chosen generators of the
maximal ideal (ker f inside mF): for quotients every variable must
survive into R, for semigroups no generator may be representable by
the others.  A quotient computes its exponent array, dimensions and
generators once, and its multiplication table on the first request.
The basis tuples of a degree are made on its first request and kept;
basis indices, slices of powers of m and the product table are
size-capped Memo dicts that evict the oldest entry first.  The
rank-only paths never make a basis tuple.
A semigroup ring decides membership in m^a from one table, grown in
place on demand, of the largest number of generators summing to each
degree.  The mathematical value of a ring never changes, but its caches
fill in place without locks, so a ring belongs to one thread.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from koszulalg import exactalg
from koszulalg.exactalg import Matrix, PrimeField
from koszulalg.polyring import (
    GroebnerBasis,
    PolyContext,
    Polynomial,
    buchberger,
    mono_divides,
    normal_form,
    parse_poly,
)


class RingConstructionError(ValueError):
    """Rejected ring presentation (non-Artinian, non-minimal, ...)."""


class RingElement:
    """Element of a GradedRing: a sparse dict {basis key: nonzero scalar}.

    The keys are standard monomials for a quotient and t-exponents of
    semigroup members for a semigroup ring, so each element has exactly
    one payload.
    """

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data

    def _check(self, other):
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")

    def is_zero(self):
        return self.ring._is_zero(self.data)

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring._add(self.data, other.data))

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring._sub(self.data, other.data))

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.data))

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring._mul(self.data, other.data))

    def scale(self, c):
        return RingElement(self.ring, self.ring._scale(self.data, c))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring is other.ring
            and self.ring._eq(self.data, other.data)
        )

    def __hash__(self):
        return hash((id(self.ring), self.ring._hash_data(self.data)))

    def __str__(self):
        return self.ring._str_data(self.data)

    def __repr__(self):
        return "RingElement(%s)" % self


class Memo:
    """Memo dict of at most maxsize entries; the oldest insertion goes first."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.data = {}

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value):
        while len(self.data) >= self.maxsize:
            self.data.pop(next(iter(self.data)))
        self.data[key] = value
        return value

    def get_or_compute(self, key, fn):
        if key in self.data:
            return self.data[key]
        return self.put(key, fn())


class GradedRing:
    """Common interface; see ArtinianQuotient and SemigroupRing."""

    # subclasses set: field, ngens, weights, gen_names, depth,
    # top_degree (int, or None meaning infinite)

    def dim(self, d):
        raise NotImplementedError

    def basis_of_degree(self, d):
        raise NotImplementedError

    def mult_triplets(self, i, d):
        """Multiplication by generator i, R_d -> R_{d+w_i}, as a triplet array.

        One (nnz, 3) array of (row, col, coeff), int64 over F_p and
        dtype=object over Q (exactalg.as_triplets), ordered by column
        and by row within a column, zero coefficients omitted: column c
        holds the coordinates of x_i times the c-th basis element of R_d.
        The array is cached and shared; callers must not write to it.
        """
        raise NotImplementedError

    def generator(self, i):
        raise NotImplementedError

    def zero(self):
        return RingElement(self, {})

    def one(self):
        raise NotImplementedError

    def coords_by_degree(self, elem):
        """Sparse coordinates of each homogeneous component: {degree: [(index, coeff)]}.

        Indices refer to basis_of_degree(degree); zero coefficients are omitted.
        """
        raise NotImplementedError

    def element_from_coords(self, d, coords):
        raise NotImplementedError

    def max_ideal_power_vectors(self, a, d):
        """Basis (coordinate vectors in basis_of_degree(d)) of the degree-d slice of m^a."""
        raise NotImplementedError

    def parse_element(self, text):
        raise NotImplementedError

    @property
    def codepth(self):
        """edim - depth: index of the top nonvanishing Koszul homology."""
        return self.ngens - self.depth

    # ------------------------------------------- payload arithmetic, shared

    def _sum(self, terms):
        """Payload of the sum of (basis key, scalar) terms."""
        F = self.field
        add, zero = F.add, F.zero
        out = {}
        for k, c in terms:
            s = add(out[k], c) if k in out else c
            if s == zero:
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def _add(self, a, b):
        return self._sum(itertools.chain(a.items(), b.items()))

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _neg(self, a):
        neg = self.field.neg
        return {k: neg(c) for k, c in a.items()}

    def _scale(self, a, c):
        if c == self.field.zero:
            return {}
        mul = self.field.mul
        return {k: mul(c, v) for k, v in a.items()}

    def _is_zero(self, a):
        return not a

    def _eq(self, a, b):
        return a == b

    def _hash_data(self, a):
        return hash(frozenset(a.items()))


class ArtinianQuotient(GradedRing):
    """k[x_1..x_n]/I presented by a reduced Groebner basis."""

    def __init__(self, ctx, ideal_gens):
        for g in ideal_gens:
            if g.ctx != ctx:
                raise RingConstructionError("ideal generator not in the given context")
            if not g.is_homogeneous():
                raise RingConstructionError(
                    "ideal generator %s is not weighted-homogeneous" % g)
        self.ctx = ctx
        self.field = ctx.field
        self.ngens = ctx.nvars
        self.weights = list(ctx.weights)
        self.gen_names = list(ctx.variables)
        self.depth = 0
        nonzero = [g for g in ideal_gens if not g.is_zero()]
        self.gb = buchberger(nonzero) if nonzero else GroebnerBasis(ctx, [])
        self.ideal_gens = tuple(ideal_gens)

        # Artinian iff every variable has a pure-power leading monomial.
        lms = self.gb.leading_monomials()
        powers = {i for lm in lms for i, e in enumerate(lm) if e == sum(lm) > 0}
        missing = [v for i, v in enumerate(self.gen_names) if i not in powers]
        if missing:
            raise RingConstructionError(
                "quotient is not Artinian: no pure power of %s in the initial ideal"
                % ", ".join(missing))

        # Each reducer is (leading monomial, tail with negated coefficients)
        # of a monic basis element: a monomial u*lm reduces to
        # sum(c * u*t for t, c in tail).  The monomials of the basis (no
        # tail) come first, so a multiple of one is dropped at once.
        F = self.field
        n = self.ngens
        reducers = sorted(
            ((g.leading_monomial(), [(t, F.neg(c)) for t, c in g.terms[1:]])
             for g in self.gb.gens), key=lambda r: bool(r[1]))
        self._lms = np.array([lm for lm, _ in reducers], dtype=np.int64).reshape(-1, n)
        tails = [term for _, tail in reducers for term in tail]
        self._tail_len = np.array([len(tail) for _, tail in reducers], dtype=np.int64)
        self._tail_start = self._tail_len.cumsum() - self._tail_len
        self._tail_exps = np.array([t for t, _ in tails], dtype=np.int64).reshape(-1, n)
        self._tail_coef = np.array([c for _, c in tails], dtype=exactalg.triplet_dtype(F))

        # Minimality of x_1..x_n as generators of m: each x_i survives in
        # R_{w_i}, so it is standard, hence its own normal form.
        self._generators = []
        for i in range(n):
            mono = tuple(1 if j == i else 0 for j in range(n))
            if any(mono_divides(lm, mono) for lm in lms):
                raise RingConstructionError(
                    "generator %s is not minimal (reducible modulo the ideal)"
                    % self.gen_names[i])
            self._generators.append(RingElement(self, {mono: F.one}))

        self._no_product = exactalg.as_triplets(F)
        self._bases = {}
        self._index_cache = Memo(64)
        self._mult_table = None
        self._mpower_cache = Memo(4096)
        self._products = Memo(4096)

        self._exps, dims = self._staircase()
        self._dims = tuple(dims)
        self._starts = (0,) + tuple(itertools.accumulate(dims))
        self.top_degree = len(dims) - 1

    # ------------------------------------------------------------- queries

    def dim(self, d):
        return self._dims[d] if 0 <= d <= self.top_degree else 0

    def _staircase(self):
        """(exponent rows, dims): the standard monomials in basis order.

        Built in one whole-array round per variable.  A standard monomial
        m on x_1..x_{i-1} extends to m*x_i^e exactly for e < E(m), where
        E(m) is the least x_i-exponent of the leading monomials whose
        last variable is x_i and whose other exponents divide m: the
        pure power of x_i is one of them, and one with an earlier last
        variable never divides m, since m is standard.  The rows are then
        ordered by degree, then decreasing term order; dims[d] counts
        those of degree d.
        """
        n = self.ngens
        lms = self._lms
        stair = np.zeros((1, n), dtype=np.int64)
        last = n - 1 - (lms[:, ::-1] > 0).argmax(axis=1)
        unbounded = np.iinfo(np.int64).max
        for i in range(n):
            walls = lms[last == i]
            divides = (walls[:, :i] <= stair[:, None, :i]).all(axis=2)
            reach = np.where(divides, walls[:, i], unbounded).min(axis=1)
            stair = stair.repeat(reach, axis=0)
            stair[:, i] = np.arange(len(stair)) - (reach.cumsum() - reach).repeat(reach)
        degree = stair @ np.array(self.weights)
        if self.ctx.order == "grevlex":
            # higher total degree first, then smaller exponents read from
            # the last variable backwards
            keys = (*stair.T, -stair.sum(axis=1), degree)
        else:
            keys = (*(-stair[:, ::-1]).T, degree)
        return stair[np.lexsort(keys)], np.bincount(degree).tolist()

    def _monomial_basis(self, d):
        """Standard monomials of degree d in decreasing term order, as tuples."""
        basis = self._bases.get(d)
        if basis is None:
            if not 0 <= d <= self.top_degree:
                return ()
            basis = self._bases[d] = tuple(map(
                tuple, self._exps[self._starts[d]:self._starts[d + 1]].tolist()))
        return basis

    def basis_of_degree(self, d):
        if d < 0:
            return []
        one = self.field.one
        return [RingElement(self, {m: one}) for m in self._monomial_basis(d)]

    def _basis_index(self, d):
        return self._index_cache.get_or_compute(
            d, lambda: {m: t for t, m in enumerate(self._monomial_basis(d))})

    def mult_triplets(self, i, d):
        if d < 0 or d + self.weights[i] > self.top_degree:
            return self._no_product
        if self._mult_table is None:
            self._mult_table = self._multiplication_table()
        table, bounds = self._mult_table
        return table[bounds[i][d]:bounds[i][d + 1]]

    def _multiplication_table(self):
        """(triplet array, bounds): every x_i on every R_d, built at once.

        The rows of the exponent array are the standard monomials, degree
        by degree in basis order.  A row's search key is a linear form in
        its exponents with odd coefficients modulo 2^64, redrawn until
        the keys of the basis are distinct, so x_i*m has the key of m
        plus the coefficient of x_i.  A monomial is looked up by one
        searchsorted among the sorted keys, and a candidate counts only
        if its exponent row equals the monomial: a wrapped or colliding
        key never makes a wrong entry.  A product x_i*m found is the
        standard monomial it equals, in degree deg(m) + w_i.  One not
        found lies past top_degree, hence in I, or on the border of the
        staircase, where _border_forms gives its normal form.  Entries
        are ordered by generator, then source monomial, rows increasing
        within one, so table[bounds[i][d]:bounds[i][d + 1]] is x_i on R_d.
        """
        exps = self._exps
        N, n = exps.shape
        starts = np.array(self._starts)
        degree = np.arange(len(self._dims)).repeat(self._dims)
        local = np.arange(N) - starts[degree]
        for seed in itertools.count():
            coeffs = np.array([_splitmix64(seed * n + t) | 1 for t in range(n)],
                              dtype=np.uint64)
            keys = exps.astype(np.uint64) @ coeffs
            order = keys.argsort()
            sorted_keys = keys[order]
            if (sorted_keys[1:] != sorted_keys[:-1]).all():
                break
        del keys

        def locate(rows):
            at = order.take(sorted_keys.searchsorted(rows.astype(np.uint64) @ coeffs),
                            mode="clip")
            return at, (exps[at] == rows).all(axis=1)

        # Flat product f = i*N + s is x_i times the s-th monomial.  Its key
        # is searched in key order, where x_i only shifts the keys (mod
        # 2^64), so the searches run nearly in order.
        cand = np.empty((n, N), dtype=np.int64)
        cand[:, order] = order.take(
            sorted_keys.searchsorted(sorted_keys + coeffs[:, None]), mode="clip")
        units = np.eye(n, dtype=np.int64)
        hit = np.empty((n, N), dtype=bool)
        for i in range(n):
            hit[i] = (exps[cand[i]] - exps == units[i]).all(axis=1)
        hit = hit.ravel()
        # a miss past top_degree lies in I, and so does every miss when I
        # is a monomial ideal
        miss = (~hit).nonzero()[0] if self._tail_len.any() else np.empty(0, np.int64)
        miss = miss[degree[miss % N] + np.array(self.weights)[miss // N]
                    <= self.top_degree]
        if miss.size:
            origin, rows, border = self._border_forms(
                miss, exps[miss % N] + units[miss // N], locate)
            rows = local[rows]
        del order, sorted_keys, degree
        cand = local[cand]

        # Product f holds entries start[f]..start[f+1]-1: one if it hit,
        # its border normal form if it is on the border.
        count = hit.astype(np.int64)
        if miss.size:
            np.add.at(count, origin, 1)
        start = np.concatenate(([0], count.cumsum()))
        del count
        out = np.empty((start[-1], 3), dtype=exactalg.triplet_dtype(self.field))
        src = hit.nonzero()[0]
        at = start[src]
        out[at, 0] = cand.ravel()[src]
        del cand
        out[at, 1] = local[src % N]
        out[at, 2] = self.field.one
        if miss.size:
            # origin is sorted: searchsorted finds the first entry of each
            at = start[origin] + np.arange(origin.size) - origin.searchsorted(origin)
            out[at, 0] = rows
            out[at, 1] = local[origin % N]
            out[at, 2] = border
        firsts = np.arange(0, n * N, N)[:, None] + starts
        return out, start[firsts].tolist()

    def _border_forms(self, origin, monos, locate):
        """Normal forms of non-standard monomials, in whole-array rounds.

        origin labels each of the monomial rows monos.  A round replaces
        every pending term c*u*lm, lm the first leading monomial dividing
        it, by c times u times the tail of its monic basis element: a
        multiple of a monomial of the basis drops out, and every new term
        is smaller in the term order and of the same degree.  Equal
        (origin, monomial) pairs are merged; a term that locate finds
        among the standard monomials is final.  Returns the final terms,
        merged, as (origin, standard monomial row, coeff) sorted by both.
        """
        F = self.field
        merge = (self._tail_len > 1).any()
        coef = np.full(len(origin), F.one, dtype=exactalg.triplet_dtype(F))
        done = []
        while origin.size:
            g = (monos[:, None, :] >= self._lms).all(axis=2).argmax(axis=1)
            size = self._tail_len[g]
            each = np.arange(g.size).repeat(size)
            term = (self._tail_start[g] - size.cumsum() + size)[each] + np.arange(each.size)
            origin = origin[each]
            monos = monos[each] - self._lms[g[each]] + self._tail_exps[term]
            coef = _reduce_mod(F, coef[each] * self._tail_coef[term])
            if merge:
                labels, coef = _merge_terms(F, np.column_stack((origin, monos)), coef)
                origin, monos = labels[:, 0], labels[:, 1:]
            at, found = locate(monos)
            done.append((origin[found], at[found], coef[found]))
            origin, monos, coef = origin[~found], monos[~found], coef[~found]
        origin, at, coef = (np.concatenate(part) for part in zip(*done))
        if merge:
            labels, coef = _merge_terms(F, np.column_stack((origin, at)), coef)
            return labels[:, 0], labels[:, 1], coef
        order = origin.argsort()
        return origin[order], at[order], coef[order]

    def _monomial_nf(self, mono):
        """Normal form of a monomial of k[x_1..x_n]: ((standard monomial, coeff), ...).

        The product table entry: nothing past top_degree, the monomial
        itself if standard, else x_i times the normal form of mono/x_i,
        one column of the multiplication table per term.  The chain of
        divisions stops at a standard monomial or at an entry of the
        table, and every monomial computed on it gets its entry.
        """
        products = self._products
        nf = products.get(mono)
        if nf is not None:
            return nf
        F, wdeg = self.field, self.ctx.wdeg
        if wdeg(mono) > self.top_degree:
            return products.put(mono, ())
        chain = []
        while nf is None:
            if mono in self._basis_index(wdeg(mono)):
                nf = products.put(mono, ((mono, F.one),))
            else:
                i = max(t for t, e in enumerate(mono) if e)
                chain.append((mono, i))
                mono = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                nf = products.get(mono)
        for mono, i in reversed(chain):
            d = wdeg(mono) - self.weights[i]
            index, block = self._basis_index(d), self.mult_triplets(i, d)
            bounds = block[:, 1].searchsorted([[index[m], index[m] + 1] for m, _ in nf])
            column = self._sum((r, F.mul(c, a))
                               for (lo, hi), (_, c) in zip(bounds.tolist(), nf)
                               for r, a in block[lo:hi, ::2].tolist())
            basis = self._monomial_basis(d + self.weights[i])
            nf = products.put(mono, tuple((basis[r], a) for r, a in sorted(column.items())))
        return nf

    def _reduce(self, terms):
        """Payload of sum(c * NF(m)) over (monomial m, scalar c) terms."""
        mul, known, nf = self.field.mul, self._products.data, self._monomial_nf
        return self._sum((m, mul(c, e)) for mono, c in terms
                         for m, e in (known[mono] if mono in known else nf(mono)))

    def from_polynomial(self, p):
        """The image in R of a polynomial over the ring's context."""
        if p.ctx != self.ctx:
            raise ValueError("polynomial context mismatch")
        return RingElement(self, self._reduce(p.terms))

    def generator(self, i):
        return self._generators[i]

    def one(self):
        return RingElement(self, {(0,) * self.ngens: self.field.one})

    def coords_by_degree(self, elem):
        out = {}
        wdeg = self.ctx.wdeg
        for mono, coeff in elem.data.items():
            d = wdeg(mono)
            out.setdefault(d, []).append((self._basis_index(d)[mono], coeff))
        return out

    def element_from_coords(self, d, coords):
        basis = self._monomial_basis(d)
        if len(coords) != len(basis):
            raise ValueError("coordinate length mismatch")
        zero = self.field.zero
        return RingElement(
            self, {m: c for m, c in zip(basis, coords) if c != zero})

    def max_ideal_power_vectors(self, a, d):
        if d < 0:
            return []
        if a <= 0:
            return [exactalg.unit_vector(self.field, self.dim(d), s)
                    for s in range(self.dim(d))]
        def compute():
            vectors = []
            for i in range(self.ngens):
                w = self.weights[i]
                lower = self.max_ideal_power_vectors(a - 1, d - w)
                if not lower:
                    continue
                trip = self.mult_triplets(i, d - w).tolist()
                for v in lower:
                    img = [self.field.zero] * self.dim(d)
                    for r, c, coeff in trip:
                        if v[c] != self.field.zero:
                            img[r] = self.field.add(img[r], self.field.mul(coeff, v[c]))
                    vectors.append(img)
            if not vectors:
                return []
            red, pivots = exactalg.rref(Matrix(self.field, vectors, self.dim(d)))
            return [red.rows[r] for r in range(len(pivots))]

        return self._mpower_cache.get_or_compute((a, d), compute)

    def minimal_generator_counts(self):
        """{d: mu_d(I)}, the number of minimal generators of I in degree d.

        Graded Nakayama: mu_d = dim (I/mI)_d, and (mI)_d is the degree-d
        part of the ideal J generated by the given generators of degree
        below d.  So mu_d is the rank of the degree-d generators modulo
        a Groebner basis of J, with no reduction where J is zero;
        redundant, dependent and zero generators count for nothing.
        """
        by_degree = {}
        for g in self.ideal_gens:
            if not g.is_zero():
                by_degree.setdefault(g.weighted_degree(), []).append(g)
        counts, lower = {}, []
        for d in sorted(by_degree):
            reduced = by_degree[d]
            if lower:
                gb = buchberger(lower)
                reduced = [normal_form(g, gb) for g in reduced]
            columns, rows = {}, []
            for g in reduced:
                row = {}
                for mono, c in g.terms:
                    row[columns.setdefault(mono, len(columns))] = c
                rows.append(row)
            if columns:
                zero = self.field.zero
                mu = exactalg.rank(Matrix(self.field, [
                    [row.get(t, zero) for t in range(len(columns))]
                    for row in rows]))
                if mu:
                    counts[d] = mu
            lower.extend(by_degree[d])
        return counts

    def parse_element(self, text):
        return self.from_polynomial(self.ctx.parse(text))

    def _mul(self, a, b):
        mul = self.field.mul
        return self._reduce(
            (tuple(map(operator.add, m1, m2)), mul(c1, c2))
            for m1, c1 in a.items() for m2, c2 in b.items())

    def _str_data(self, a):
        return str(Polynomial(self.ctx, a.items()))

    def __repr__(self):
        return "ArtinianQuotient(%s[%s]/(%s))" % (
            self.field, ",".join(self.gen_names),
            ", ".join(str(g) for g in self.ideal_gens))


class SemigroupRing(GradedRing):
    """k[t^{g_1},...,t^{g_n}] graded by t-degree."""

    def __init__(self, field, generators):
        generators = list(generators)
        if not generators or any(g < 1 for g in generators):
            raise RingConstructionError("semigroup generators must be positive")
        if len(set(generators)) != len(generators):
            raise RingConstructionError("duplicate semigroup generator")
        if math.gcd(*generators) != 1 if len(generators) > 1 else generators[0] != 1:
            raise RingConstructionError(
                "gcd of semigroup generators must be 1 (finite conductor)")
        self.field = field
        self.generators = generators
        self.ngens = len(generators)
        self.weights = list(generators)
        self.gen_names = ["t^%d" % g for g in generators]
        self.depth = 1
        self.top_degree = None

        bound = max(generators) * min(generators) + max(generators) + 2
        member = self._sieve(generators, bound)
        for idx, g in enumerate(generators):
            others = [h for h in generators if h != g]
            if others and self._sieve(others, g + 1)[g]:
                raise RingConstructionError(
                    "generator %d is redundant (representable by the others)" % g)
        frobenius = -1
        for d in range(bound - 1, -1, -1):
            if not member[d]:
                frobenius = d
                break
        self.frobenius = frobenius
        self.conductor = frobenius + 1
        self._member = member
        self._member_bound = bound
        self._tctx = PolyContext(field, ["t"], [1])
        self._gen_counts = [0]
        # t^a -> t^(a+g_i) is the 1 x 1 identity or, off the semigroup, nothing
        self._no_product = exactalg.as_triplets(field)
        self._unit_product = exactalg.as_triplets(field, [(0, 0, field.one)])

    @staticmethod
    def _sieve(gens, bound):
        member = [False] * (bound + 1)
        member[0] = True
        for d in range(1, bound + 1):
            for g in gens:
                if d >= g and member[d - g]:
                    member[d] = True
                    break
        return member

    def is_member(self, d):
        if d < 0:
            return False
        if d >= self.conductor:
            return True
        return self._member[d]

    def dim(self, d):
        return 1 if d >= 0 and self.is_member(d) else 0

    def basis_of_degree(self, d):
        if self.dim(d) == 0:
            return []
        return [RingElement(self, {d: self.field.one})]

    def mult_triplets(self, i, d):
        if self.dim(d) == 0 or self.dim(d + self.generators[i]) == 0:
            return self._no_product
        return self._unit_product

    def generator(self, i):
        return RingElement(self, {self.generators[i]: self.field.one})

    def one(self):
        return RingElement(self, {0: self.field.one})

    def coords_by_degree(self, elem):
        return {e: [(0, c)] for e, c in elem.data.items()}

    def element_from_coords(self, d, coords):
        if len(coords) != self.dim(d):
            raise ValueError("coordinate length mismatch")
        if not coords or coords[0] == self.field.zero:
            return self.zero()
        return RingElement(self, {d: coords[0]})

    def _max_generator_count(self, d):
        """L(d): the most generators, repeats allowed, summing to d; -1 if none.

        t^d lies in m^a iff d is a sum of a generators plus a member,
        i.e. iff L(d) >= a.  The table grows on demand by
        L(d) = 1 + max L(d - g).
        """
        table = self._gen_counts
        for e in range(len(table), d + 1):
            counts = [table[e - g] + 1 for g in self.generators
                      if g <= e and table[e - g] >= 0]
            table.append(max(counts, default=-1))
        return table[d]

    def max_ideal_power_vectors(self, a, d):
        if self.dim(d) == 0:
            return []
        if a <= 0 or self._max_generator_count(d) >= a:
            return [[self.field.one]]
        return []

    def parse_element(self, text):
        poly = self._tctx.parse(text)
        data = {}
        for (e,), coeff in poly.terms:
            if not self.is_member(e):
                raise RingConstructionError(
                    "t^%d is not in the semigroup generated by %s"
                    % (e, self.generators))
            data[e] = coeff
        return RingElement(self, data)

    def _mul(self, a, b):
        mul = self.field.mul
        return self._sum((e1 + e2, mul(c1, c2))
                         for e1, c1 in a.items() for e2, c2 in b.items())

    def _str_data(self, a):
        return str(Polynomial(self._tctx, [((e,), c) for e, c in a.items()]))

    def __repr__(self):
        return "SemigroupRing(%s[%s])" % (
            self.field, ",".join("t^%d" % g for g in self.generators))


def _reduce_mod(field, values):
    """values reduced into F_p, elementwise; over Q unchanged."""
    return values % field.p if isinstance(field, PrimeField) else values


def _merge_terms(field, labels, coef):
    """(rows, sums): coef summed over equal rows of labels, sorted, zeros dropped."""
    if not len(coef):
        return labels, coef
    order = np.lexsort(labels.T[::-1])
    labels, coef = labels[order], coef[order]
    first = np.ones(len(coef), dtype=bool)
    first[1:] = (labels[1:] != labels[:-1]).any(axis=1)
    first = first.nonzero()[0]
    sums = _reduce_mod(field, np.add.reduceat(coef, first))
    keep = sums != 0
    return labels[first[keep]], sums[keep]


def _splitmix64(x):
    """The splitmix64 mix of x: a well-spread 64-bit word for each integer."""
    x = (x + 0x9E3779B97F4A7C15) % 2 ** 64
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 % 2 ** 64
    x = (x ^ x >> 27) * 0x94D049BB133111EB % 2 ** 64
    return x ^ x >> 31


# ------------------------------------------------------------ contract names

def make_artinian_quotient(ctx, ideal_gens):
    gens = [parse_poly(g, ctx) if isinstance(g, str) else g for g in ideal_gens]
    return ArtinianQuotient(ctx, gens)


def make_semigroup_ring(field, generators):
    return SemigroupRing(field, generators)
