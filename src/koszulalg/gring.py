"""Graded rings behind one interface: Artinian quotients and semigroup rings.

An ArtinianQuotient is k[x_1..x_n]/I for a weighted-homogeneous ideal
I with Artinian quotient, presented by a reduced monic Groebner basis.
Its degree-d basis is the standard monomials (those outside LT(I)),
found by walking the staircase: every standard monomial of degree d > 0
is x_i*m for a standard m of degree d - w_i, so the candidates come from
the lower bases and each needs only a leading-monomial test.
Multiplication by x_i on R_d is built column by column without general
division: x_i*m is standard, or it lies on the border of the staircase,
and then its normal form is a combination of normal forms of smaller
monomials of the same degree, memoized for that one target degree (the
multiplication-matrix construction of FGLM: Faugere, Gianni, Lazard,
Mora, J. Symb. Comp. 1993; border bases: Kehrein, Kreuzer, Robbiano).
The same border normal forms answer every product of elements: a
product table maps each monomial of the polynomial ring to its normal
form (itself if standard, nothing past top_degree, else its border
normal form in its own degree), so neither products nor parsed
polynomials go through polyring.normal_form.

A SemigroupRing is k[t^{g_1},...,t^{g_n}] inside k[t], graded by
t-degree, with dim R_d <= 1 decided by a coin-problem sieve.  Both
expose per-degree bases, multiplication-by-generator matrices in sparse
triplet form, and degree slices of powers of the maximal ideal.  A
quotient also counts the minimal generators of its ideal per degree
(graded Nakayama); the rank-only Betti path and ord(R) read them
instead of Koszul homology in degree 1.

Construction validates minimality of the chosen generators of the
maximal ideal (ker f inside mF): for quotients every variable must
survive into R, for semigroups no generator may be representable by
the others.  A quotient keeps the degree bases its construction walks,
one tuple per degree, so a basis is an index lookup; its dimensions and
generators are computed once.  The remaining caches of a quotient (basis
indices, multiplication triplets, slices of powers of m, the per-degree
border normal forms and the product table) are size-capped Memo dicts
that evict the oldest entry first.  A semigroup ring decides
membership in m^a from one table, grown in place on demand, of the
largest number of generators summing to each degree.  The mathematical
value of a ring never changes, but its caches fill in place without
locks, so a ring belongs to one thread.
"""

from __future__ import annotations

import itertools
import math
import operator

from koszulalg import exactalg
from koszulalg.exactalg import Matrix
from koszulalg.polyring import (
    GroebnerBasis,
    PolyContext,
    Polynomial,
    buchberger,
    mono_div,
    mono_divides,
    mono_mul,
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

    def get_or_compute(self, key, fn):
        if key in self.data:
            return self.data[key]
        value = fn()
        while len(self.data) >= self.maxsize:
            self.data.pop(next(iter(self.data)))
        self.data[key] = value
        return value


class GradedRing:
    """Common interface; see ArtinianQuotient and SemigroupRing."""

    # subclasses set: field, ngens, weights, gen_names, depth,
    # top_degree (int, or None meaning infinite)

    def dim(self, d):
        raise NotImplementedError

    def basis_of_degree(self, d):
        raise NotImplementedError

    def mult_triplets(self, i, d):
        """Multiplication by generator i as (row, col, coeff) triplets R_d -> R_{d+w_i}."""
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
        bounds = [None] * self.ngens
        for lm in self.gb.leading_monomials():
            support = [i for i, e in enumerate(lm) if e > 0]
            if len(support) == 1:
                i = support[0]
                if bounds[i] is None or lm[i] < bounds[i]:
                    bounds[i] = lm[i]
        missing = [self.gen_names[i] for i in range(self.ngens) if bounds[i] is None]
        if missing:
            raise RingConstructionError(
                "quotient is not Artinian: no pure power of %s in the initial ideal"
                % ", ".join(missing))

        # Each reducer is (leading monomial, tail with negated coefficients)
        # of a monic basis element: a monomial u*lm reduces to
        # sum(c * u*t for t, c in tail).
        F = self.field
        self._reducers = [
            (g.leading_monomial(), [(t, F.neg(c)) for t, c in g.terms[1:]])
            for g in self.gb.gens]
        # _walls[i][e]: leading monomials whose x_i-exponent is e.
        self._walls = [{} for _ in range(self.ngens)]
        for lm, _ in self._reducers:
            for i, e in enumerate(lm):
                if e:
                    self._walls[i].setdefault(e, []).append(lm)

        # Minimality of x_1..x_n as generators of m: each x_i survives in
        # R_{w_i}, so it is standard, hence its own normal form.
        self._generators = []
        for i in range(self.ngens):
            mono = tuple(1 if j == i else 0 for j in range(self.ngens))
            if self._reducer(mono) is not None:
                raise RingConstructionError(
                    "generator %s is not minimal (reducible modulo the ideal)"
                    % self.gen_names[i])
            self._generators.append(RingElement(self, {mono: self.field.one}))

        self._index_cache = Memo(64)
        self._mult_cache = Memo(48)
        self._mpower_cache = Memo(4096)
        self._border_cache = Memo(16)
        self._products = Memo(4096)

        # Walk the staircase degree by degree.  Once max(weights)
        # consecutive degrees are empty, every higher degree is empty too.
        bases, empty = [], 0
        while empty < max(self.weights):
            bases.append(self._walk_staircase(len(bases), bases))
            empty = empty + 1 if not bases[-1] else 0
        self._bases = tuple(bases[:len(bases) - empty])
        self._dims = tuple(map(len, self._bases))
        self.top_degree = len(self._bases) - 1

    def _reducer(self, mono):
        """First (lm, tail) of the basis with lm dividing mono, or None."""
        for reducer in self._reducers:
            if mono_divides(reducer[0], mono):
                return reducer
        return None

    # ------------------------------------------------------------- queries

    def dim(self, d):
        return self._dims[d] if 0 <= d <= self.top_degree else 0

    def _monomial_basis(self, d):
        """Standard monomials of degree d in decreasing term order."""
        return self._bases[d] if 0 <= d <= self.top_degree else ()

    def _walk_staircase(self, d, known):
        """Degree-d standard monomials from the lower bases known[d - w_i].

        A standard monomial of degree d > 0 is x_i*m with m standard,
        for i its last variable; generating x_i*m only from m supported
        on x_1..x_i makes each candidate once.  Since m is standard,
        x_i*m is not only if a leading monomial with x_i-exponent
        m_i + 1 divides it.
        """
        if d == 0:
            return ((0,) * self.ngens,)
        out = []
        for i, w in enumerate(self.weights):
            if d < w:
                continue
            walls = self._walls[i]
            for m in known[d - w]:
                if any(m[i + 1:]):
                    continue
                e = m[i] + 1
                cand = m[:i] + (e,) + m[i + 1:]
                hits = walls.get(e)
                if hits is None or not any(mono_divides(lm, cand) for lm in hits):
                    out.append(cand)
        self.ctx.sort_decreasing(out)
        return tuple(out)

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
            return []
        return self._mult_cache.get_or_compute(
            (i, d), lambda: self._mult_columns(i, d))

    def _mult_columns(self, i, d):
        """Column c holds the coordinates of x_i * (c-th basis monomial)."""
        one = self.field.one
        dst_index = self._basis_index(d + self.weights[i])
        memo = self._border_cache.get_or_compute(d + self.weights[i], dict)
        out = []
        for col, m in enumerate(self._monomial_basis(d)):
            prod = m[:i] + (m[i] + 1,) + m[i + 1:]
            row = dst_index.get(prod)
            if row is not None:
                out.append((row, col, one))
            else:
                out.extend((r, col, c)
                           for r, c in self._border_nf(prod, dst_index, memo))
        return out

    def _border_nf(self, mono, dst_index, memo):
        """Normal form of a non-standard monomial as [(row, coeff)], rows increasing.

        mono = u*lm for the first leading monomial lm dividing it, so
        NF(mono) = -sum c_t NF(u*t) over the tail of that monic basis
        element.  Every u*t is smaller in the term order and of the same
        degree, indexed by dst_index when standard; memo holds the normal
        forms of the others, for this one target degree only.
        """
        F = self.field
        stack = [mono]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            lm, tail = self._reducer(top)
            u = mono_div(top, lm)
            terms = [(mono_mul(u, t), c) for t, c in tail]
            pending = [p for p, _ in terms if p not in dst_index and p not in memo]
            if pending:
                stack.extend(pending)
                continue
            acc = {}
            for p, c in terms:
                row = dst_index.get(p)
                for r, a in ((row, F.one),) if row is not None else memo[p]:
                    acc[r] = F.add(acc.get(r, F.zero), F.mul(c, a))
            memo[top] = sorted((r, a) for r, a in acc.items() if a != F.zero)
            stack.pop()
        return memo[mono]

    def _monomial_nf(self, mono):
        """Normal form of a monomial of k[x_1..x_n]: ((standard monomial, coeff), ...).

        The product table entry: a standard monomial is its own normal
        form, one past top_degree lies in I, and any other has a border
        normal form in its own degree.
        """
        d = self.ctx.wdeg(mono)
        if d > self.top_degree:
            return ()
        index = self._basis_index(d)
        if mono in index:
            return ((mono, self.field.one),)
        basis = self._monomial_basis(d)
        memo = self._border_cache.get_or_compute(d, dict)
        return tuple((basis[r], c) for r, c in self._border_nf(mono, index, memo))

    def _reduce(self, terms):
        """Payload of sum(c * NF(m)) over (monomial m, scalar c) terms."""
        mul, table = self.field.mul, self._products
        return self._sum(
            (m, mul(c, e)) for mono, c in terms for m, e in table.get_or_compute(
                mono, lambda mono=mono: self._monomial_nf(mono)))

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
                trip = self.mult_triplets(i, d - w)
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
            return []
        return [(0, 0, self.field.one)]

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


# ------------------------------------------------------------ contract names

def make_artinian_quotient(ctx, ideal_gens):
    gens = [parse_poly(g, ctx) if isinstance(g, str) else g for g in ideal_gens]
    return ArtinianQuotient(ctx, gens)


def make_semigroup_ring(field, generators):
    return SemigroupRing(field, generators)
