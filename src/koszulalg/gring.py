"""Graded rings behind one interface: Artinian quotients and semigroup rings.

An ArtinianQuotient is k[x_1..x_n]/I for a weighted-homogeneous ideal
I with Artinian quotient, presented by a reduced monic Groebner basis.
Its basis is the standard monomials (those outside LT(I)), kept as the
rows of one int64 exponent array, degree by degree in decreasing term
order, and as the leaves of a trie with one level per variable, built
in one whole-array round per level: a standard monomial on the
variables of the levels above extends by the powers of the next
variable below the least exponent of a leading monomial that blocks
it, its node's reach.  The trie is the ring's one exact index of the
standard monomials: a monomial is standard iff each exponent is below
its node's reach, and its row is found by descent.
Multiplication by x_i is built without general division (the
multiplication-matrix construction of FGLM: Faugere, Gianni, Lazard,
Mora, J. Symb. Comp. 1993; border bases: Kehrein, Kreuzer, Robbiano),
for every generator and degree at once: x_i*m is the next child of m's
node at the level of x_i, followed down the later levels with m's
exponents, every node of a level at once.  A product not found in
degree <= top_degree lies on the border of the staircase; the normal
forms of all of them come from whole-array rounds that
replace each pending term by the tail of its first dividing basis
element, merge equal terms and keep those found among the standard
monomials.
Products and parsed polynomials of elements use the same rounds, not
the table and not polyring.normal_form: a monomial's normal form is
nothing past top_degree, itself if standard, and otherwise one of the
border normal forms that each product or parse computes in one batch
for the monomials it is the first to meet.

A SemigroupRing is k[t^{g_1},...,t^{g_n}] inside k[t], graded by
t-degree, with dim R_d <= 1 decided by a coin-problem sieve.  Both
expose per-degree bases, multiplication-by-generator matrices as triplet
arrays (exactalg.as_triplets), one degree at a time (mult_triplets) or
for a range of degrees in one read with the entry count of each
(mult_range: one slice of a quotient's table, a semigroup ring's unit
entries counted from its sieve as one array), and degree slices of
powers of the maximal ideal.  A quotient also keeps the number of
minimal generators of its ideal in each degree, which the one
Buchberger run that gives its Groebner basis counts (graded Nakayama,
see polyring.buchberger); the rank-only Betti path and ord(R) read them
instead of Koszul homology in degree 1.

Construction validates minimality of the chosen generators of the
maximal ideal (ker f inside mF): for quotients every variable must
survive into R, for semigroups no generator may be representable by
the others.  A quotient computes its exponent array, trie, dimensions
and generators once, and its multiplication table on the first
request.  The basis tuples and basis indices of a degree, slices of
powers of m and the normal forms of monomials are made on first
request and kept; nothing is evicted.  The rank-only
paths never make a basis tuple.  A ring whose basis or degrees could pass
SIZE_LIMIT is refused with MemoryError before any array is made.
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
from koszulalg.exactalg import PrimeField
from koszulalg.polyring import (
    GroebnerBasis,
    PolyContext,
    Polynomial,
    buchberger,
    mono_divides,
    normal_form,  # noqa: F401 -- bench/tracing.py wraps this binding
    parse_poly,
)


# The most standard monomials or degrees a ring may have, and the most
# entries of a dense strand koszul's homology pass may eliminate
SIZE_LIMIT = 2 ** 24


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
        return not self.data

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring._add(self.data, other.data))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        neg = self.ring.field.neg
        return RingElement(self.ring, {k: neg(c) for k, c in self.data.items()})

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring._mul(self.data, other.data))

    def scale(self, c):
        F = self.ring.field
        if c == F.zero:
            return RingElement(self.ring, {})
        return RingElement(self.ring, {k: F.mul(c, v) for k, v in self.data.items()})

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring is other.ring
            and self.data == other.data
        )

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.data.items())))

    def __str__(self):
        return self.ring._str_data(self.data)

    def __repr__(self):
        return "RingElement(%s)" % self


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

    def mult_range(self, i, a, b):
        """Multiplication by generator i on R_a, ..., R_{b-1} in one read: (triplets, counts).

        triplets is mult_triplets(i, a), ..., mult_triplets(i, b - 1)
        concatenated in degree order, each table in its own rows and
        columns (local to R_d and R_{d+w_i}), so the entries of one
        degree are contiguous and ordered as mult_triplets orders them.
        counts is an int64 array of length b - a: counts[d - a] entries
        belong to degree d.  Any a <= b is allowed; a degree below 0 or
        with no product counts 0.  triplets may be shared with the
        ring's own table; callers must not write to it.
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
        """The element of R_d with coordinates {index in basis_of_degree(d): nonzero scalar}.

        A position outside R_d raises ValueError.
        """
        raise NotImplementedError

    def max_ideal_power_vectors(self, a, d):
        """A basis of the degree-d slice of m^a: {index in basis_of_degree(d): scalar} dicts.

        A quotient keeps the products x_i v, v in the slice of m^(a-1)
        in degree d - w_i, at the pivots of exactalg.eliminate.
        """
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
        self.gb = buchberger(nonzero) if nonzero else GroebnerBasis(ctx, [], {})
        self.ideal_gens = tuple(ideal_gens)

        # Artinian iff every variable has a pure-power leading monomial.
        lms = self.gb.leading_monomials()
        if (0,) * ctx.nvars in lms:
            raise RingConstructionError(
                "the ideal contains a unit: the quotient is the zero ring")
        powers = {i: e for lm in lms for i, e in enumerate(lm) if e == sum(lm) > 0}
        missing = [v for i, v in enumerate(self.gen_names) if i not in powers]
        if missing:
            raise RingConstructionError(
                "quotient is not Artinian: no pure power of %s in the initial ideal"
                % ", ".join(missing))

        # No exponent of x_i in the reduced basis passes that of its pure
        # power, so this sum bounds every degree, and every array fits int64.
        if sum(w * (powers[i] - 1) for i, w in enumerate(self.weights)) > SIZE_LIMIT:
            raise MemoryError("quotient has degrees past %d" % SIZE_LIMIT)

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
        self._indices = {}
        self._products = {}
        self._mpower_cache = {}
        self._mult_table = None

        self._exps, dims, self._trie, self._row = self._staircase()
        self._dims = tuple(dims)
        self._starts = (0,) + tuple(itertools.accumulate(dims))
        self.top_degree = len(dims) - 1

    # ------------------------------------------------------------- queries

    def dim(self, d):
        return self._dims[d] if 0 <= d <= self.top_degree else 0

    def _staircase(self):
        """(exponent rows, dims, trie, row): the standard monomials in basis order.

        The standard monomials are the leaves of a trie with one level per
        variable, walked x_n first for grevlex and x_1 first for lex.  A
        node at level L is a standard monomial m on the first L variables
        of the walk, with the children m*v^e, v the next variable, for
        e < E(m), the least v-exponent of the leading monomials whose
        last variable in the walk is v and whose other exponents divide
        m: the pure power of v is one of them, and one with an earlier
        last variable never divides m, since m is standard.  Each level
        is one whole-array round, kept in trie as (v, start, reach): the
        children of node p are start[p] ... start[p] + reach[p] - 1, and
        a last, dead node of reach 0 stands for every monomial off the
        staircase.  So a monomial is standard iff at each level its
        exponent is below its node's reach (_locate descends).

        Leaves come by increasing exponents read along the walk: that is
        decreasing grevlex order within a degree and total degree, and,
        reversed, decreasing lex order.  One stable sort by degree (then
        decreasing total degree, for weighted grevlex) gives the basis
        order: row[t] is the basis row of leaf t, and dims[d] counts the
        rows of degree d.  A round that would pass SIZE_LIMIT rows raises
        MemoryError before the array is made.
        """
        n = self.ngens
        grevlex = self.ctx.order == "grevlex"
        step = -1 if grevlex else 1
        walk = np.arange(n)[::step]
        lms = self._lms[:, ::step]
        stair = np.zeros((1, n), dtype=np.int64)
        last = n - 1 - (lms[:, ::-1] > 0).argmax(axis=1)
        unbounded = np.iinfo(np.int64).max
        trie = []
        for i in range(n):
            walls = lms[last == i]
            divides = (walls[:, :i] <= stair[:, None, :i]).all(axis=2)
            # reach is at most the pure power of the level's variable, so
            # the sum fits int64
            reach = np.where(divides, walls[:, i], unbounded).min(axis=1)
            if reach.sum() > SIZE_LIMIT:
                raise MemoryError("quotient has over %d standard monomials" % SIZE_LIMIT)
            start = reach.cumsum() - reach
            stair = stair.repeat(reach, axis=0)
            stair[:, i] = np.arange(len(stair)) - start.repeat(reach)
            trie.append((walk[i], np.append(start, 0), np.append(reach, 0)))
        weights = np.array(self.weights)[walk]
        degree = stair @ weights
        # lexsort of one key is a stable sort, so each degree keeps the
        # order of the walk
        if grevlex:
            # total degree <= degree, so the key is degree * (D + 1) minus
            # the total degree: by degree, then by decreasing total degree
            leaf = np.lexsort((stair @ (weights * (degree.max() + 1) - 1),))
        else:
            leaf = len(stair) - 1 - np.lexsort((degree[::-1],))
        dims = np.bincount(degree).tolist()
        exps = stair.take(leaf, axis=0)[:, ::step]
        del stair, degree
        row = np.empty_like(leaf)
        row[leaf] = np.arange(len(leaf))
        return exps, dims, trie, row

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
        """{standard monomial of degree d: its position in the basis}."""
        index = self._indices.get(d)
        if index is None:
            index = self._indices[d] = {
                m: t for t, m in enumerate(self._monomial_basis(d))}
        return index

    def mult_triplets(self, i, d):
        if d < 0 or d + self.weights[i] > self.top_degree:
            return self._no_product
        if self._mult_table is None:
            self._build_table()
        table, bounds, _ = self._mult_table
        return table[bounds[i][d]:bounds[i][d + 1]]

    def mult_range(self, i, a, b):
        # past top_degree - w_i the table holds no entries: every product
        # lands past top_degree, in I
        counts = np.zeros(b - a, dtype=np.int64)
        lo, hi = max(a, 0), min(b, self.top_degree + 1)
        if lo >= hi:
            return self._no_product, counts
        if self._mult_table is None:
            self._build_table()
        table, _, bounds = self._mult_table
        counts[lo - a:hi - a] = np.diff(bounds[i, lo:hi + 1])
        return table[bounds[i, lo]:bounds[i, hi]], counts

    def _build_table(self):
        """Keep every x_i on every R_d: (triplet array, bounds as lists, bounds as an array)."""
        table, bounds = self._multiplication_table()
        self._mult_table = table, bounds.tolist(), bounds

    def _locate(self, monos):
        """(at, found): the basis row of each monomial row, and whether it is standard.

        One descent of the trie (_staircase) per level: a monomial leaves
        the staircase for the dead node at the first level where its
        exponent reaches its node's reach, and found is exact.  at is
        meaningless where found is False.
        """
        node = np.zeros(len(monos), dtype=np.int64)
        for v, start, reach in self._trie:
            e = monos[:, v]
            node = np.where(e < reach[node], start[node] + e, -1)
        return self._row[node], node >= 0

    def _multiplication_table(self):
        """(triplet array, bounds): every x_i on every R_d, built at once.

        The rows of the exponent array are the standard monomials, degree
        by degree in basis order.  x_i*m is found from the trie nodes of
        m (_staircase): at the level of x_i, the next child of the same
        parent, if the reach allows it; at each later level, the child of
        the image with m's exponent there.  Every node of a level moves
        at once.  A product x_i*m found is the standard monomial it
        equals, in degree deg(m) + w_i.  One not found lies past
        top_degree, hence in I, or on the border of the staircase, where
        _border_forms gives its normal form.  Entries are ordered by
        generator, then source monomial, rows increasing within one, and
        bounds is an (n, top_degree + 2) int64 array: the slice
        table[bounds[i, a]:bounds[i, b]] is x_i on R_a, ..., R_{b-1}.
        """
        exps = self._exps
        N, n = exps.shape
        starts = np.array(self._starts)
        degree = np.arange(len(self._dims)).repeat(self._dims)
        local = np.arange(N) - starts[degree]

        # parent and exponent of every node of every level
        parent = [np.arange(len(reach) - 1).repeat(reach[:-1])
                  for _, _, reach in self._trie]
        expo = [np.arange(len(up)) - start[up]
                for up, (_, start, _) in zip(parent, self._trie)]
        # prod[i, s]: the row of x_i times basis monomial s, within its
        # degree; the dead leaf -1 reads the -1 appended to leaf_row
        leaf_row = np.append(local[self._row], -1)
        prod = np.empty((n, N), dtype=np.int64)
        for level, (v, _, reach) in enumerate(self._trie):
            image = np.where(expo[level] + 1 < reach[parent[level]],
                             np.arange(1, len(parent[level]) + 1), -1)
            for (_, start, reach), up, e in zip(
                    self._trie[level + 1:], parent[level + 1:], expo[level + 1:]):
                image = image[up]
                image = np.where(e < reach[image], start[image] + e, -1)
            prod[v, self._row] = leaf_row[image]
        del parent, expo, image, leaf_row
        hit = prod >= 0
        # a miss past top_degree lies in I, and so does every miss when I
        # is a monomial ideal
        gen, src = (~hit & self._tail_len.any()).nonzero()
        keep = degree[src] + np.array(self.weights)[gen] <= self.top_degree
        gen, src = gen[keep], src[keep]
        if src.size:
            origin, rows, border = self._border_forms(
                np.arange(src.size), exps[src] + np.eye(n, dtype=np.int64)[gen])
        del degree

        # Product i*N + s holds entries start[i*N + s] ... start[i*N + s +
        # 1] - 1: one if it hit, its border normal form if on the border.
        start = np.zeros(n * N + 1, dtype=np.int64)
        start[1:] = hit.ravel()
        flat = gen * N + src
        if src.size:
            # a miss counts no hit, so its count is set, not added
            start[1 + flat] = np.bincount(origin, minlength=src.size)
        start.cumsum(out=start)
        out = np.empty((start[-1], 3), dtype=exactalg.triplet_dtype(self.field))
        # one generator at a time, so no temporary holds n*N entries
        for i in range(n):
            col = hit[i].nonzero()[0]
            at = start[i * N + col]
            out[at, 0] = prod[i, col]
            out[at, 1] = local[col]
            out[at, 2] = self.field.one
        del prod, hit
        if src.size:
            # origin is sorted: searchsorted finds the first entry of each
            at = start[flat[origin]] + np.arange(origin.size) - origin.searchsorted(origin)
            out[at, 0] = local[rows]
            out[at, 1] = local[src[origin]]
            out[at, 2] = border
        firsts = np.arange(0, n * N, N)[:, None] + starts
        return out, start[firsts]

    def _border_forms(self, origin, monos):
        """Normal forms of non-standard monomials, in whole-array rounds.

        origin labels each of the monomial rows monos.  A round replaces
        every pending term c*u*lm, lm the first leading monomial dividing
        it (tested one variable at a time, for all terms and leading
        monomials at once), by c times u times the tail of its monic
        basis element: a multiple of a monomial of the basis drops out,
        and every new term is smaller in the term order and of the same
        degree.  Equal (origin, monomial) pairs are merged; a term that
        the trie descent of _locate finds among the standard monomials is
        final, and one it does not find is not standard.  Returns the
        final terms, merged, as (origin, standard monomial row, coeff)
        sorted by both.
        """
        F = self.field
        merge = (self._tail_len > 1).any()
        coef = np.full(len(origin), F.one, dtype=exactalg.triplet_dtype(F))
        done = []
        while origin.size:
            divides = monos[:, :1] >= self._lms[:, 0]
            for j in range(1, self.ngens):
                divides &= monos[:, j:j + 1] >= self._lms[:, j]
            g = divides.argmax(axis=1)
            size = self._tail_len[g]
            each = np.arange(g.size).repeat(size)
            term = (self._tail_start[g] - size.cumsum() + size)[each] + np.arange(each.size)
            origin = origin[each]
            monos = monos[each] - self._lms[g[each]] + self._tail_exps[term]
            coef = _reduce_mod(F, coef[each] * self._tail_coef[term])
            if merge:
                labels, coef = _merge_terms(F, np.column_stack((origin, monos)), coef)
                origin, monos = labels[:, 0], labels[:, 1:]
            at, found = self._locate(monos)
            done.append((origin[found], at[found], coef[found]))
            origin, monos, coef = origin[~found], monos[~found], coef[~found]
        origin, at, coef = (np.concatenate(part) for part in zip(*done))
        if merge:
            labels, coef = _merge_terms(F, np.column_stack((origin, at)), coef)
            return labels[:, 0], labels[:, 1], coef
        order = origin.argsort()
        return origin[order], at[order], coef[order]

    def _reduce(self, terms):
        """Payload of sum(c * NF(m)) over (monomial m, scalar c) terms.

        NF(m) is kept in _products: nothing past top_degree or, for a
        monomial ideal, off the staircase; m itself if standard; else
        its border normal form.  One pass over the terms reads the kept
        ones; the monomials not met before wait in new, and after the
        pass the non-standard ones among them go through one
        _border_forms batch.
        """
        mul, known, new = self.field.mul, self._products, []
        out = self._sum((m, mul(c, e)) for mono, c in terms for m, e in (
            known[mono] if mono in known else new.append((mono, c)) or ()))
        if not new:
            return out
        wdeg, one, rest = self.ctx.wdeg, self.field.one, []
        for mono in {mono for mono, _ in new}:
            d = wdeg(mono)
            if d <= self.top_degree and mono in self._basis_index(d):
                known[mono] = ((mono, one),)
            elif d <= self.top_degree and self._tail_len.any():
                rest.append(mono)
            else:
                known[mono] = ()
        if rest:
            origin, at, coef = self._border_forms(
                np.arange(len(rest)), np.array(rest, dtype=np.int64))
            forms = [[] for _ in rest]
            for o, m, c in zip(origin.tolist(), self._exps[at].tolist(), coef.tolist()):
                forms[o].append((tuple(m), c))
            known.update(zip(rest, map(tuple, forms)))
        return self._add(out, self._sum(
            (m, mul(c, e)) for mono, c in new for m, e in known[mono]))

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
        if not all(0 <= t < len(basis) for t in coords):
            raise ValueError("coordinate position outside R_%d" % d)
        return RingElement(self, {basis[t]: c for t, c in coords.items()})

    def max_ideal_power_vectors(self, a, d):
        if d < 0:
            return []
        if a <= 0:
            return [{s: self.field.one} for s in range(self.dim(d))]
        if (a, d) in self._mpower_cache:
            return self._mpower_cache[a, d]
        p = self.field.characteristic
        products = []
        for i, w in enumerate(self.weights):
            lower = self.max_ideal_power_vectors(a - 1, d - w)
            if not lower:
                continue
            by_column = {}
            for r, c, coeff in self.mult_triplets(i, d - w).tolist():
                by_column.setdefault(c, []).append((r, coeff))
            for v in lower:
                img = {}
                for c, x in v.items():
                    for r, coeff in by_column.get(c, ()):
                        img[r] = img.get(r, 0) + coeff * x
                img = {r: x % p if p else x for r, x in img.items()}
                products.append({r: x for r, x in img.items() if x})
        pivots, _ = exactalg.eliminate(self.field, products)
        vectors = self._mpower_cache[a, d] = [products[j] for j in pivots]
        return vectors

    def minimal_generator_counts(self):
        """{d: mu_d(I)}, the number of minimal generators of I in degree d.

        Counted by the ring's one Buchberger run (polyring.buchberger):
        redundant, dependent and zero generators count for nothing.
        """
        return dict(self.gb.generator_counts)

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
        if bound > SIZE_LIMIT:
            raise MemoryError("semigroup sieve needs degrees past %d" % SIZE_LIMIT)
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
        # membership of 0..conductor as one array; every degree past it is a member
        self._members = np.array(member[:frobenius + 2])
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

    def mult_range(self, i, a, b):
        # one unit entry in each degree d with t^d and t^(d + g_i) in R
        d = np.arange(a, b + self.generators[i])
        member = (d >= 0) & self._members[np.clip(d, 0, self.conductor)]
        counts = (member[:b - a] & member[self.generators[i]:]).astype(np.int64)
        return np.repeat(self._unit_product, counts.sum(), axis=0), counts

    def generator(self, i):
        return RingElement(self, {self.generators[i]: self.field.one})

    def one(self):
        return RingElement(self, {0: self.field.one})

    def coords_by_degree(self, elem):
        return {e: [(0, c)] for e, c in elem.data.items()}

    def element_from_coords(self, d, coords):
        if not all(0 <= t < self.dim(d) for t in coords):
            raise ValueError("coordinate position outside R_%d" % d)
        return RingElement(self, {d: coords[0]} if coords else {})

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
            return [{0: self.field.one}]
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


# ------------------------------------------------------------ contract names

def make_artinian_quotient(ctx, ideal_gens):
    gens = [parse_poly(g, ctx) if isinstance(g, str) else g for g in ideal_gens]
    return ArtinianQuotient(ctx, gens)


def make_semigroup_ring(field, generators):
    return SemigroupRing(field, generators)
