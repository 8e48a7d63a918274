"""Multivariate polynomials over an exact field with positive weights.

Monomials are plain exponent tuples.  The term order compares weighted
degree first and breaks ties by graded reverse lexicographic order on
the raw exponents (a "lex" tie-break variant exists so that order
independence of dimension counts can be tested).  Includes a parser
for the text grammar used everywhere (ring spec files, lift files,
printed cycles), normal forms, and Buchberger's algorithm on
{monomial: coefficient} dicts, with the Gebauer-Moeller pair criteria
and one reducer shared with normal_form, run degree by degree so that
the one run that gives the reduced Groebner basis also counts the
minimal generators of the ideal in each degree.

Only weighted-homogeneous ideals are supported; buchberger rejects
anything else, because homology is computed strand by strand and
non-homogeneous ideals would break the grading.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from fractions import Fraction

from koszulalg.exactalg import Field


class PolyParseError(ValueError):
    """Parse failure with the 0-based offset of the offending character."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _is_word(text):
    """True iff the grammar reads text as one word (see parse_poly)."""
    return ((text[:1].isalpha() or text[:1] == "_")
            and all(ch.isalnum() or ch == "_" for ch in text))


class PolyContext:
    """Variable names, weights, coefficient field and term order."""

    def __init__(self, field, variables, weights=None, order="grevlex"):
        if not isinstance(field, Field):
            raise TypeError("field must be a Field descriptor")
        variables = list(variables)
        if not variables:
            raise ValueError("need at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        for v in variables:
            if not _is_word(v):
                raise ValueError(
                    "variable name %r is not a word of letters, digits and "
                    "'_' that starts with a letter or '_'" % (v,))
        if weights is None:
            weights = [1] * len(variables)
        weights = list(weights)
        if len(weights) != len(variables):
            raise ValueError("one weight per variable")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        if order not in ("grevlex", "lex"):
            raise ValueError("order must be 'grevlex' or 'lex'")
        self.field = field
        self.variables = variables
        self.weights = weights
        self.order = order
        self.nvars = len(variables)
        self.var_index = {v: i for i, v in enumerate(variables)}

    def wdeg(self, mono):
        return sum(map(operator.mul, self.weights, mono))

    def key(self, mono):
        """Sort key: bigger key = bigger monomial in the term order."""
        if self.order == "grevlex":
            return (self.wdeg(mono), sum(mono), tuple(-e for e in reversed(mono)))
        return tuple(mono)

    def rank(self, mono):
        """Heap key: smaller rank = bigger monomial in the term order."""
        if self.order == "grevlex":
            return (-self.wdeg(mono), -sum(mono), mono[::-1])
        return tuple(-e for e in mono)

    def monomial(self, mono, coeff=None):
        if coeff is None:
            coeff = self.field.one
        return Polynomial(self, [(tuple(mono), coeff)])

    def zero(self):
        return Polynomial(self, [])

    def parse(self, text):
        return parse_poly(text, self)

    def __eq__(self, other):
        return (
            isinstance(other, PolyContext)
            and self.field == other.field
            and self.variables == other.variables
            and self.weights == other.weights
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, tuple(self.variables), tuple(self.weights), self.order))

    def __repr__(self):
        return "PolyContext(%s, vars=%s, weights=%s, %s)" % (
            self.field, self.variables, self.weights, self.order)


def mono_mul(a, b):
    return tuple(map(operator.add, a, b))

def mono_divides(a, b):
    """True iff monomial a divides b."""
    return all(map(operator.le, a, b))

def mono_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(map(operator.sub, a, b))

def mono_lcm(a, b):
    return tuple(map(max, a, b))

def mono_coprime(a, b):
    return not any(map(min, a, b))


class Polynomial:
    """Canonical polynomial: nonzero terms, strictly decreasing in the order."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        combined = {}
        zero = ctx.field.zero
        for mono, coeff in terms:
            if coeff == zero:
                continue
            mono = tuple(mono)
            if mono in combined:
                c = ctx.field.add(combined[mono], coeff)
                if c == zero:
                    del combined[mono]
                else:
                    combined[mono] = c
            else:
                combined[mono] = coeff
        self.ctx = ctx
        self.terms = tuple(
            sorted(combined.items(), key=lambda t: ctx.key(t[0]), reverse=True))

    def is_zero(self):
        return not self.terms

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def leading_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def monic(self):
        if not self.terms:
            return self
        inv = self.ctx.field.inv(self.terms[0][1])
        if inv == self.ctx.field.one:
            return self
        return self.scale(inv)

    def scale(self, c):
        F = self.ctx.field
        return Polynomial(self.ctx, [(m, F.mul(c, a)) for m, a in self.terms])

    def weighted_degree(self):
        """Common weighted degree if homogeneous (0 for the zero poly), else None."""
        if not self.terms:
            return 0
        degs = {self.ctx.wdeg(m) for m, _ in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self):
        return self.weighted_degree() is not None

    def __add__(self, other):
        self._check(other)
        return Polynomial(self.ctx, self.terms + other.terms)

    def __sub__(self, other):
        self._check(other)
        F = self.ctx.field
        return Polynomial(
            self.ctx, self.terms + tuple((m, F.neg(a)) for m, a in other.terms))

    def __mul__(self, other):
        self._check(other)
        F = self.ctx.field
        out = []
        for m1, a1 in self.terms:
            for m2, a2 in other.terms:
                out.append((mono_mul(m1, m2), F.mul(a1, a2)))
        return Polynomial(self.ctx, out)

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ValueError("polynomial context mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        F = self.ctx.field
        pieces = []
        for t, (mono, coeff) in enumerate(self.terms):
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(self.ctx.variables[i])
                elif e > 1:
                    factors.append("%s^%d" % (self.ctx.variables[i], e))
            neg = False
            c = coeff
            if isinstance(c, Fraction) and c < 0:
                neg, c = True, -c
            body = _coeff_str(c)
            if factors and body == "1":
                body = "*".join(factors)
            elif factors:
                body = body + "*" + "*".join(factors)
            if t == 0:
                pieces.append("-" + body if neg else body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return "Poly(%s)" % self


def _coeff_str(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return "%d/%d" % (c.numerator, c.denominator)
    return str(c)


# --------------------------------------------------------------------- parse

def _split_word(word, ctx, pos):
    """Split a juxtaposed identifier chunk like "yz" into known variables.

    Depth-first, longest name first, so names of different lengths
    coexist; returns the list of variable indices of the first split
    found.  Offsets from which the rest of the word has no split are
    remembered, so each offset is tried at most once.
    """
    names = sorted(ctx.var_index, key=len, reverse=True)
    failed = set()
    path = []  # (offset, index into names) of each name taken so far
    off, k = 0, 0
    while off < len(word):
        while k < len(names) and not (
                word.startswith(names[k], off)
                and off + len(names[k]) not in failed):
            k += 1
        if k < len(names):
            path.append((off, k))
            off, k = off + len(names[k]), 0
        else:
            failed.add(off)
            if not path:
                raise PolyParseError("unknown variable in %r" % word, pos)
            off, k = path.pop()
            k += 1
    return [ctx.var_index[names[k]] for _, k in path]


def parse_poly(text, ctx):
    """Parse the polynomial grammar: signed sums of terms.

    term = coefficient? ('*'? var ('^' nat)?)*, integer or a/b
    coefficients in ASCII digits (a denominator must be nonzero in the
    field), whitespace ignored.  Juxtaposed variables ("yz")
    split by longest match.  Errors carry the character position.
    """
    F = ctx.field
    n = len(text)
    i = 0

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def digit(i):
        return i < n and "0" <= text[i] <= "9"

    def read_nat(i):
        start = i
        while digit(i):
            i += 1
        if i == start:
            raise PolyParseError("expected a number", start)
        try:
            return int(text[start:i]), i
        except ValueError:  # more digits than int() converts
            raise PolyParseError("number too long", start) from None

    def read_word(i):
        start = i
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        return text[start:i], i

    terms = []
    i = skip_ws(i)
    if i == n:
        raise PolyParseError("empty polynomial", 0)
    first = True
    while i < n:
        sign = 1
        i = skip_ws(i)
        if i < n and text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            raise PolyParseError("expected '+' or '-'", i)
        if i >= n:
            raise PolyParseError("dangling sign", i)
        first = False

        coeff = None
        if digit(i):
            num, i = read_nat(i)
            i2 = skip_ws(i)
            if i2 < n and text[i2] == "/":
                j = skip_ws(i2 + 1)
                if not digit(j):
                    raise PolyParseError("expected denominator", j)
                den, i = read_nat(j)
                if F.from_int(den) == F.zero:
                    raise PolyParseError(
                        "denominator %d is zero in %s" % (den, F.name), j)
                coeff = F.from_fraction(num, den)
            else:
                coeff = F.from_int(num)
        exponents = [0] * ctx.nvars
        saw_var = False
        while True:
            j = skip_ws(i)
            if j < n and text[j] == "*":
                j = skip_ws(j + 1)
                if j >= n:
                    raise PolyParseError("dangling '*'", j)
            elif j >= n or text[j] in "+-":
                i = j
                break
            if not (j < n and (text[j].isalpha() or text[j] == "_")):
                raise PolyParseError("expected a variable", j)
            word, j = read_word(j)
            indices = _split_word(word, ctx, j - len(word))
            k = skip_ws(j)
            if k < n and text[k] == "^":
                k = skip_ws(k + 1)
                if not digit(k):
                    raise PolyParseError("malformed exponent", k)
                e, k = read_nat(k)
                exponents[indices[-1]] += e - 1
                for idx in indices:
                    exponents[idx] += 1
                i = k
            else:
                for idx in indices:
                    exponents[idx] += 1
                i = j
            saw_var = True
        if coeff is None:
            if not saw_var:
                raise PolyParseError("empty term", i)
            coeff = F.one
        if sign < 0:
            coeff = F.neg(coeff)
        terms.append((tuple(exponents), coeff))
    return Polynomial(ctx, terms)


# ----------------------------------------------------------------- division

def _reduce(terms, basis, ctx):
    """Remainder of terms ({monomial: coefficient}, consumed) by basis:
    (lm, rest) pairs for monic lm - sum(b * m for m, b in rest), the first
    lm that divides a term reducing it.  Returns the nonzero terms in
    decreasing order.  A heap visits each monomial once, largest first;
    coefficients add up with Python's exact + and * and enter the field
    (F.add(c, zero)) when their monomial is reached.
    """
    rank, zero, canon = ctx.rank, ctx.field.zero, ctx.field.add
    heap = [(rank(m), m) for m in terms]
    heapq.heapify(heap)
    out = []
    while heap:
        m = heapq.heappop(heap)[1]
        c = canon(terms.pop(m), zero)
        if c == zero:
            continue
        for lm, rest in basis:
            if all(map(operator.le, lm, m)):
                u = mono_div(m, lm)
                for mt, b in rest:
                    mt = tuple(map(operator.add, mt, u))
                    if mt in terms:
                        terms[mt] += c * b
                    else:
                        terms[mt] = c * b
                        heapq.heappush(heap, (rank(mt), mt))
                break
        else:
            out.append((m, c))
    return out


def _element(terms, F):
    """(lm, rest) of the monic multiple of terms, given in decreasing order."""
    lm, scale = terms[0][0], F.neg(F.inv(terms[0][1]))
    return lm, [(m, F.mul(c, scale)) for m, c in terms[1:]]


def normal_form(p, gb):
    """Complete multivariate division remainder of p modulo gb.

    No term of the result is divisible by any leading monomial of the
    basis; the map is idempotent and k-linear.  A term is divided by the
    first generator, in order, whose leading monomial divides it.
    """
    if isinstance(gb, GroebnerBasis):
        if p.ctx != gb.ctx:
            raise ValueError("context mismatch")
        gb = gb.gens
    basis = [_element(g.terms, p.ctx.field) for g in gb if not g.is_zero()]
    return Polynomial(p.ctx, _reduce(dict(p.terms), basis, p.ctx))


class GroebnerBasis:
    """Reduced Groebner basis: monic generators, mutually in normal form.

    generator_counts is {d: mu_d} for the generators buchberger was
    given: mu_d is the number of minimal generators of the ideal in
    weighted degree d, with no entry where it is zero.
    """

    __slots__ = ("ctx", "gens", "generator_counts")

    def __init__(self, ctx, gens, generator_counts):
        self.ctx = ctx
        self.gens = tuple(gens)
        self.generator_counts = generator_counts

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.gens]

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        return "GroebnerBasis[%s]" % "; ".join(str(g) for g in self.gens)


def _update(basis, pairs, work, lm, monomial, ctx):
    """Gebauer-Moeller UPDATE (Becker-Weispfenning) for a new element with
    lead lm; pairs maps queued pairs to their lcm.  A queued pair goes if
    lm divides its lcm and both lcms through lm differ from it (B).  A new
    pair goes if another's lcm properly divides (M) or equals (F, one
    kept) its lcm, then if the leads are coprime (product criterion).
    Pairs of two monomials, whose S-polynomial is 0, never enter.
    """
    for (s, t), lcm in list(pairs.items()):
        if (mono_divides(lm, lcm) and mono_lcm(basis[s][0], lm) != lcm
                and mono_lcm(basis[t][0], lm) != lcm):
            del pairs[s, t]
    new = [(mono_lcm(lj, lm), j) for j, (lj, rest) in enumerate(basis)
           if rest or not monomial]
    kept = []
    for i, (lcm, j) in enumerate(new):
        if mono_coprime(basis[j][0], lm) or not any(
                mono_divides(other, lcm)
                for other, _ in itertools.chain(new[i + 1:], kept)):
            kept.append((lcm, j))
    n = len(basis)
    for lcm, j in kept:
        if not mono_coprime(basis[j][0], lm):
            pairs[j, n] = lcm
            heapq.heappush(work, (ctx.wdeg(lcm), 0, j, n))


def buchberger(gens):
    """Reduced Groebner basis of the ideal I generated by gens, with mu_d(I).

    Weighted-homogeneous generators only.  The run works on dicts with
    the reducer of normal_form; Polynomials are made for the result.  One
    heap orders the work by weighted degree: in each degree the S-pairs,
    by lcm degree, come before the input generators.  A pair _update
    drops reduces to 0 through pairs of no higher degree, so no nonzero
    remainder is lost.  A nonzero remainder joins the basis; its lead is
    divisible by no earlier one, so its pairs lie in higher degrees.  So
    when the generators of degree d are reduced, the basis spans J_d, J
    the ideal of the lower-degree generators, and J_d = (mI)_d by graded
    Nakayama: those with a nonzero remainder number mu_d(I)
    (generator_counts).  Likewise no lead divides another, so reducing
    each tail once gives the reduced basis.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError(
            "empty generator list requires a context; use GroebnerBasis(ctx, [], {})")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("context mismatch among generators")
        if not g.is_homogeneous():
            raise ValueError("non-homogeneous generator: %s" % g)
    F = ctx.field

    # (degree, 0, s, t) is the S-pair of basis[s] and basis[t],
    # (degree, 1, k, 0) the input generator gens[k]
    work = [(g.weighted_degree(), 1, k, 0) for k, g in enumerate(gens)]
    heapq.heapify(work)
    basis, counts, pairs = [], {}, {}
    while work:
        d, is_generator, s, t = heapq.heappop(work)
        if is_generator:
            terms = dict(gens[s].terms)
        elif (s, t) not in pairs:  # dropped by _update after it was queued
            continue
        else:  # u * basis[t] - v * basis[s]: the leading terms cancel
            (ls, rs), (lt, rt), lcm = basis[s], basis[t], pairs.pop((s, t))
            u, v = mono_div(lcm, lt), mono_div(lcm, ls)
            terms = {mono_mul(m, u): b for m, b in rt}
            for m, b in rs:
                m = mono_mul(m, v)
                terms[m] = terms.get(m, 0) - b
        rem = _reduce(terms, basis, ctx)
        if rem:
            if is_generator:
                counts[d] = counts.get(d, 0) + 1
            _update(basis, pairs, work, rem[0][0], len(rem) == 1, ctx)
            basis.append(_element(rem, F))

    reduced = []
    for k, (lm, rest) in enumerate(basis):
        if rest:  # a monomial has no tail to reduce
            rest = _reduce(dict(rest), basis, ctx)
            basis[k] = lm, rest
        reduced.append(Polynomial(ctx, [(lm, F.one)] + [(m, F.neg(b)) for m, b in rest]))
    reduced.sort(key=lambda g: ctx.key(g.leading_monomial()))
    return GroebnerBasis(ctx, reduced, counts)
