"""Polynomial layer: grammar, term orders, Groebner bases."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszulalg import exactalg, polyring
from koszulalg.exactalg import GF2, QQ, Matrix, PrimeField
from koszulalg.polyring import (
    PolyContext,
    Polynomial,
    PolyParseError,
    _split_word,
    buchberger,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    normal_form,
    parse_poly,
)

from conftest import monomials_of_weight, standard_monomials


CTX2 = PolyContext(GF2, ["x", "y"])
CTXQ = PolyContext(QQ, ["x", "y", "z"])
CTXW = PolyContext(GF2, ["x", "y"], [2, 3])


def test_parse_basic_forms():
    p = parse_poly("x^2 + 2*x*y - y", CTXQ)
    assert str(parse_poly(str(p), CTXQ)) == str(p)
    assert parse_poly("x^2y", CTXQ) == parse_poly("x^2 * y", CTXQ)
    assert parse_poly("yz", CTXQ) == parse_poly("y*z", CTXQ)
    assert parse_poly("3/4x", CTXQ) == parse_poly("x", CTXQ).scale(Fraction(3, 4))
    assert parse_poly("-x + x", CTXQ).is_zero()


def test_parse_longest_match_backtracking():
    ctx = PolyContext(QQ, ["a", "ab", "b"])
    # "ab" must prefer the two-letter variable, "aab" must backtrack
    assert str(parse_poly("ab", ctx)) == "ab"
    p = parse_poly("aab", ctx)
    assert p == parse_poly("a*ab", ctx) or p == parse_poly("a*a*b", ctx)


def _split_reference(word, names):
    """Recursive depth-first split, longest name first, or None."""
    if not word:
        return []
    for name in sorted(names, key=len, reverse=True):
        if word.startswith(name):
            rest = _split_reference(word[len(name):], names)
            if rest is not None:
                return [name] + rest
    return None


@given(st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=4,
                unique=True),
       st.text("ab", min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_split_matches_recursive_reference(names, word):
    ctx = PolyContext(QQ, names)
    expect = _split_reference(word, names)
    if expect is None:
        with pytest.raises(PolyParseError):
            _split_word(word, ctx, 0)
    else:
        assert _split_word(word, ctx, 0) == [names.index(n) for n in expect]


def test_split_without_solution_fails_fast():
    # a plain backtracking split takes about 1.6x longer per extra "a", so
    # on the short word it fails the time bound instead of running for ages
    ctx = PolyContext(QQ, ["a", "aa"])
    for length in (30, 200):
        start = time.perf_counter()
        with pytest.raises(PolyParseError) as e:
            parse_poly("a" * length + "b", ctx)
        assert e.value.pos == 0
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", ["", "x y", "2x", "\n", "x'", "\u0663"])
def test_variable_names_must_be_words(name):
    with pytest.raises(ValueError):
        PolyContext(GF2, ["x", name])
    PolyContext(GF2, ["x", "_y2", "\u00e9"])


def test_denominator_zero_in_field():
    ctx = PolyContext(PrimeField(3), ["x"])
    with pytest.raises(PolyParseError) as e:
        parse_poly("x + 1/3*x^2", ctx)
    assert e.value.pos == 6
    assert parse_poly("1/2*x", ctx) == parse_poly("2*x", ctx)


@pytest.mark.parametrize("text", ["x^\u00b2", "x^\u0663", "\u0663*x", "1/\u0663*x"])
def test_only_ascii_digits_are_numbers(text):
    with pytest.raises(PolyParseError):
        parse_poly(text, CTXQ)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x + q", CTXQ)
    assert e.value.pos == 4
    with pytest.raises(PolyParseError):
        parse_poly("x^", CTXQ)
    with pytest.raises(PolyParseError):
        parse_poly("1/0*x", CTXQ)
    with pytest.raises(PolyParseError):
        parse_poly("x +", CTXQ)
    with pytest.raises(PolyParseError):
        parse_poly("", CTXQ)


def test_str_renders_fractions_and_signs():
    p = parse_poly("1/2*x - 3*y", CTXQ)
    assert str(p) == "1/2*x - 3*y"
    assert parse_poly(str(p), CTXQ) == p


monos = st.tuples(st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=4))


@given(monos, monos, monos)
@settings(max_examples=80, deadline=None)
def test_term_order_axioms(a, b, c):
    key = CTXW.key
    # totality with compatibility: multiplying by c preserves strict order
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    if key(a) < key(b):
        assert key(ac) < key(bc)
    one = (0, 0)
    if a != one:
        assert key(one) < key(a)


@given(monos, monos)
@settings(max_examples=60, deadline=None)
def test_weighted_degree_respected(a, b):
    wa = 2 * a[0] + 3 * a[1]
    wb = 2 * b[0] + 3 * b[1]
    if wa < wb:
        assert CTXW.key(a) < CTXW.key(b)


def test_grevlex_tiebreak():
    ctx = PolyContext(QQ, ["x", "y", "z"])
    # same total degree: grevlex compares reversed exponents, negated
    assert ctx.key((1, 1, 0)) > ctx.key((1, 0, 1))
    assert ctx.key((2, 0, 0)) > ctx.key((1, 1, 0))


def test_buchberger_frozen_gb():
    ctx = PolyContext(GF2, ["x", "y", "z", "w"])
    gens = [parse_poly(s, ctx)
            for s in ["x^2", "y^2", "z^2", "w^2", "y*z + x*w"]]
    gb = buchberger(gens)
    lms = {str(ctx.monomial(m, GF2.one)) for m in gb.leading_monomials()}
    assert lms == {"x^2", "y^2", "z^2", "w^2", "y*z", "x*z*w", "x*y*w"}
    # ideal membership through normal form; x*y is a standard monomial
    assert normal_form(parse_poly("y*z*w^2 + x*w^3", ctx), gb).is_zero()
    assert not normal_form(parse_poly("x*y", ctx), gb).is_zero()


def test_buchberger_weighted_self_reduced():
    gens = [parse_poly("x^3 + y^2", CTXW), parse_poly("y^3", CTXW)]
    gb = buchberger(gens)
    assert len(gb) == 2
    assert normal_form(parse_poly("x^3", CTXW), gb) == parse_poly("y^2", CTXW)


def test_buchberger_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        buchberger([parse_poly("x^2 + y", CTXQ)])


# Textbook references on Polynomial arithmetic, sharing no code with the
# build's dict reducer: the oracles of _reference_buchberger below.

def s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    F = f.ctx.field
    a = f.ctx.monomial(mono_div(lcm, lf), F.inv(f.leading_coeff())) * f
    b = g.ctx.monomial(mono_div(lcm, lg), F.inv(g.leading_coeff())) * g
    return a - b


def _reference_normal_form(p, gens):
    """Division by Polynomial subtraction: the leading term of what is
    left is divided by the first generator whose leading monomial
    divides it, or else moves to the remainder.
    """
    ctx, F = p.ctx, p.ctx.field
    gens = [g for g in gens if not g.is_zero()]
    remainder, work = [], p
    while not work.is_zero():
        mono, coeff = work.terms[0]
        g = next((g for g in gens if mono_divides(g.leading_monomial(), mono)), None)
        if g is None:
            remainder.append((mono, coeff))
            work = Polynomial(ctx, work.terms[1:])
        else:
            u = mono_div(mono, g.leading_monomial())
            work = work - ctx.monomial(u, F.div(coeff, g.leading_coeff())) * g
    return Polynomial(ctx, remainder)


def test_spoly_of_gb_pair_reduces_to_zero():
    ctx = PolyContext(QQ, ["x", "y"])
    gb = buchberger([parse_poly("x^2", ctx), parse_poly("x*y + y^2", ctx)])
    ps = gb.gens
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            assert normal_form(s_polynomial(ps[i], ps[j]), gb).is_zero()


@st.composite
def random_poly(draw, ctx, max_terms=4):
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mono = tuple(draw(st.integers(min_value=0, max_value=3))
                     for _ in range(ctx.nvars))
        coeff = ctx.field.from_int(draw(st.integers(min_value=-3, max_value=3)))
        terms.append((mono, coeff))
    p = ctx.zero()
    for mono, c in terms:
        p = p + ctx.monomial(mono, c)
    return p


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_normal_form_is_linear(data):
    ctx = PolyContext(PrimeField(5), ["x", "y"])
    gb = buchberger([parse_poly("x^2 + 2*y^2", ctx), parse_poly("y^3", ctx)])
    p = data.draw(random_poly(ctx))
    q = data.draw(random_poly(ctx))
    lhs = normal_form(p + q, gb)
    rhs = normal_form(p, gb) + normal_form(q, gb)
    assert lhs == rhs


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_normal_form_idempotent_and_member(data):
    ctx = PolyContext(GF2, ["x", "y"])
    gb = buchberger([parse_poly("x^2", ctx), parse_poly("y^2", ctx)])
    p = data.draw(random_poly(ctx))
    nf = normal_form(p, gb)
    assert normal_form(nf, gb) == nf
    assert normal_form(p - nf, gb).is_zero()


@given(st.data(), st.sampled_from([GF2, PrimeField(5), QQ]))
@settings(max_examples=60, deadline=None)
def test_normal_form_matches_reference_division(data, field):
    # any divisor list, not only a Groebner basis, with leading coefficients
    # other than 1 and repeated leading monomials: the first divisor in
    # list order is the one that reduces a term
    ctx = PolyContext(field, ["x", "y"])
    p = data.draw(random_poly(ctx, max_terms=6))
    gens = data.draw(st.lists(random_poly(ctx), max_size=4))
    assert normal_form(p, gens) == _reference_normal_form(p, gens)


def test_parse_roundtrip_random():
    ctx = CTXQ
    rng = random.Random(3)
    for _ in range(50):
        p = ctx.zero()
        for _ in range(rng.randrange(5)):
            mono = tuple(rng.randrange(4) for _ in range(3))
            p = p + ctx.monomial(mono, Fraction(rng.randrange(-5, 6)))
        assert parse_poly(str(p), ctx) == p


def test_standard_monomials_known_dims():
    ctx = PolyContext(QQ, ["x", "y", "z"])
    gb = buchberger([parse_poly(s, ctx) for s in ["x^2", "x*y", "y^2", "z^2"]])
    dims = [len(standard_monomials(gb, d)) for d in range(5)]
    assert dims == [1, 3, 2, 0, 0]
    mons = {str(ctx.monomial(m, QQ.one)) for m in standard_monomials(gb, 2)}
    assert mons == {"x*z", "y*z"}


def test_monomials_of_weight_weighted():
    got = monomials_of_weight(CTXW, 6)
    assert sorted(got) == [(0, 2), (3, 0)]


def test_order_variant_changes_leading_terms_not_dimensions():
    base = PolyContext(QQ, ["x", "y", "z"])
    lex = PolyContext(QQ, ["x", "y", "z"], order="lex")
    gens = ["x^2 - y*z", "y^2", "z^2"]
    gb1 = buchberger([parse_poly(s, base) for s in gens])
    gb2 = buchberger([parse_poly(s, lex) for s in gens])
    for d in range(8):
        assert len(standard_monomials(gb1, d)) == len(standard_monomials(gb2, d))


def _reference_buchberger(gens):
    """Reduced basis by the textbook route: every generator up front, then
    S-pairs by lcm degree, then drop the elements whose leading monomial
    another divides, then reduce by the others until nothing changes.
    """
    basis = [g.monic() for g in gens if not g.is_zero()]
    ctx = basis[0].ctx
    pairs = [(ctx.wdeg(mono_lcm(f.leading_monomial(), g.leading_monomial())), s, t)
             for (s, f), (t, g) in itertools.combinations(enumerate(basis), 2)
             if not mono_coprime(f.leading_monomial(), g.leading_monomial())]
    while pairs:
        pairs.sort()
        _, s, t = pairs.pop(0)
        rem = _reference_normal_form(s_polynomial(basis[s], basis[t]), basis)
        if rem.is_zero():
            continue
        basis.append(rem.monic())
        lt = rem.leading_monomial()
        pairs += [(ctx.wdeg(mono_lcm(g.leading_monomial(), lt)), s, len(basis) - 1)
                  for s, g in enumerate(basis[:-1])
                  if not mono_coprime(g.leading_monomial(), lt)]
    keep = [g for i, g in enumerate(basis) if not any(
        mono_divides(h.leading_monomial(), g.leading_monomial())
        and (h.leading_monomial() != g.leading_monomial() or j < i)
        for j, h in enumerate(basis) if j != i)]
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(keep):
            r = _reference_normal_form(g, keep[:i] + keep[i + 1:]).monic()
            if r != g:
                keep[i], changed = r, True
    return sorted(keep, key=lambda g: ctx.key(g.leading_monomial()))


def _reference_counts(gens):
    """{d: mu_d} by graded Nakayama, one degree at a time: the rank of the
    degree-d generators modulo a basis of the lower-degree ones.
    """
    by_degree = {}
    for g in gens:
        if not g.is_zero():
            by_degree.setdefault(g.weighted_degree(), []).append(g)
    counts, lower = {}, []
    for d in sorted(by_degree):
        reduced = by_degree[d]
        if lower:
            basis = _reference_buchberger(lower)
            reduced = [_reference_normal_form(g, basis) for g in reduced]
        monos = sorted({m for g in reduced for m, _ in g.terms})
        field = reduced[0].ctx.field
        rows = [[dict(g.terms).get(m, field.zero) for m in monos] for g in reduced]
        mu = exactalg.rank(Matrix(field, rows, len(monos))) if monos else 0
        if mu:
            counts[d] = mu
        lower.extend(by_degree[d])
    return counts


@st.composite
def homogeneous_ideals(draw):
    """Weighted-homogeneous generators in either order: random forms, zeros,
    repeats, S-polynomials, combinations u*g1 + v*g2 of earlier ones, and
    earlier ones plus a form of their degree (often the same leading monomial).

    The first extra generator is an S-polynomial or a combination, which
    often lies in mI only through an S-pair of its own degree.
    """
    n = draw(st.integers(min_value=2, max_value=3))
    weights = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=n, max_size=n))
    field = draw(st.sampled_from([GF2, PrimeField(3), PrimeField(5), QQ]))
    ctx = PolyContext(field, "xyz"[:n], weights, order=draw(st.sampled_from(["grevlex", "lex"])))

    coeffs = [c for c in map(field.from_int, (1, 2, 3, -1)) if c != field.zero]

    def form(d):
        monos = monomials_of_weight(ctx, d)
        if not monos:
            return ctx.zero()
        terms = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        return Polynomial(ctx, [(m, draw(st.sampled_from(coeffs))) for m in terms])

    gens = [form(draw(st.integers(min_value=2, max_value=3))) for _ in range(2)]
    assume(not any(g.is_zero() for g in gens))
    kinds = ["form", "zero", "repeat", "spair", "combination", "perturbed"]
    for t in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(kinds[3:5] if t == 0 else kinds))
        nonzero = [g for g in gens if not g.is_zero()]
        g1, g2 = draw(st.permutations(nonzero))[-2:] if len(nonzero) > 1 else nonzero * 2
        if kind == "form":
            gens.append(form(draw(st.integers(min_value=1, max_value=4))))
        elif kind == "zero":
            gens.append(ctx.zero())
        elif kind == "repeat":
            gens.append(g1)
        elif kind == "perturbed":
            gens.append(g1 + form(g1.weighted_degree()))
        elif kind == "spair":
            gens.append(s_polynomial(g1, g2))
        else:
            d = max(g1.weighted_degree(), g2.weighted_degree())
            d += draw(st.integers(min_value=0, max_value=1))
            gens.append(form(d - g1.weighted_degree()) * g1
                        + form(d - g2.weighted_degree()) * g2)
    return draw(st.permutations(gens))


@given(homogeneous_ideals())
@settings(max_examples=80, deadline=None)
def test_buchberger_matches_reference_and_counts_minimal_generators(gens):
    gb = buchberger(gens)
    basis = list(gb)
    one = basis[0].ctx.field.one
    assert all(g.leading_coeff() == one for g in basis)
    for k, g in enumerate(basis):
        assert normal_form(g, basis[:k] + basis[k + 1:]) == g
    for f, g in itertools.combinations(basis, 2):
        assert normal_form(s_polynomial(f, g), gb).is_zero()
    assert all(normal_form(g, gb).is_zero() for g in gens)
    assert basis == _reference_buchberger(gens)
    assert gb.generator_counts == _reference_counts(gens)


def _generic_cubics(n, field, seed=1):
    """n cubics in n variables, every coefficient drawn from 1-9."""
    rng = random.Random(seed)
    ctx = PolyContext(field, "xyzw"[:n])
    monos = monomials_of_weight(ctx, 3)
    return [Polynomial(ctx, [(m, field.from_int(rng.randint(1, 9))) for m in monos])
            for _ in range(n)]


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["F32003", "Q"])
@pytest.mark.parametrize("n", [3, 4])
def test_generic_cubics_match_reference(n, field):
    gens = _generic_cubics(n, field)
    gb = buchberger(gens)
    assert list(gb) == _reference_buchberger(gens)
    assert gb.generator_counts == _reference_counts(gens) == {3: n}


def test_pair_criteria_prune_generic_cubics(monkeypatch):
    # Without the Gebauer-Moeller criteria (coprime pairs only) 346 S-pairs
    # of four generic cubics are reduced; with them, about 70.
    gens = _generic_cubics(4, PrimeField(32003))
    calls = []
    reduce = polyring._reduce
    monkeypatch.setattr(polyring, "_reduce",
                        lambda *args: calls.append(1) or reduce(*args))
    gb = buchberger(gens)
    tails = sum(len(g.terms) > 1 for g in gb)
    spairs = len(calls) - len(gens) - tails
    assert 0 < spairs <= 100
