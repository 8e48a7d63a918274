"""Polynomial layer: grammar, term orders, Groebner bases."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulalg.exactalg import GF2, QQ, PrimeField
from koszulalg.polyring import (
    GroebnerBasis,
    PolyContext,
    PolyParseError,
    _split_word,
    buchberger,
    monomials_of_weight,
    normal_form,
    parse_poly,
    s_polynomial,
    standard_monomials,
)


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


def test_parse_roundtrip_random():
    ctx = CTXQ
    import random
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


@given(st.sampled_from(["grevlex", "lex"]),
       st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=9))
@settings(max_examples=60, deadline=None)
def test_sort_decreasing_matches_key(order, weights, d):
    ctx = PolyContext(QQ, "xyzw"[:len(weights)], weights, order=order)
    monos = monomials_of_weight(ctx, d)
    expect = sorted(monos, key=ctx.key, reverse=True)
    ctx.sort_decreasing(monos)
    assert monos == expect
