"""Graded ring backends: Artinian quotients and numerical semigroups."""

import glob
import itertools
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koszulalg import exactalg, gring
from koszulalg.cli import load_ring_spec
from koszulalg.exactalg import GF2, QQ, PrimeField
from koszulalg.polyring import (
    PolyContext,
    Polynomial,
    mono_mul,
    monomials_of_weight,
    normal_form,
    parse_poly,
    standard_monomials,
)
from koszulalg.gring import (
    ArtinianQuotient,
    Memo,
    RingConstructionError,
    RingElement,
    SemigroupRing,
    make_artinian_quotient,
    make_semigroup_ring,
)
from koszulalg.koszul import KoszulComplex, betti_table

import conftest


def test_ci_dims():
    R = conftest.ci_f2()
    assert [R.dim(d) for d in range(4)] == [1, 2, 1, 0]


def test_q_ring_dims():
    R = conftest.q_ring()
    assert [R.dim(d) for d in range(4)] == [1, 3, 2, 0]
    assert R.top_degree == 2


def test_weighted_dims():
    R = conftest.weighted_23()
    dims = {d: R.dim(d) for d in range(16) if R.dim(d)}
    # basis 1, x, y, x^2, xy, x^3=y^2 is dead? no: x^3+y^2=0 kills one of them
    assert dims[0] == 1 and dims[2] == 1 and dims[3] == 1
    assert sum(dims.values()) == 9
    assert max(dims) == 10


def test_non_artinian_rejected():
    ctx = PolyContext(GF2, ["x", "y"])
    with pytest.raises(RingConstructionError) as e:
        make_artinian_quotient(ctx, ["x^2"])
    assert "y" in str(e.value)


def test_non_minimal_generator_rejected():
    # x is itself in the ideal, so it is not a minimal generator of m
    ctx = PolyContext(GF2, ["x", "y"])
    with pytest.raises(RingConstructionError) as e:
        make_artinian_quotient(ctx, ["x", "y^2"])
    assert "x" in str(e.value)


def test_parse_element_reduces():
    R = conftest.weighted_23()
    assert R.parse_element("x^3 + y^2").is_zero()
    assert R.parse_element("x^3") == R.parse_element("y^2")


def test_element_arithmetic():
    R = conftest.q_ring()
    x = R.generator(0)
    z = R.generator(2)
    assert (x * z) == (z * x)
    assert (x * x).is_zero()
    assert ((x + z) * (x + z)) == (x * z).scale(QQ.from_int(2))


def test_mult_triplets_match_element_product():
    R = conftest.row3_ring()
    for i in range(R.ngens):
        for d in range(R.top_degree + 1):
            trips = R.mult_triplets(i, d)
            basis = R.basis_of_degree(d)
            gen = R.generator(i)
            for r, c, coeff in trips:
                assert coeff != R.field.zero
            # column c of the triplet matrix is gen * basis[c]
            for c, b in enumerate(basis):
                prod = gen * b
                vec = [R.field.zero] * R.dim(d + 1)
                for t, coeff in R.coords_by_degree(prod).get(d + 1, ()):
                    vec[t] = coeff
                got = [R.field.zero] * len(vec)
                for rr, cc, coeff in trips:
                    if cc == c:
                        got[rr] = coeff
                assert got == vec


def test_max_ideal_power_monotone():
    R = conftest.q_ring()
    for d in range(3):
        dims = []
        for a in range(5):
            vecs = R.max_ideal_power_vectors(a, d)
            dims.append(len(vecs))
        assert dims == sorted(dims, reverse=True)
    assert len(R.max_ideal_power_vectors(0, 1)) == R.dim(1)
    assert len(R.max_ideal_power_vectors(-2, 2)) == R.dim(2)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_mpower_fast_path_matches_general(a, d):
    # the general path on a standard graded ring: (m^a)_d is R_d when
    # d >= a and 0 below
    R = conftest.row3_ring()
    vecs = R.max_ideal_power_vectors(a, d)
    expect = R.dim(d) if d >= a else 0
    assert len(vecs) == expect


def test_mpower_general_weighted():
    R = conftest.weighted_23()
    # m^2 in degree 4 contains x^2 (weight 2+2) but degree-4 slice of m^3 is 0
    assert len(R.max_ideal_power_vectors(2, 4)) == 1
    assert len(R.max_ideal_power_vectors(3, 4)) == 0


def test_semigroup_frobenius_conductor():
    S = conftest.semigroup_6101415()
    assert S.frobenius == 23
    assert S.conductor == 24
    S2 = conftest.semigroup_910111317()
    assert S2.frobenius == 25
    assert S2.conductor == 26
    S3 = make_semigroup_ring(GF2, [1])
    assert S3.conductor == 0
    assert S3.codepth == 0


def test_semigroup_membership_dims():
    S = conftest.semigroup_6101415()
    members = [0, 6, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24, 25, 26]
    for d in members:
        assert S.dim(d) == 1
    for d in [1, 5, 7, 11, 13, 17, 19, 23]:
        assert S.dim(d) == 0
    for d in range(24, 80):
        assert S.dim(d) == 1


def test_semigroup_construction_errors():
    with pytest.raises(RingConstructionError):
        make_semigroup_ring(GF2, [4, 6])  # gcd 2
    with pytest.raises(RingConstructionError) as e:
        make_semigroup_ring(GF2, [3, 4, 7])  # 7 = 3 + 4 redundant
    assert "7" in str(e.value)
    with pytest.raises(RingConstructionError):
        make_semigroup_ring(GF2, [3, 3, 4])
    with pytest.raises(RingConstructionError):
        make_semigroup_ring(GF2, [0, 3])


def test_semigroup_parse_and_multiply():
    S = conftest.semigroup_6101415()
    a = S.parse_element("t^6")
    b = S.parse_element("t^10")
    assert (a * b) == S.parse_element("t^16")
    with pytest.raises(ValueError):
        S.parse_element("t^7")


def test_semigroup_mpower():
    S = conftest.semigroup_6101415()
    # t^12 = (t^6)^2 lies in m^2 but t^6 does not
    assert len(S.max_ideal_power_vectors(2, 12)) == 1
    assert len(S.max_ideal_power_vectors(2, 6)) == 0
    assert len(S.max_ideal_power_vectors(1, 6)) == 1


def test_codepth():
    assert conftest.ci_f2().codepth == 2
    assert conftest.q_ring().codepth == 3
    assert conftest.semigroup_6101415().codepth == 3
    assert conftest.semigroup_910111317().codepth == 4
    assert make_semigroup_ring(GF2, [1]).codepth == 0


def test_cache_consistency_under_repeated_calls():
    R = conftest.row3_ring()
    first = R.mult_triplets(0, 1)
    again = R.mult_triplets(0, 1)
    assert first.tolist() == again.tolist()
    b1 = R.basis_of_degree(2)
    b2 = R.basis_of_degree(2)
    assert [str(x) for x in b1] == [str(x) for x in b2]


# ------------------------------------------- staircase walk vs. the oracles

def _oracle_triplets(R, i, d, standard):
    """x_i: R_d -> R_{d+w_i} from the normal form of every x_i * m."""
    var = tuple(1 if j == i else 0 for j in range(R.ngens))
    dst = standard(d + R.weights[i])
    dst_index = {m: t for t, m in enumerate(dst)}
    out = []
    for col, m in enumerate(standard(d)):
        nf = normal_form(R.ctx.monomial(mono_mul(m, var)), R.gb)
        for mono, coeff in nf.terms:
            out.append([dst_index[mono], col, coeff])
    return out


def assert_matches_oracles(R, triplet_degrees=None, standard=None):
    """Bases and multiplication tables of R against the normal-form oracles.

    standard(d) lists the standard monomials of degree d in decreasing
    term order; by default polyring.standard_monomials enumerates every
    monomial of degree d and drops the multiples of leading monomials.
    """
    if standard is None:
        def standard(d):
            return standard_monomials(R.gb, d)
    for d in range(-1, R.top_degree + max(R.weights) + 1):
        assert list(R._monomial_basis(d)) == standard(d), d
    if triplet_degrees is None:
        triplet_degrees = range(-1, R.top_degree + 1)
    for i in range(R.ngens):
        for d in triplet_degrees:
            assert (R.mult_triplets(i, d).tolist()
                    == _oracle_triplets(R, i, d, standard)), (i, d)


def _quotient_fixtures():
    names = []
    for path in sorted(glob.glob(conftest.fixture_path("*.json"))):
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        name = os.path.basename(path)
        if spec["presentation"]["type"] == "quotient" and name != "f2_big_x98.json":
            names.append(name)
    return names


@pytest.mark.parametrize("name", _quotient_fixtures())
def test_fixture_ring_matches_oracles(name):
    assert_matches_oracles(load_ring_spec(conftest.fixture_path(name)))


@pytest.mark.slow
def test_big_x98_ring_matches_oracles():
    R = load_ring_spec(conftest.fixture_path("f2_big_x98.json"))
    assert R.top_degree == 245
    assert_matches_oracles(
        R, triplet_degrees=[0, 1, 49, 50, 100, 101, 148, 149, 196, 197, 244, 245])


def test_exponent_box_past_int64_matches_oracles():
    # 18 variables, x1^16 - x2^16, x_i^16 for i >= 3 and every x_i*x_j:
    # the box of exponents, prod(b_i + 1) = 17 * 16^17 > 2^63, would wrap
    # a single int64 mixed-radix key of a monomial (with radix 16, x17^d
    # and x18^d would both wrap to 0).  x1 * x1^15 lies on the border,
    # with normal form x2^16.  The standard monomials are the pure powers
    # x_t^d, d <= 15, and x2^16; enumerating every monomial of degree 16
    # in 18 variables is out of reach, so the basis oracle is that closed
    # form.
    n = 18
    names = ["x%d" % (t + 1) for t in range(n)]
    ctx = PolyContext(PrimeField(5), names)
    gens = ["x1^16 - x2^16"] + ["%s^16" % v for v in names[2:]]
    gens += ["%s*%s" % (u, v) for u, v in itertools.combinations(names, 2)]
    R = make_artinian_quotient(ctx, gens)

    def power(t, d):
        return tuple(d if s == t else 0 for s in range(n))

    def standard(d):
        if d < 0 or d > 16:
            return []
        if d == 16:
            return [power(1, 16)]
        return sorted({power(t, d) for t in range(n)}, key=ctx.key, reverse=True)

    box = [1 + max(m[t] for d in range(R.top_degree + 1) for m in standard(d))
           for t in range(n)]
    assert math.prod(box) > 2 ** 63
    assert_matches_oracles(R, standard=standard)


@st.composite
def artinian_ideals(draw):
    """Pure powers of every variable plus random monomials, binomials and trinomials.

    Every extra generator has total degree >= 2, so each variable stays
    a minimal generator of the maximal ideal.  A trinomial gives its
    Groebner basis element a tail of two terms, so border normal forms
    branch and their terms merge.
    """
    n = draw(st.integers(min_value=2, max_value=3))
    weights = draw(st.lists(st.integers(min_value=1, max_value=3),
                            min_size=n, max_size=n))
    field = draw(st.sampled_from([GF2, PrimeField(3), QQ]))
    ctx = PolyContext(field, "xyz"[:n], weights)
    gens = []
    for i in range(n):
        gens.append(ctx.monomial(tuple(
            draw(st.integers(min_value=2, max_value=5)) if j == i else 0
            for j in range(n))))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        d = draw(st.integers(min_value=2 * min(weights), max_value=4 * max(weights)))
        monos = [m for m in monomials_of_weight(ctx, d) if sum(m) >= 2]
        if not monos:
            continue
        size = draw(st.integers(min_value=1, max_value=min(3, len(monos))))
        terms = draw(st.lists(st.sampled_from(monos), min_size=size, max_size=size,
                              unique=True))
        coeffs = [field.one]
        for _ in terms[1:]:
            if field is QQ:
                coeffs.append(Fraction(draw(st.sampled_from([-3, -1, 1, 2])),
                                       draw(st.sampled_from([1, 2, 5]))))
            else:
                coeffs.append(draw(st.integers(min_value=1, max_value=field.p - 1)))
        gens.append(Polynomial(ctx, zip(terms, coeffs)))
    return ctx, gens


@given(artinian_ideals())
@settings(max_examples=40, deadline=None)
def test_random_artinian_ring_matches_oracles(ideal):
    ctx, gens = ideal
    assert_matches_oracles(ArtinianQuotient(ctx, gens))


@pytest.mark.parametrize("field", [PrimeField(3), QQ], ids=["F3", "Q"])
def test_border_forms_cancel_where_reduction_paths_meet(field, monkeypatch):
    # x*y - x*z + y*z has a tail of two terms; in the border normal forms
    # two reduction paths reach one monomial with opposite coefficients
    merged = []
    merge = gring._merge_terms

    def counting_merge(F, labels, coef):
        out = merge(F, labels, coef)
        merged.append(len(np.unique(labels, axis=0)) - len(out[1]))
        return out

    monkeypatch.setattr(gring, "_merge_terms", counting_merge)
    ctx = PolyContext(field, ["x", "y", "z"])
    R = make_artinian_quotient(ctx, ["x^2", "y^2", "z^3", "x*y - x*z + y*z"])
    assert_matches_oracles(R)
    assert max(merged) > 0
    assert_products_match_oracle(R, random.Random(2))


@pytest.mark.parametrize("field", [PrimeField(3), QQ], ids=["F3", "Q"])
def test_lex_quotient_with_empty_degrees_matches_oracles(field):
    # weights (5, 2) leave degrees 1 and 3 empty, and degree 10 holds x^2
    # and y^5, which lex and grevlex order differently
    ctx = PolyContext(field, ["x", "y"], [5, 2], order="lex")
    R = make_artinian_quotient(ctx, ["x^3", "y^8", "x^2*y^2 + y^7"])
    assert R.dim(1) == R.dim(3) == 0
    assert R._monomial_basis(10) == ((2, 0), (0, 5))
    assert_matches_oracles(R)
    assert_products_match_oracle(R, random.Random(3))


# ------------------------------ product table vs. polyring.normal_form

def assert_product_matches_normal_form(R, p, q):
    """The table product of p and q agrees with NF(p*q) in payload, ==, hash and str."""
    got = R.from_polynomial(p) * R.from_polynomial(q)
    nf = normal_form(p * q, R.gb)
    oracle = RingElement(R, dict(nf.terms))
    assert got.data == oracle.data
    assert got == oracle and hash(got) == hash(oracle)
    assert str(got) == str(nf)


def assert_products_match_oracle(R, rng, samples=30):
    """Every pair of standard monomials, then random non-homogeneous elements.

    Also every monomial through top_degree + max(weights) on its own:
    its normal form is itself, a border normal form, or zero past
    top_degree.
    """
    F = R.field
    standard = [m for d in range(R.top_degree + 1)
                for m in standard_monomials(R.gb, d)]
    for m1 in standard:
        for m2 in standard:
            assert_product_matches_normal_form(
                R, R.ctx.monomial(m1), R.ctx.monomial(m2))
    monos = [m for d in range(R.top_degree + max(R.weights) + 1)
             for m in monomials_of_weight(R.ctx, d)]
    for m in monos:
        p = R.ctx.monomial(m)
        assert R.from_polynomial(p).data == dict(normal_form(p, R.gb).terms)
        if R.ctx.wdeg(m) > R.top_degree:
            assert R.from_polynomial(p).is_zero()

    def random_poly():
        return Polynomial(R.ctx, [
            (m, F.from_int(rng.randint(-3, 3)))
            for m in rng.sample(monos, min(len(monos), rng.randint(1, 4)))])

    for _ in range(samples):
        assert_product_matches_normal_form(R, random_poly(), random_poly())


@pytest.mark.parametrize("make", [
    pytest.param(lambda name=name: load_ring_spec(conftest.fixture_path(name)),
                 id=name)
    for name in _quotient_fixtures()] + [
    pytest.param(lambda: conftest.row3_ring(QQ), id="row3-Q"),
    pytest.param(lambda: conftest.weighted_23(PrimeField(3)), id="weighted_2_3-F3")])
def test_products_match_normal_form(make):
    assert_products_match_oracle(make(), random.Random(0))


def test_products_match_normal_form_with_tiny_caches():
    # every product table entry is evicted almost at once
    R = conftest.row3_ring(QQ)
    R._products = Memo(3)
    assert_products_match_oracle(R, random.Random(1))
    assert len(R._products.data) <= 3


@given(artinian_ideals(), st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=40, deadline=None)
def test_random_artinian_products_match_normal_form(ideal, seed):
    ctx, gens = ideal
    R = ArtinianQuotient(ctx, gens)
    assert_products_match_oracle(R, random.Random(seed), samples=10)


def test_memo_evicts_oldest_insertion_first():
    # a hit does not refresh an entry
    memo, computed = Memo(2), []
    for key in (1, 2, 1, 3, 1):
        assert memo.get_or_compute(key, lambda: computed.append(key) or -key) == -key
    assert computed == [1, 2, 3, 1]


def test_threaded_rank_only_betti_matches_serial():
    def family_complex():
        ctx = PolyContext(GF2, ["x", "y", "z"])
        return KoszulComplex(make_artinian_quotient(
            ctx, ["x^7", "y^8", "z^9", "x^4*z^5 + y^4*z^5"]))

    serial = betti_table(family_complex(), rank_only=True, threads=1)
    threaded = betti_table(family_complex(), rank_only=True, threads=2)
    assert threaded.entries == serial.entries


def test_rank_only_betti_makes_no_basis_tuple(monkeypatch):
    # the ring build and the rank-only path read the exponent array only
    made = []
    basis = ArtinianQuotient._monomial_basis
    monkeypatch.setattr(ArtinianQuotient, "_monomial_basis",
                        lambda self, d: made.append(d) or basis(self, d))
    ctx = PolyContext(GF2, ["x", "y", "z"])
    R = make_artinian_quotient(
        ctx, ["x^30", "y^31", "z^32", "x^15*z^17 + y^15*z^17"])
    assert R.top_degree == 75
    betti_table(KoszulComplex(R), rank_only=True)
    assert made == []
    assert not R._bases and not R._index_cache.data


def _mpower_oracle(generators, a_max, bound):
    """Degrees d <= bound of m^a in k[S], for a = 0..a_max, by sumsets.

    m^0 is all of S; m^a collects the sums x + s with x in m^(a-1) and s
    a nonzero member of S.
    """
    members = {0}
    for d in range(1, bound + 1):
        if any(d - g in members for g in generators if g <= d):
            members.add(d)
    positive = sorted(members - {0})
    levels = [members]
    for _ in range(a_max):
        levels.append({x + s for x in levels[-1] for s in positive
                       if x + s <= bound})
    return levels


def assert_mpower_matches_oracle(S, a_max=6):
    bound = S.conductor + 3 * max(S.generators)
    levels = _mpower_oracle(S.generators, a_max, bound)
    for a, degrees in enumerate(levels):
        for d in range(bound + 1):
            expect = [[S.field.one]] if d in degrees else []
            assert S.max_ideal_power_vectors(a, d) == expect, (a, d)


def _semigroup_fixtures():
    names = []
    for path in sorted(glob.glob(conftest.fixture_path("*.json"))):
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        if spec["presentation"]["type"] == "semigroup":
            names.append(os.path.basename(path))
    return names


@pytest.mark.parametrize("name", _semigroup_fixtures())
def test_semigroup_mpower_matches_sumsets(name):
    assert_mpower_matches_oracle(load_ring_spec(conftest.fixture_path(name)))


def _minimal_semigroup_generators(values):
    """Minimal generators of the numerical semigroup spanned by values / gcd.

    Every drawn list maps to a valid ring, so hypothesis filters nothing.
    """
    g = math.gcd(*values)
    gens = []
    for v in sorted({v // g for v in values}):
        if not SemigroupRing._sieve(gens, v)[v]:
            gens.append(v)
    return gens


@given(st.lists(st.integers(min_value=1, max_value=13), min_size=1,
                max_size=4, unique=True).map(_minimal_semigroup_generators))
@settings(max_examples=40, deadline=None)
def test_random_semigroup_mpower_matches_sumsets(generators):
    assert_mpower_matches_oracle(SemigroupRing(GF2, generators))
