"""Betti tables against two combinatorial formulas that share nothing with the engine.

Miller–Sturmfels, Combinatorial Commutative Algebra (GTM 227):

- a monomial quotient S/I has beta_{i,b} = dim H~_{i-2}(K^b(I)), with the
  upper Koszul simplicial complex K^b(I) = {squarefree F : x^(b-F) in I}
  (chapter 1, stated for I, whose beta_{i-1,b} is that of S/I);
- a semigroup ring k[S] has beta_{i,b} = dim H~_{i-1}(Delta_b), with the
  squarefree divisor complex Delta_b = {F : b - sum_F g_j in S}
  (chapter 9).

The reduced homology is computed here from the boundary maps of those
complexes over the ring's field, by a plain elimination in this module;
the engine's Koszul strands, multiplication tables and elimination
kernels play no part.  Both the rank-only and the full Betti table of
the engine must equal the formula's.
"""

import collections
import itertools
import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszulalg.cli import load_ring_spec
from koszulalg.exactalg import GF2, QQ, PrimeField
from koszulalg.gring import SemigroupRing, make_artinian_quotient
from koszulalg.koszul import KoszulComplex, betti_table
from koszulalg.polyring import PolyContext

import conftest


def _rank(rows, p):
    """Rank of integer rows over F_p, or over Q for p = 0."""
    rows = [[Fraction(a) for a in row] if p == 0 else [a % p for a in row]
            for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c] if p == 0 else pow(rows[rank][c], p - 2, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
                if p:
                    rows[r] = [a % p for a in rows[r]]
        rank += 1
    return rank


def _reduced_homology(faces, p):
    """{q: dim H~_q} of the simplicial complex with these faces (sorted tuples).

    The empty face, if present, spans the chains of dimension -1, so the
    complex {()} has H~_{-1} = k and the void complex has no homology.
    """
    cells = collections.defaultdict(list)
    for f in faces:
        cells[len(f) - 1].append(f)
    ranks = {}
    for q, cq in cells.items():
        if q < 0:
            continue
        index = {f: t for t, f in enumerate(cells[q - 1])}
        rows = [[0] * len(cq) for _ in cells[q - 1]]
        for t, f in enumerate(cq):
            for l in range(len(f)):
                rows[index[f[:l] + f[l + 1:]]][t] = (-1) ** l
        ranks[q] = _rank(rows, p)
    return {q: len(cq) - ranks.get(q, 0) - ranks.get(q + 1, 0)
            for q, cq in cells.items()}


def _subsets(n):
    return [F for k in range(n + 1) for F in itertools.combinations(range(n), k)]


def _add(table, i, d, h):
    if h:
        table[(i, d - i)] = table.get((i, d - i), 0) + h


def _monomial_betti(gens, weights, p):
    """{(i, j): beta_{i, i+j}} of S/I, I generated by the exponent vectors gens."""
    n = len(weights)
    top = [max(g[j] for g in gens) for j in range(n)]  # the lcm of all generators

    def in_ideal(c):
        return any(all(a >= e for a, e in zip(c, g)) for g in gens)

    table = {(0, 0): 1}
    for b in itertools.product(*(range(t + 1) for t in top)):
        faces = [F for F in _subsets(n)
                 if in_ideal([b[j] - (j in F) for j in range(n)])]
        degree = sum(e * w for e, w in zip(b, weights))
        for q, h in _reduced_homology(faces, p).items():
            _add(table, q + 2, degree, h)
    return table


def _semigroup_betti(gens, p):
    """{(i, j): beta_{i, i+j}} of k[S] for the numerical semigroup S generated by gens."""
    bound = max(gens) ** 2 + sum(gens)  # past the Frobenius number (Schur)
    member = [True] + [False] * bound
    for m in range(1, bound + 1):
        member[m] = any(m >= g and member[m - g] for g in gens)
    conductor = max((m + 1 for m in range(bound + 1) if not member[m]), default=0)
    table = {}
    # from conductor + sum(gens) on, every Delta_b is the full simplex
    for b in range(conductor + sum(gens)):
        faces = [F for F in _subsets(len(gens))
                 if b - sum(gens[j] for j in F) >= 0 and member[b - sum(gens[j] for j in F)]]
        for q, h in _reduced_homology(faces, p).items():
            _add(table, q + 1, b, h)
    return table


def _engine_tables(ring):
    return (betti_table(KoszulComplex(ring), rank_only=True).entries,
            betti_table(KoszulComplex(ring)).entries)


def _exponents(term, variables):
    """Exponent vector of a monomial written as a product of powers, such as x^2*y."""
    out = [0] * len(variables)
    for factor in term.split("*"):
        name, _, power = factor.strip().partition("^")
        out[variables.index(name)] += int(power or 1)
    return out


def _spec(name):
    with open(conftest.fixture_path(name)) as f:
        return json.load(f)


def _fixtures(kind):
    names = sorted(n for n in os.listdir(conftest.FIXTURES) if n.endswith(".json"))
    return [n for n in names if _spec(n)["presentation"]["type"] == kind]


def _monomial_fixtures():
    return [n for n in _fixtures("quotient")
            if not any(c in g for g in _spec(n)["presentation"]["ideal"] for c in "+-")]


def test_fixture_families_are_the_expected_ones():
    assert _monomial_fixtures() == ["f2_ci_x2_y2.json", "f2_destefani.json",
                                    "f2_golod_m2.json", "q_x2_xy_y2_z2.json"]
    assert len(_fixtures("semigroup")) == 4


@pytest.mark.parametrize("name", _monomial_fixtures())
def test_monomial_fixture_matches_upper_koszul_complexes(name):
    spec = _spec(name)
    pres = spec["presentation"]
    variables = pres["variables"]
    ring = load_ring_spec(conftest.fixture_path(name))
    expected = _monomial_betti([_exponents(g, variables) for g in pres["ideal"]],
                               pres.get("weights", [1] * len(variables)),
                               ring.field.characteristic)
    assert _engine_tables(ring) == (expected, expected)


@pytest.mark.parametrize("name", _fixtures("semigroup"))
def test_semigroup_fixture_matches_squarefree_divisor_complexes(name):
    ring = load_ring_spec(conftest.fixture_path(name))
    expected = _semigroup_betti(_spec(name)["presentation"]["generators"],
                                ring.field.characteristic)
    assert _engine_tables(ring) == (expected, expected)


# The 6-vertex real projective plane: every edge lies on two of its ten
# triangles, and H~_1 = Z/2, so its Stanley-Reisner ring has Betti
# numbers that depend on the characteristic.  The Artinian ring adds the
# squares of the variables to the ten minimal non-faces.
RP2_TRIANGLES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
RP2_VARIABLES = ["a", "b", "c", "d", "e", "f"]


def _rp2_ring(field):
    ideal = ["%s^2" % v for v in RP2_VARIABLES] + [
        "*".join(RP2_VARIABLES[j] for j in t)
        for t in itertools.combinations(range(6), 3) if t not in RP2_TRIANGLES]
    return make_artinian_quotient(PolyContext(field, RP2_VARIABLES), ideal), ideal


def test_rp2_triangulation():
    edges = collections.Counter(
        e for t in RP2_TRIANGLES for e in itertools.combinations(t, 2))
    assert len(edges) == 15 and set(edges.values()) == {2}
    faces = [()] + [(v,) for v in range(6)] + list(edges) + RP2_TRIANGLES
    assert _reduced_homology(faces, 2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert _reduced_homology(faces, 3) == {-1: 0, 0: 0, 1: 0, 2: 0}


@pytest.mark.parametrize("p, entries", [(2, (26, 16)), (3, (25, 15))])
def test_rp2_ring_betti_table_depends_on_the_characteristic(p, entries):
    ring, ideal = _rp2_ring(PrimeField(p))
    expected = _monomial_betti([_exponents(g, RP2_VARIABLES) for g in ideal],
                               [1] * 6, p)
    assert (expected[(3, 3)], expected[(4, 2)]) == entries
    assert _engine_tables(ring) == (expected, expected)


@st.composite
def monomial_ideals(draw):
    """Pure powers of 2-4 weighted variables plus random monomials of degree >= 2."""
    n = draw(st.integers(min_value=2, max_value=4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    powers = draw(st.lists(st.integers(2, 4 if n < 4 else 3), min_size=n, max_size=n))
    gens = [[a if j == i else 0 for j in range(n)] for i, a in enumerate(powers)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        g = [draw(st.integers(0, a - 1)) for a in powers]
        if sum(g) >= 2:
            gens.append(g)
    field = draw(st.sampled_from([GF2, PrimeField(3), QQ]))
    return field, weights, gens


@given(monomial_ideals())
@settings(max_examples=25, deadline=None)
def test_random_monomial_quotients_match_upper_koszul_complexes(drawn):
    field, weights, gens = drawn
    variables = "xyzw"[:len(weights)]
    ring = make_artinian_quotient(
        PolyContext(field, variables, weights),
        ["*".join("%s^%d" % (v, e) for v, e in zip(variables, g) if e) for g in gens])
    expected = _monomial_betti(gens, weights, field.characteristic)
    assert _engine_tables(ring) == (expected, expected)


@st.composite
def numerical_semigroups(draw):
    """3-5 minimal generators below 30 with gcd 1: a drawn set without its redundant members."""
    gens = []
    for g in sorted(draw(st.sets(st.integers(2, 29), min_size=3, max_size=6))):
        reach = [True] + [False] * g  # sums of the smaller generators kept
        for m in range(1, g + 1):
            reach[m] = any(m >= h and reach[m - h] for h in gens)
        if not reach[g]:
            gens.append(g)
    assume(3 <= len(gens) <= 5 and math.gcd(*gens) == 1)
    return gens


@given(numerical_semigroups(), st.sampled_from([GF2, PrimeField(3), QQ]))
@settings(max_examples=25, deadline=None)
def test_random_semigroup_rings_match_squarefree_divisor_complexes(gens, field):
    expected = _semigroup_betti(gens, field.characteristic)
    assert _engine_tables(SemigroupRing(field, gens)) == (expected, expected)
