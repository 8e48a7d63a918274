"""Koszul complex: differential, products, homology, Betti numbers."""

import collections
import hashlib
import json
import os
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszulalg import exactalg
from koszulalg.cli import load_ring_spec, main
from koszulalg.exactalg import GF2, QQ, PrimeField
from koszulalg.gring import (
    ArtinianQuotient,
    RingConstructionError,
    SemigroupRing,
    make_artinian_quotient,
)
from koszulalg.koszul import (
    KoszulComplex,
    NotACycleError,
    betti_table,
    class_of,
    contract,
    differential,
    h1_from_relations,
    homology_basis,
    homology_product,
    product_vanishing,
    representative,
    strand_ranks,
    wedge,
)
from koszulalg.polyring import PolyContext

import conftest
from test_gring import artinian_ideals


def _dims(K):
    return [homology_basis(K, i).dim for i in range(K.n + 1)]


def _random_element(K, i, rnd):
    """Random homologically homogeneous element of K_i."""
    data = {}
    for d in range(K.truncation + 1):
        _, total = K.strand_offsets(i, d)
        if total == 0:
            continue
        vec = [K.field.from_int(rnd.draw(st.integers(-3, 3))) for _ in range(total)]
        u = K.vector_to_element(i, d, vec)
        for key, val in u.data.items():
            data[key] = data.get(key, K.ring.zero()) + val
    return K.element(data)


@given(st.data(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_differential_squares_to_zero(data, i):
    K = conftest.build_q_complex()
    u = _random_element(K, i, data)
    assert differential(differential(u)).is_zero()


@given(st.data(), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_leibniz_rule(data, i, j):
    K = conftest.build_q_complex()
    u = _random_element(K, i, data)
    v = _random_element(K, j, data)
    lhs = differential(wedge(u, v))
    rhs = wedge(differential(u), v)
    if i % 2 == 1:
        rhs = rhs - wedge(u, differential(v))
    else:
        rhs = rhs + wedge(u, differential(v))
    assert lhs == rhs


@given(st.data(), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_graded_anticommutativity(data, i, j):
    K = conftest.build_q_complex()
    u = _random_element(K, i, data)
    v = _random_element(K, j, data)
    vu = wedge(v, u)
    if (i * j) % 2 == 1:
        vu = -vu
    assert wedge(u, v) == vu


@given(st.data(), st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_contraction_anticommutes_with_differential(data, i, g):
    K = conftest.build_q_complex()
    u = _random_element(K, i, data)
    assert contract(differential(u), g) == -differential(contract(u, g))


def test_contraction_signs_explicit():
    K = conftest.build_q_complex()
    e = [K.generator_element(j) for j in range(3)]
    e123 = wedge(e[0], wedge(e[1], e[2]))
    assert contract(e123, 0) == wedge(e[1], e[2])
    assert contract(e123, 1) == -wedge(e[0], e[2])
    assert contract(e123, 2) == wedge(e[0], e[1])
    assert contract(wedge(e[0], e[2]), 1).is_zero()


def test_wedge_signs_explicit():
    K = conftest.build_q_complex()
    e = [K.generator_element(j) for j in range(3)]
    e12 = wedge(e[0], e[1])
    assert str(e12) == "(1)*e1e2"
    assert wedge(e[1], e[0]) == -e12
    e13 = wedge(e[0], e[2])
    # moving e2 past e1 costs one transposition
    assert wedge(e[1], e13) == -wedge(e[0], wedge(e[1], e[2]))
    assert wedge(e[0], e12).is_zero()


def test_differential_on_generators():
    K = conftest.build_q_complex()
    R = K.ring
    e1 = K.generator_element(0)
    assert differential(e1) == K.element({(): R.generator(0)})
    e12 = wedge(e1, K.generator_element(1))
    d12 = differential(e12)
    x, y = R.generator(0), R.generator(1)
    assert d12 == K.element({(1,): x, (0,): -y})


def test_homology_dims_ci(K_ci):
    assert _dims(K_ci) == [1, 2, 1]


def test_homology_dims_q(K_q):
    # tensor factorization: [1,3,2] for k[x,y]/m^2 times [1,1] for k[z]/z^2
    assert _dims(K_q) == [1, 4, 5, 2]


def test_homology_dims_weighted(K_weighted):
    assert _dims(K_weighted) == [1, 2, 1]


def test_homology_dims_golod():
    K = KoszulComplex(conftest.golod_ring())
    assert _dims(K) == [1, 3, 2]


def test_homology_dims_aci(K_aci):
    # four-generator semigroup, codepth 3: top strand vanishes
    assert _dims(K_aci) == [1, 4, 5, 2, 0]


def test_homology_dims_gorenstein(K_gorenstein):
    assert _dims(K_gorenstein) == [1, 7, 12, 7, 1, 0]


def test_homology_degrees_weighted(K_weighted):
    # H_1 sits in the degrees of the two relations; H_2 is the shifted socle
    b1 = homology_basis(K_weighted, 1)
    assert b1.degrees() == [6, 9]
    b2 = homology_basis(K_weighted, 2)
    assert b2.degrees() == [15]


def test_max_ideal_kills_homology(K_q):
    R = K_q.ring
    basis = homology_basis(K_q, 1)
    for cls in basis.classes:
        for j in range(R.ngens):
            moved = cls.element.coeff_mul(R.generator(j))
            coords = class_of(K_q, 1, moved)
            assert all(c == K_q.field.zero for c in coords)


def test_class_of_well_defined(K_q):
    b = homology_basis(K_q, 1)
    z = b.classes[0].element
    # adding a boundary must not change the class
    w = wedge(K_q.generator_element(0), K_q.generator_element(2))
    z2 = z + differential(w.coeff_mul(K_q.ring.generator(1)))
    assert class_of(K_q, 1, z) == class_of(K_q, 1, z2)


def test_class_of_rejects_non_cycles(K_q):
    from koszulalg.koszul import NotACycleError
    e1 = K_q.generator_element(0)
    with pytest.raises(NotACycleError):
        class_of(K_q, 1, e1)


def test_representative_round_trip(K_q):
    b = homology_basis(K_q, 2)
    coords = [K_q.field.from_int(k) for k in (1, 0, -2, 0, 3)]
    z = representative(K_q, 2, coords)
    assert class_of(K_q, 2, z) == coords


def test_product_vanishing_ci(K_ci):
    # complete intersection: exterior algebra on H_1, so H_1 * H_1 = H_2
    assert product_vanishing(K_ci, 1, 1) is False
    assert product_vanishing(K_ci, 1, 2) is True


def test_product_structure_ci(K_ci):
    f = K_ci.field
    u1 = [f.one, f.zero]
    u2 = [f.zero, f.one]
    p = homology_product(K_ci, 1, u1, 1, u2)
    assert p != [f.zero] * len(p)
    sq = homology_product(K_ci, 1, u1, 1, u1)
    assert all(c == f.zero for c in sq)
    # H_3 = 0 when n = 2: the product has no coordinates
    assert homology_product(K_ci, 1, u1, 2, [f.one]) == []


def test_product_vanishing_golod():
    K = KoszulComplex(conftest.golod_ring())
    assert product_vanishing(K, 1, 1) is True


def test_betti_rank_only_matches_full(K_ci, K_q, K_weighted, K_aci):
    for K in (K_ci, K_q, K_weighted, K_aci):
        assert betti_table(K, rank_only=True) == betti_table(K)


# ------------------------------------------- closed-form ranks of d_1, d_2


def _strand_oracle(K):
    """Every d_i ranked by sparse_rank on its assembled strand triplets."""
    out = {}
    for d in range(K.truncation + 1):
        for i in range(1, K.n + 1):
            src, dst = K.strand_dim(i, d), K.strand_dim(i - 1, d)
            if src and dst:
                out[(i, d)] = exactalg.sparse_rank(
                    K.field, dst, src, K.diff_triplets(i, d))
    return out


def _h1_dims_by_degree(K):
    dims = {}
    for cls in homology_basis(K, 1).classes:
        dims[cls.degree] = dims.get(cls.degree, 0) + 1
    return dims


def _every_fixture_but_x98():
    return sorted(
        name for name in os.listdir(conftest.FIXTURES)
        if name.endswith(".json") and name != "f2_big_x98.json")


@pytest.mark.parametrize("name", _every_fixture_but_x98())
def test_closed_form_ranks_match_strands_on_fixtures(name):
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    assert strand_ranks(K) == _strand_oracle(K)
    if isinstance(K.ring, ArtinianQuotient):
        assert K.ring.minimal_generator_counts() == _h1_dims_by_degree(K)


@given(artinian_ideals())
@settings(max_examples=40, deadline=None)
def test_closed_form_ranks_match_strands_on_random_rings(ideal):
    ctx, gens = ideal
    K = KoszulComplex(ArtinianQuotient(ctx, gens))
    assert strand_ranks(K) == _strand_oracle(K)
    assert K.ring.minimal_generator_counts() == _h1_dims_by_degree(K)
    assert betti_table(K, rank_only=True) == betti_table(K)


@pytest.mark.parametrize("weights, counts", [
    ([1, 1, 1], {2: 2, 3: 2}),
    ([1, 1, 2], {2: 2, 4: 2}),
], ids=["standard", "weighted"])
def test_minimal_generator_counts_skip_redundant_generators(weights, counts):
    # x^2 + y^2 depends on x^2 and y^2; x^3 and x^2*z - y^2*z lie in mI;
    # x*y*z + z^c depends on x*y*z and z^c; 0 counts for nothing
    c = 3 if weights[2] == 1 else 2
    ctx = PolyContext(PrimeField(3), ["x", "y", "z"], weights)
    K = KoszulComplex(make_artinian_quotient(ctx, [
        "x^2", "x^2 + y^2", "y^2", "0", "x^3", "x*y*z", "z^%d" % c,
        "x^2*z - y^2*z", "x*y*z + z^%d" % c]))
    assert K.ring.minimal_generator_counts() == counts
    assert _h1_dims_by_degree(K) == counts
    assert strand_ranks(K) == _strand_oracle(K)
    assert betti_table(K, rank_only=True) == betti_table(K)


class _Strand(list):
    """Triplets of one strand, tagged with its (i, d)."""


def _record_ranked_strands(monkeypatch):
    ranked = []
    assemble = KoszulComplex.diff_triplets
    sparse_rank = exactalg.sparse_rank

    def tagged(self, i, d):
        out = _Strand(assemble(self, i, d))
        out.strand = (i, d)
        return out

    def record(field, nrows, ncols, entries):
        ranked.append(entries.strand)
        return sparse_rank(field, nrows, ncols, entries)

    monkeypatch.setattr(KoszulComplex, "diff_triplets", tagged)
    monkeypatch.setattr(exactalg, "sparse_rank", record)
    return ranked


def test_rank_only_quotient_ranks_no_low_strand(monkeypatch):
    K = KoszulComplex(conftest.q_ring())
    ranked = _record_ranked_strands(monkeypatch)
    betti_table(K, rank_only=True)
    assert ranked and min(i for i, _ in ranked) == 3


def test_rank_only_semigroup_still_ranks_d2(monkeypatch):
    K = KoszulComplex(conftest.semigroup_6101415())
    ranked = _record_ranked_strands(monkeypatch)
    betti_table(K, rank_only=True)
    assert min(i for i, _ in ranked) == 2
    assert any(i == 2 for i, _ in ranked)


def test_betti_threaded_matches_serial(K_q):
    assert betti_table(K_q, rank_only=True, threads=3) == betti_table(K_q)


def test_threads_bound_starts_no_thread(K_q, monkeypatch, capsys):
    def refuse(self):
        raise RuntimeError("the engine started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert betti_table(K_q, rank_only=True, threads=4) == betti_table(K_q)
    code = main(["betti", "--slow", "--threads", "4",
                 "--ring", conftest.fixture_path("q_x2_xy_y2_z2.json")])
    assert code == 0
    assert capsys.readouterr().out


def test_betti_table_values(K_q):
    t = betti_table(K_q)
    assert t.rank(0, 0) == 1
    assert t.rank(1, 1) == 4          # four quadric relations: degree 2, row 1
    assert t.rank(2, 1) == 2
    assert t.rank(2, 2) == 3
    assert t.column_total(2) == 5
    assert t.pdim == 3
    assert t.regularity == 2          # H_3 sits in degree 5 = 3 + 2
    js = t.to_json()
    assert js["rows"]["1"] == [0, 4, 2, 0]
    assert js["rows"]["2"] == [0, 0, 3, 2]
    assert js["pdim"] == 3


def test_h1_from_relations_q(K_q):
    rep = h1_from_relations(K_q)
    assert rep["all_cycles"] is True
    assert rep["minimal"] is True
    assert rep["dim_h1"] == 4


def test_h1_from_relations_weighted(K_weighted):
    rep = h1_from_relations(K_weighted)
    assert rep["minimal"] is True
    assert rep["dim_h1"] == 2


def test_h1_from_relations_semigroup_rejected(K_aci):
    with pytest.raises(ValueError):
        h1_from_relations(K_aci)


def test_homology_basis_range_check(K_ci):
    with pytest.raises(ValueError):
        homology_basis(K_ci, -1)
    with pytest.raises(ValueError):
        homology_basis(K_ci, 5)


def test_strand_dimension_formula(K_weighted):
    # dim K_i in degree d = sum over i-subsets S of dim R_{d - w(S)}
    R = K_weighted.ring
    import itertools
    for i in range(3):
        for d in range(K_weighted.truncation + 1):
            expect = 0
            for S in itertools.combinations(range(2), i):
                expect += R.dim(d - K_weighted.subset_weight(S))
            assert K_weighted.strand_dim(i, d) == expect


def test_element_vector_round_trip(K_weighted):
    for i in range(3):
        for d in range(K_weighted.truncation + 1):
            _, total = K_weighted.strand_offsets(i, d)
            if total == 0:
                continue
            vec = [K_weighted.field.from_int((k * 7 + 3) % 2) for k in range(total)]
            u = K_weighted.vector_to_element(i, d, vec)
            assert K_weighted.strand_vectors(i, u) == {d: vec}


def test_semigroup_vanishing_window_clean(K_aci):
    # all strands at and above the exactness floor must be exact
    for i in range(K_aci.n + 1):
        basis = homology_basis(K_aci, i)
        for d in basis.degrees():
            assert d < K_aci.exactness_floor


# ------------------------------------------------- cached strand solvers

def _boundary_rows(K, i, d):
    """Canonical basis (rref rows) of B_{i,d} from the dense columns of d_{i+1}."""
    if i + 1 > K.n:
        return []
    _, src = K.strand_offsets(i + 1, d)
    _, dst = K.strand_offsets(i, d)
    if src == 0 or dst == 0:
        return []
    m = K.diff_matrix(i + 1, d)
    cols = [m.column(j) for j in range(m.ncols)]
    red, pivots = exactalg.rref(exactalg.Matrix(K.field, cols, dst))
    return [red.rows[t] for t in range(len(pivots))]


def _strand_boundary_vectors(K, i, d, data):
    """The untagged rows of a strand's echelon as dense vectors."""
    F = K.field
    out = []
    for _, cols, vals, _ in data.boundary_rows():
        v = [F.zero] * K.strand_dim(i, d)
        for j, a in zip(cols, vals):
            v[j] = a
        out.append(v)
    return out


def _assert_boundaries_match_rref(K):
    F = K.field
    for i in range(K.n + 1):
        basis = homology_basis(K, i)
        for d in range(K.truncation + 1):
            expected = _boundary_rows(K, i, d)
            data = basis.degree_data.get(d)
            if data is None:
                # no strand data: Z_{i,d} = 0, so B_{i,d} = 0
                assert expected == []
                continue
            rows = _strand_boundary_vectors(K, i, d, data)
            assert len(rows) == len(expected)
            if rows:
                red, pivots = exactalg.rref(
                    exactalg.Matrix(F, rows, K.strand_dim(i, d)))
                assert red.rows[:len(pivots)] == expected


def _reference_class_of(K, i, z):
    """class_of as a fresh solve per strand: d(z) = 0, then coords_in_span."""
    if not differential(z).is_zero():
        raise NotACycleError("class_of received a non-cycle")
    basis = homology_basis(K, i)
    coords = [K.field.zero] * basis.dim
    for d, vec in K.strand_vectors(i, z).items():
        data = basis.degree_data.get(d)
        if d > K.truncation or data is None:
            continue
        boundary = _strand_boundary_vectors(K, i, d, data)
        sol = exactalg.coords_in_span(
            vec, boundary + data.rep_vectors, K.field)
        for t, idx in enumerate(data.class_indices):
            coords[idx] = K.field.add(coords[idx], sol[len(boundary) + t])
    return coords


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotACycleError:
        return NotACycleError


def _scalar(F, rnd):
    if F.characteristic == 0:
        return F.from_fraction(rnd.randint(-3, 3), rnd.choice([1, 2, 3]))
    return F.from_int(rnd.randrange(F.characteristic))


def _combination(F, coeffs, vectors, total):
    out = [F.zero] * total
    for c, v in zip(coeffs, vectors):
        for t, a in enumerate(v):
            out[t] = F.add(out[t], F.mul(c, a))
    return out


@st.composite
def small_rings(draw):
    """Random Artinian quotients and semigroup rings over F2, F3 and Q."""
    if draw(st.booleans()):
        ctx, gens = draw(artinian_ideals())
        return ArtinianQuotient(ctx, gens)
    field = draw(st.sampled_from([GF2, PrimeField(3), QQ]))
    generators = draw(st.lists(st.integers(min_value=2, max_value=9),
                               min_size=2, max_size=4, unique=True))
    try:
        return SemigroupRing(field, generators)
    except RingConstructionError:
        assume(False)


@given(small_rings(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_strand_solver_matches_coords_in_span(ring, rnd):
    K = KoszulComplex(ring)
    F = K.field
    for i in range(K.n + 1):
        basis = homology_basis(K, i)
        cycle = K.zero_element()
        for d, data in sorted(basis.degree_data.items()):
            boundary = _strand_boundary_vectors(K, i, d, data)
            span = boundary + data.rep_vectors
            total = len(span[0])
            nb = len(boundary)
            # a random cycle: boundaries plus representatives
            coeffs = [_scalar(F, rnd) for _ in span]
            vec = _combination(F, coeffs, span, total)
            assert exactalg.coords_in_span(vec, span, F) == coeffs
            assert data.rep_coords(vec) == coeffs[nb:]
            # a random strand vector, inside the cycle space or not
            other = [_scalar(F, rnd) for _ in range(total)]
            sol = exactalg.coords_in_span(other, span, F)
            assert data.rep_coords(other) == (
                None if sol is None else sol[nb:])
            cycle = cycle + K.vector_to_element(i, d, vec)
        assert class_of(K, i, cycle) == _reference_class_of(K, i, cycle)
        if i > 0 and rnd.random() < 0.5:
            u = _random_chain(K, i, rnd)
            mixed = cycle + u
            assert _outcome(class_of, K, i, mixed) == _outcome(
                _reference_class_of, K, i, mixed)


@pytest.mark.parametrize("name", _every_fixture_but_x98())
def test_strand_boundaries_match_rref_of_columns(name):
    _assert_boundaries_match_rref(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))))


@given(small_rings())
@settings(max_examples=40, deadline=None)
def test_strand_boundaries_match_rref_of_columns_on_random_rings(ring):
    _assert_boundaries_match_rref(KoszulComplex(ring))


@pytest.mark.parametrize("name", _every_fixture_but_x98())
def test_homology_assembles_each_strand_once(name, monkeypatch):
    # one pass over internal degrees: the triplets of d_i give the kernel
    # of H_i and the boundaries of H_{i-1}
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    calls = collections.Counter()
    assemble = KoszulComplex.diff_triplets

    def counted(self, i, d):
        calls[(i, d)] += 1
        return assemble(self, i, d)

    monkeypatch.setattr(KoszulComplex, "diff_triplets", counted)
    for i in range(K.n + 1):
        homology_basis(K, i)
    assert calls and max(calls.values()) == 1


def _random_chain(K, i, rnd):
    """A random element of K_i in one random internal degree (often no cycle)."""
    degrees = [d for d in range(K.truncation + 1) if K.strand_dim(i, d)]
    d = rnd.choice(degrees)
    vec = [_scalar(K.field, rnd) for _ in range(K.strand_dim(i, d))]
    return K.vector_to_element(i, d, vec)


def test_class_of_rejects_non_cycle_in_recorded_degree(K_q):
    # z*e1 lies in internal degree 2, where H_1 lives; d(z*e1) = xz != 0
    R = K_q.ring
    u = K_q.element({(0,): R.generator(2)})
    assert 2 in homology_basis(K_q, 1).degree_data
    with pytest.raises(NotACycleError, match="class_of received a non-cycle"):
        class_of(K_q, 1, u)


def test_class_of_rejects_component_where_no_cycles_exist(K_q):
    # strand (1, 1) is R_0 e_1 + R_0 e_2 + R_0 e_3 and injects into R_1
    assert 1 not in homology_basis(K_q, 1).degree_data
    with pytest.raises(NotACycleError, match="class_of received a non-cycle"):
        class_of(K_q, 1, K_q.generator_element(0))


def test_class_of_checks_components_past_truncation(K_aci):
    R = K_aci.ring
    shift = K_aci.truncation
    # t^(s+15) e1 - t^(s+6) e4 is a cycle in degree s + 21 > truncation
    cycle = K_aci.element({
        (0,): R.parse_element("t^%d" % (shift + 15)),
        (3,): -R.parse_element("t^%d" % (shift + 6)),
    })
    assert differential(cycle).is_zero()
    h1 = homology_basis(K_aci, 1)
    assert class_of(K_aci, 1, cycle) == [K_aci.field.zero] * h1.dim
    # alone, t^(s+15) e1 has differential t^(s+21) != 0
    broken = K_aci.element({(0,): R.parse_element("t^%d" % (shift + 15))})
    with pytest.raises(NotACycleError, match="class_of received a non-cycle"):
        class_of(K_aci, 1, broken)
    # a cycle in a recorded degree plus that broken part is still rejected
    z = h1.classes[0].element + broken
    with pytest.raises(NotACycleError):
        class_of(K_aci, 1, z)


@pytest.mark.parametrize("name", [
    "f2_semigroup_3_4_5.json", "f2_semigroup_6_10_14_15.json",
    "f2_semigroup_9_10_11_13_17.json", "semigroup_regular.json"])
def test_differential_repeats_past_exactness_floor(name):
    # class_of checks components past the truncation with the floor's d_i
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    floor = K.exactness_floor
    for i in range(K.n + 1):
        expected = sorted(K.diff_triplets(i, floor))
        for d in (floor + 1, floor + 7, 2 * floor + 3):
            assert sorted(K.diff_triplets(i, d)) == expected


GOLDEN = os.path.join(os.path.dirname(__file__), "..", "bench",
                      "golden_fixtures.json")


def _golden_outputs():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# the lift file the benchmark pairs with each fixture for lift-action
GOLDEN_LIFTS = {
    "f2_identity_false": "lift_identity_false_e1_ze3.txt",
    "f2_semigroup_6_10_14_15": "lift_6101415_e1.txt",
    "f2_semigroup_9_10_11_13_17": "lift_910111317_e5.txt",
    "q_x2_xy_y2_z2": "lift_q_e1_ze3.txt",
}


@pytest.mark.parametrize("key", sorted(_golden_outputs()))
def test_gr_and_order_outputs_match_golden(key, capsys):
    """Every command on every fixture, byte for byte against the golden digests.

    Covers betti, homology, products, check-identity, lift-action, order,
    gr and suite: all keys of bench/golden_fixtures.json.
    """
    cmd, name = key.split()
    argv = [cmd, "--ring", conftest.fixture_path(name + ".json"),
            "--json", "--threads", "1"]
    if cmd == "lift-action":
        argv += ["--lift", conftest.fixture_path(GOLDEN_LIFTS[name])]
    code = main(argv)
    out = capsys.readouterr().out
    expect = _golden_outputs()[key]
    assert code == expect["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expect["sha256"]
