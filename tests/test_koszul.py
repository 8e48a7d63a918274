"""Koszul complex: differential, products, homology, Betti numbers."""

import collections
import hashlib
import itertools
import json
import os
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszulalg import exactalg, gring, koszul, polyring
from koszulalg.analyze import ring_order
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
        u = K.vector_to_element(i, d, conftest.sparse(vec))
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
    z = conftest.representative(K_q, 2, coords)
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
    """Every d_i ranked by sparse_rank on its reference strand (conftest.reference_strand)."""
    out = {}
    for d in range(K.truncation + 1):
        for i in range(1, K.n + 1):
            src, dst = K.strand_dim(i, d), K.strand_dim(i - 1, d)
            if src and dst:
                out[(i, d)] = exactalg.sparse_rank(
                    K.field, dst, src, conftest.reference_strand(K, i, d))
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


def _batch_cap_rings():
    rings = [(name, load_ring_spec(conftest.fixture_path(name)))
             for name in _every_fixture_but_x98()]
    rings += [("semigroup_6101415_Q", conftest.semigroup_6101415(QQ)),
              ("semigroup_6101415_F3", conftest.semigroup_6101415(PrimeField(3))),
              ("semigroup_910111317", conftest.semigroup_910111317())]
    return rings


@pytest.mark.parametrize("cap", [0, 40])
def test_batch_cap_does_not_change_ranks(monkeypatch, cap):
    # cap 0 ranks one strand per batch, 40 a few small strands per batch
    default = {name: strand_ranks(KoszulComplex(ring))
               for name, ring in _batch_cap_rings()}
    monkeypatch.setattr(koszul, "BATCH_COLUMNS", cap)
    for name, ring in _batch_cap_rings():
        assert strand_ranks(KoszulComplex(ring)) == default[name], name


@given(artinian_ideals(), st.sampled_from([0, 7]))
@settings(max_examples=30, deadline=None)
def test_batch_cap_does_not_change_ranks_on_random_rings(ideal, cap):
    ctx, gens = ideal
    K = KoszulComplex(ArtinianQuotient(ctx, gens))
    default = strand_ranks(K)
    saved = koszul.BATCH_COLUMNS
    koszul.BATCH_COLUMNS = cap
    try:
        assert strand_ranks(K) == default
    finally:
        koszul.BATCH_COLUMNS = saved


@pytest.mark.parametrize("ring, first", [
    (conftest.q_ring, 3), (conftest.semigroup_6101415, 2)], ids=["quotient", "semigroup"])
def test_default_batch_covers_every_strand_of_d_i_at_once(monkeypatch, ring, first):
    K = KoszulComplex(ring())
    calls = []
    assemble = KoszulComplex.diff_triplets

    def record(self, i, d, stop=None):
        calls.append((i, stop))
        return assemble(self, i, d, stop)

    monkeypatch.setattr(KoszulComplex, "diff_triplets", record)
    strand_ranks(K)
    assert [i for i, _ in calls] == list(range(first, K.n + 1))
    assert all(stop is not None for _, stop in calls)


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


@pytest.mark.parametrize("field", [GF2, PrimeField(3), QQ], ids=["F2", "F3", "Q"])
def test_generator_in_mI_through_a_same_degree_s_pair_is_not_counted(field):
    # y^3 = y*(x^2 + y^2) - x*(x*y) lies in mI, but only the S-pair of the
    # two quadrics, whose lcm x^2*y has degree 3, shows it
    K = KoszulComplex(make_artinian_quotient(
        PolyContext(field, ["x", "y"]), ["x*y", "x^2 + y^2", "y^3"]))
    assert K.ring.minimal_generator_counts() == {2: 2}
    assert _h1_dims_by_degree(K) == {2: 2}
    assert betti_table(K, rank_only=True) == betti_table(K)


def test_counts_need_no_groebner_run_after_the_ring_is_built(monkeypatch):
    ctx = PolyContext(PrimeField(3), ["x", "y", "z"])
    K = KoszulComplex(make_artinian_quotient(ctx, [
        "x^2", "x^2 + y^2", "y^2", "x^3", "x*y*z", "z^3", "x^2*z - y^2*z"]))

    def refuse(gens):
        raise AssertionError("a Groebner run after the ring build")

    monkeypatch.setattr(polyring, "buchberger", refuse)
    monkeypatch.setattr(gring, "buchberger", refuse)
    assert strand_ranks(K) == _strand_oracle(K)
    assert ring_order(K) == 2


class _Strands(list):
    """Triplets of a batch of strands, tagged with the (i, d) it covers."""


def _record_ranked_strands(monkeypatch):
    ranked = []
    assemble = KoszulComplex.diff_triplets
    sparse_rank = exactalg.sparse_rank

    def tagged(self, i, d, stop=None):
        out = _Strands(assemble(self, i, d, stop))
        out.strands = [(i, e) for e in range(d, d + 1 if stop is None else stop)]
        return out

    def record(field, nrows, ncols, entries, blocks=None):
        ranked.extend(entries.strands)
        return sparse_rank(field, nrows, ncols, entries, blocks)

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


# three generic cubics in x, y, z over F32003: a complete intersection
GENERIC_CUBICS = [
    "7*x^3 + 7*x^2*y + x^2*z + 5*x*y^2 + 9*x*y*z + 8*x*z^2 + 7*y^3 + 5*y^2*z + 8*y*z^2 + 6*z^3",
    "4*x^3 + 9*x^2*y + 3*x^2*z + 5*x*y^2 + 3*x*y*z + 2*x*z^2 + 5*y^3 + 9*y^2*z + 3*y*z^2 + 5*z^3",
    "2*x^3 + 2*x^2*y + 6*x^2*z + 8*x*y^2 + 9*x*y*z + 2*x*z^2 + 6*y^3 + 7*y^2*z + 6*y*z^2 + 4*z^3",
]


def test_rank_only_generic_cubics_run_the_dense_core(monkeypatch):
    # peeling leaves a core in three strands of d_3, each ranked by the
    # dense int64 kernel; no other test sends an F32003 core through it
    K = KoszulComplex(make_artinian_quotient(
        PolyContext(PrimeField(32003), ["x", "y", "z"]), GENERIC_CUBICS))
    cores = []
    core_rank = exactalg._core_rank

    def count(field, r, c, vals):
        cores.append(r.size)
        return core_rank(field, r, c, vals)

    monkeypatch.setattr(exactalg, "_core_rank", count)
    table = betti_table(K, rank_only=True)
    assert len(cores) == 3 and all(cores)
    assert table == betti_table(K)
    assert table.rows() == {0: [1, 0, 0, 0], 2: [0, 3, 0, 0],
                            4: [0, 0, 3, 0], 6: [0, 0, 0, 1]}


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


def test_element_vector_round_trip(K_weighted):
    for i in range(3):
        for d in range(K_weighted.truncation + 1):
            _, total = K_weighted.strand_offsets(i, d)
            if total == 0:
                continue
            vec = conftest.sparse(
                [K_weighted.field.from_int((k * 7 + 3) % 2) for k in range(total)])
            u = K_weighted.vector_to_element(i, d, vec)
            assert K_weighted.strand_vectors(i, u) == {d: vec}


@pytest.mark.parametrize("position", [-1, "end"])
def test_vector_to_element_rejects_a_position_outside_the_strand(K_weighted, position):
    K, one = K_weighted, K_weighted.field.one
    for i in range(K.n + 1):
        for d in range(K.truncation + 1):
            c = K.strand_dim(i, d) if position == "end" else position
            with pytest.raises(ValueError, match="outside the strand"):
                K.vector_to_element(i, d, {0: one, c: one})


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
    m = conftest.diff_matrix(K, i + 1, d)
    cols = list(zip(*m.rows))
    red, pivots = exactalg.rref(exactalg.Matrix(K.field, cols, dst))
    return [red.rows[t] for t in range(len(pivots))]


def _cycle_dim(K, i, d):
    """dim Z_{i,d} = dim K_{i,d} - rank d_{i,d}, from the dense matrix of d_i."""
    total = K.strand_dim(i, d)
    if i == 0 or total == 0:
        return total
    return total - exactalg.rank(conftest.diff_matrix(K, i, d))


def _assert_boundaries_match_rref(K):
    F = K.field
    for i in range(K.n + 1):
        basis = homology_basis(K, i)
        for d in range(K.truncation + 1):
            expected = _boundary_rows(K, i, d)
            data = basis.degree_data.get(d)
            if data is None:
                # no record: the strand holds no class, so B_{i,d} = Z_{i,d}
                assert len(expected) == _cycle_dim(K, i, d)
                continue
            assert data.rep_vectors
            # the kept columns of d_{i+1} are a basis of B_{i,d}
            columns = [conftest.dense(F, K.strand_dim(i, d), c) for c in data.boundary]
            assert len(columns) == len(expected)
            if columns:
                red, pivots = exactalg.rref(
                    exactalg.Matrix(F, columns, K.strand_dim(i, d)))
                assert red.rows[:len(pivots)] == expected


def _dense(K, i, d, vec):
    return conftest.dense(K.field, K.strand_dim(i, d), vec)


def _dense_reps(K, i, d, data):
    return [_dense(K, i, d, v) for v in data.rep_vectors]


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
        boundary = _boundary_rows(K, i, d)
        sol = exactalg.coords_in_span(
            _dense(K, i, d, vec), boundary + _dense_reps(K, i, d, data), K.field)
        for t, idx in enumerate(data.class_indices):
            coords[idx] = K.field.add(coords[idx], sol[len(boundary) + t])
    return coords


def _forward_search(K, i, d):
    """Representatives of the strand (i, d) by the search the engine replaced.

    The canonical kernel vectors of d_i are taken in order; one outside
    the span of B_{i,d} and the representatives so far is the next
    representative.  None if Z_{i,d} = 0.
    """
    F = K.field
    total = K.strand_dim(i, d)
    if total == 0:
        return None
    if i == 0:
        kernel = [exactalg.unit_vector(F, total, s) for s in range(total)]
    else:
        kernel = exactalg.kernel_basis(conftest.diff_matrix(K, i, d))
    if not kernel:
        return None
    boundary = _boundary_rows(K, i, d)
    reps = []
    for v in kernel:
        if exactalg.coords_in_span(v, boundary + reps, F) is None:
            reps.append(v)
    return reps


def _forward_class_of(K, i, z, searches):
    """class_of against the forward search's representatives.

    A strand component outside the span of B_{i,d} and the
    representatives is no cycle; inside it, its coefficients on the
    representatives are the coordinates.
    """
    F = K.field
    first, count = {}, 0  # index of each strand's first class
    for d in range(K.truncation + 1):
        first[d] = count
        count += len(searches[(i, d)] or ())
    coords = [F.zero] * count
    for d, vec in K.strand_vectors(i, z).items():
        d = min(d, K.truncation)  # past it only semigroup rings, at the floor
        boundary = _boundary_rows(K, i, d)
        sol = exactalg.coords_in_span(
            _dense(K, i, d, vec), boundary + (searches[(i, d)] or []), F)
        if sol is None:
            raise NotACycleError("class_of received a non-cycle")
        for t, c in enumerate(sol[len(boundary):]):
            coords[first[d] + t] = F.add(coords[first[d] + t], c)
    return coords


def _assert_matches_forward_search(K, rnd):
    """Representatives, labels and class_of equal the forward search's."""
    searches = {(i, d): _forward_search(K, i, d)
                for i in range(K.n + 1) for d in range(K.truncation + 1)}
    F = K.field
    for i in range(K.n + 1):
        forward = [(d, K.vector_to_element(i, d, conftest.sparse(v)))
                   for d in range(K.truncation + 1) if searches[(i, d)]
                   for v in searches[(i, d)]]
        basis = homology_basis(K, i)
        assert [(c.degree, c.element) for c in basis.classes] == forward
        assert [c.label for c in basis.classes] == [
            "h%d.%d" % (i, t + 1) for t in range(len(forward))]
        cycle = K.zero_element()
        for d in range(K.truncation + 1):
            if searches[(i, d)] is None:
                continue
            boundary = _boundary_rows(K, i, d)
            span = boundary + searches[(i, d)]
            coeffs = [_scalar(F, rnd) for _ in span]
            vec = _combination(F, coeffs, span, K.strand_dim(i, d))
            cycle = cycle + K.vector_to_element(i, d, conftest.sparse(vec))
        chains = [cycle]
        if i > 0:
            chains.append(cycle + _random_chain(K, i, rnd))
        for z in chains:
            assert _outcome(class_of, K, i, z) == _outcome(
                _forward_class_of, K, i, z, searches)


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


def _assert_layout_is_subset_sums(K):
    # block S of the strand (i, d) has size dim R_{d - w(S)}: past the
    # truncation that is the floor's layout on a semigroup ring (every
    # R_{d - w(S)} is k) and empty on a quotient
    top = K.truncation
    for i in range(-1, K.n + 2):
        rows = []
        for d in range(-1, top + 4):
            offsets, total = [], 0
            if 0 <= i <= K.n:
                for S in itertools.combinations(range(K.n), i):
                    offsets.append(total)
                    total += K.ring.dim(d - K.subset_weight(S))
            assert K.strand_offsets(i, d) == (offsets, total)
            assert K.strand_dim(i, d) == total
            if d > top:
                assert (K.strand_offsets(i, K.exactness_floor) == (offsets, total)
                        if K.exactness_floor is not None else total == 0)
            rows.append(offsets + [total])
        assert K._layout(i, -1, top + 4).tolist() == rows


def test_strand_dimension_formula():
    for name in _every_fixture_but_x98():
        _assert_layout_is_subset_sums(
            KoszulComplex(load_ring_spec(conftest.fixture_path(name))))


@given(small_rings())
@settings(max_examples=40, deadline=None)
def test_strand_dimension_formula_on_random_rings(ring):
    _assert_layout_is_subset_sums(KoszulComplex(ring))


# ------------------------------------------ structure constants of H(K)


def _assert_contraction_descends_to_homology(K, rng):
    """ι_g^H is well defined: ι_g maps cycles to cycles and boundaries to boundaries."""
    for i in range(1, K.n + 1):
        low = homology_basis(K, i - 1).dim
        for g in range(K.n):
            for cls in homology_basis(K, i).classes:
                image = contract(cls.element, g)
                assert differential(image).is_zero(), (i, g, cls.label)
                assert K.structure.contraction(g, i, cls.index) == class_of(K, i - 1, image)
            b = conftest.random_boundary(K, i, rng)
            assert class_of(K, i - 1, contract(b, g)) == [K.field.zero] * low, (i, g)


@pytest.mark.parametrize("name", _every_fixture_but_x98())
def test_contraction_descends_to_homology_on_fixtures(name):
    _assert_contraction_descends_to_homology(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))), random.Random(name))


@given(small_rings(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_contraction_descends_to_homology_on_random_rings(ring, rnd):
    _assert_contraction_descends_to_homology(KoszulComplex(ring), rnd)


def _assert_products_match_representatives(K, rnd):
    """homology_product on the table equals the class of the wedge of two representatives."""
    F = K.field
    for i in range(K.n + 1):
        for j in range(K.n + 1 - i):
            a = [_scalar(F, rnd) for _ in range(homology_basis(K, i).dim)]
            b = [_scalar(F, rnd) for _ in range(homology_basis(K, j).dim)]
            expected = class_of(K, i + j, wedge(conftest.representative(K, i, a),
                                                conftest.representative(K, j, b)))
            product = homology_product(K, i, a, j, b)
            assert product == expected and str(product) == str(expected), (i, j)
            with pytest.raises(ValueError):
                homology_product(K, i, a + [F.one], j, b)
            with pytest.raises(ValueError):
                homology_product(K, i, a, j, b[:-1] if b else [F.one])
        assert homology_product(K, i, [], K.n + 1 - i, []) == []


@pytest.mark.parametrize("name", _every_fixture_but_x98())
def test_products_match_representatives_on_fixtures(name):
    _assert_products_match_representatives(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))), random.Random(name))


@given(small_rings(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_products_match_representatives_on_random_rings(ring, rnd):
    _assert_products_match_representatives(KoszulComplex(ring), rnd)


@given(small_rings(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_strand_solver_matches_coords_in_span(ring, rnd):
    K = KoszulComplex(ring)
    F = K.field
    for i in range(K.n + 1):
        basis = homology_basis(K, i)
        cycle = K.zero_element()
        for d, data in sorted(basis.degree_data.items()):
            boundary = _boundary_rows(K, i, d)
            span = boundary + _dense_reps(K, i, d, data)
            total = len(span[0])
            nb = len(boundary)
            # a random cycle: boundaries plus representatives
            coeffs = [_scalar(F, rnd) for _ in span]
            vec = _combination(F, coeffs, span, total)
            assert exactalg.coords_in_span(vec, span, F) == coeffs
            assert data.rep_coords(F, conftest.sparse(vec)) == coeffs[nb:]
            # a random strand vector, inside the cycle space or not; the
            # cycle check is class_of's
            other = [_scalar(F, rnd) for _ in range(total)]
            sol = exactalg.coords_in_span(other, span, F)
            if sol is None:
                with pytest.raises(NotACycleError):
                    class_of(K, i, K.vector_to_element(i, d, conftest.sparse(other)))
            else:
                assert data.rep_coords(F, conftest.sparse(other)) == sol[nb:]
            cycle = cycle + K.vector_to_element(i, d, conftest.sparse(vec))
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
def test_classes_match_forward_echelon_search(name):
    _assert_matches_forward_search(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))),
        random.Random(name))


@given(small_rings(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_classes_match_forward_echelon_search_on_random_rings(ring, rnd):
    _assert_matches_forward_search(KoszulComplex(ring), rnd)


@pytest.mark.parametrize("name", _every_fixture_but_x98())
def test_homology_assembles_each_strand_once(name, monkeypatch):
    # one pass over internal degrees: the columns of d_i give the kernel
    # of H_i and the boundaries of H_{i-1}
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    calls, on_demand = conftest.count_assemblies(monkeypatch)
    for i in range(K.n + 1):
        homology_basis(K, i)
    assert calls and max(calls.values()) == 1 and not on_demand
    # class_of on a boundary, twice in each strand: only a strand without
    # a class is assembled again, and only on its first query
    expected = set()
    for i in range(1, K.n):
        class_degrees = {cls.degree for cls in homology_basis(K, i).classes}
        for d in range(K.truncation + 1):
            for u in K.strand_basis_elements(i + 1, d)[:1] * 2:
                b = differential(u)
                assert not any(class_of(K, i, b))
                if not b.is_zero() and d not in class_degrees:
                    expected.add((i, d))
    assert max(calls.values()) == 1
    assert set(on_demand) == expected
    conftest.assert_on_demand_only_where_classless(K, on_demand)


def test_homology_pass_refuses_a_dense_strand_before_assembling(monkeypatch):
    K = KoszulComplex(load_ring_spec(conftest.fixture_path("f2_destefani.json")))
    largest = max(K.strand_dim(i - 1, d) * K.strand_dim(i, d)
                  for i in range(1, K.n + 1) for d in range(K.truncation + 1))
    calls, on_demand = conftest.count_assemblies(monkeypatch)
    monkeypatch.setattr(koszul, "SIZE_LIMIT", largest - 1)
    with pytest.raises(MemoryError, match="past %d dense entries" % (largest - 1)):
        homology_basis(K, 0)
    assert not calls and not on_demand and K._homology is None
    monkeypatch.setattr(koszul, "SIZE_LIMIT", largest)
    assert _dims(K) == _dims(
        KoszulComplex(load_ring_spec(conftest.fixture_path("f2_destefani.json"))))


def test_oversized_layout_exits_three_before_any_array(monkeypatch, capsys):
    # the layout holds 2^n * (truncation + 1) block bounds; past SIZE_LIMIT
    # the complex is refused before the Hilbert function is read
    path = conftest.fixture_path("f2_destefani.json")
    K = KoszulComplex(load_ring_spec(path))
    entries = 2 ** K.n * (K.truncation + 1)
    reads = []
    dim = ArtinianQuotient.dim

    def counted(self, d):
        reads.append(d)
        return dim(self, d)

    monkeypatch.setattr(ArtinianQuotient, "dim", counted)
    monkeypatch.setattr(koszul, "SIZE_LIMIT", entries - 1)
    with pytest.raises(MemoryError, match="past %d entries" % (entries - 1)):
        KoszulComplex(K.ring)
    assert reads == []
    assert main(["betti", "--ring", path, "--slow"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "resource limit" in err and "Traceback" not in err
    monkeypatch.setattr(koszul, "SIZE_LIMIT", entries)
    assert main(["betti", "--ring", path, "--slow"]) == 0
    assert capsys.readouterr().out == str(betti_table(K, rank_only=True)) + "\n"


def _random_chain(K, i, rnd):
    """A random element of K_i in one random internal degree (often no cycle)."""
    degrees = [d for d in range(K.truncation + 1) if K.strand_dim(i, d)]
    d = rnd.choice(degrees)
    vec = [_scalar(K.field, rnd) for _ in range(K.strand_dim(i, d))]
    return K.vector_to_element(i, d, conftest.sparse(vec))


def test_class_of_rejects_non_cycle_in_recorded_degree(K_q):
    # z*e1 lies in internal degree 2, where H_1 lives; d(z*e1) = xz != 0
    R = K_q.ring
    u = K_q.element({(0,): R.generator(2)})
    assert 2 in homology_basis(K_q, 1).degree_data
    with pytest.raises(NotACycleError, match="class_of received a non-cycle"):
        class_of(K_q, 1, u)


def test_class_of_rejects_component_where_no_cycles_exist(K_q):
    # strand (1, 1) is R_0 e_1 + R_0 e_2 + R_0 e_3 and injects into R_1
    assert strand_ranks(K_q)[(1, 1)] == K_q.strand_dim(1, 1) == 3
    assert all(cls.degree != 1 for cls in homology_basis(K_q, 1).classes)
    with pytest.raises(NotACycleError, match="class_of received a non-cycle"):
        class_of(K_q, 1, K_q.generator_element(0))


@pytest.mark.parametrize("name", ["q_x2_xy_y2_z2.json", "f2_semigroup_6_10_14_15.json"])
def test_class_of_checks_every_strand_against_one_cache(name, monkeypatch):
    # recorded or not, a strand's cycle check reads the one cache of strand
    # columns on the complex: the pass seeds it with the recorded strands,
    # and class_of assembles any other strand once; a non-cycle is refused
    # either way
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    _, on_demand = conftest.count_assemblies(monkeypatch)
    recorded = {(i, d) for i in range(1, K.n + 1) for d in homology_basis(K, i).degree_data}
    assert recorded and recorded <= set(K._cycle_columns)
    refused = set()
    for i in range(1, K.n + 1):
        for d in range(K.truncation + 1):
            for c in range(K.strand_dim(i, d)):
                u = K.vector_to_element(i, d, {c: K.field.one})
                if differential(u).is_zero():
                    continue
                with pytest.raises(NotACycleError, match="class_of received a non-cycle"):
                    class_of(K, i, u)
                refused.add((i, d) in recorded)
    assert refused == {True, False}
    assert not recorded & set(on_demand)
    conftest.assert_on_demand_only_where_classless(K, on_demand)


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


def _assert_columns_match_triplets(K):
    # the full path's columns equal the rank-only path's triplets, read
    # column by column, in every strand around and past the truncation
    for i in range(-1, K.n + 2):
        for d in range(-1, K.truncation + 4):
            columns = K.diff_columns(i, d)
            assert len(columns) == K.strand_dim(i, d), (i, d)
            assert columns == exactalg.triplet_columns(
                K.field, len(columns), K.diff_triplets(i, d)), (i, d)


@pytest.mark.parametrize("name", _every_fixture_but_x98())
def test_diff_columns_match_diff_triplets(name):
    _assert_columns_match_triplets(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))))


@given(small_rings())
@settings(max_examples=40, deadline=None)
def test_diff_columns_match_diff_triplets_on_random_rings(ring):
    _assert_columns_match_triplets(KoszulComplex(ring))


def _assert_rep_coords_match_reference(K, rnd):
    # every record's rep_coords, on a random cycle, a random boundary and
    # a random non-cycle, against a fresh solve by coords_in_span
    F = K.field
    for i in range(K.n + 1):
        basis = homology_basis(K, i)
        for d, data in sorted(basis.degree_data.items()):
            total = K.strand_dim(i, d)
            boundary = _boundary_rows(K, i, d)
            span = boundary + _dense_reps(K, i, d, data)
            cycle = _combination(F, [_scalar(F, rnd) for _ in span], span, total)
            bound = _combination(F, [_scalar(F, rnd) for _ in boundary], boundary, total)
            samples = [cycle, bound]
            if i > 0 and _cycle_dim(K, i, d) < total:
                other = cycle
                while exactalg.coords_in_span(other, span, F) is not None:
                    other = [_scalar(F, rnd) for _ in range(total)]
                samples.append(other)
            for vec in samples:
                u = K.vector_to_element(i, d, conftest.sparse(vec))
                expected = _outcome(_reference_class_of, K, i, u)
                if _outcome(class_of, K, i, u) is NotACycleError:
                    assert expected is NotACycleError
                    continue
                sol = data.rep_coords(F, conftest.sparse(vec))
                assert _exact_scalars(sol)
                coords = [F.zero] * basis.dim
                for idx, c in zip(data.class_indices, sol):
                    coords[idx] = c
                assert coords == expected
            assert not any(data.rep_coords(F, conftest.sparse(bound)))


@pytest.mark.parametrize("name", _every_fixture_but_x98())
def test_rep_coords_match_reference_class_of(name):
    _assert_rep_coords_match_reference(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))), random.Random(name))


@given(small_rings(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_rep_coords_match_reference_class_of_on_random_rings(ring, seed):
    _assert_rep_coords_match_reference(KoszulComplex(ring), random.Random(seed))


def _assert_classless_strands_check_cycles(K, rnd):
    # a strand without a class keeps no record: there a boundary maps to
    # zero, and a non-cycle is refused
    F = K.field
    for i in range(1, K.n + 1):
        basis = homology_basis(K, i)
        for d in range(K.truncation + 1):
            total = K.strand_dim(i, d)
            if not total or d in basis.degree_data:
                continue
            assert all(cls.degree != d for cls in basis.classes)
            boundary = _boundary_rows(K, i, d)
            assert len(boundary) == _cycle_dim(K, i, d)
            vec = _combination(F, [_scalar(F, rnd) for _ in boundary], boundary, total)
            assert class_of(K, i, K.vector_to_element(i, d, conftest.sparse(vec))) == (
                [F.zero] * basis.dim)
            if len(boundary) < total:
                vec = [_scalar(F, rnd) for _ in range(total)]
                while exactalg.coords_in_span(vec, boundary, F) is not None:
                    vec = [_scalar(F, rnd) for _ in range(total)]
                with pytest.raises(NotACycleError):
                    class_of(K, i, K.vector_to_element(i, d, conftest.sparse(vec)))


@pytest.mark.parametrize("name", _every_fixture_but_x98())
def test_classless_strands_check_cycles(name):
    _assert_classless_strands_check_cycles(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))), random.Random(name))


@given(small_rings(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_classless_strands_check_cycles_on_random_rings(ring, seed):
    _assert_classless_strands_check_cycles(KoszulComplex(ring), random.Random(seed))


@pytest.mark.parametrize("name", [
    "f2_semigroup_3_4_5.json", "f2_semigroup_6_10_14_15.json",
    "f2_semigroup_9_10_11_13_17.json", "semigroup_regular.json"])
def test_differential_repeats_past_exactness_floor(name):
    # class_of checks components past the truncation with the floor's d_i
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    floor = K.exactness_floor
    for i in range(K.n + 1):
        expected = sorted(K.diff_triplets(i, floor).tolist())
        for d in (floor + 1, floor + 7, 2 * floor + 3):
            assert sorted(K.diff_triplets(i, d).tolist()) == expected


def _family_fp():
    """x^6, y^7, z^8, (x^3 + y^3) z^4 over F32003: d_2 in degree 9 is 8928 entries."""
    ctx = PolyContext(PrimeField(32003), ["x", "y", "z"])
    return make_artinian_quotient(ctx, ["x^6", "y^7", "z^8", "x^3*z^4 + y^3*z^4"])


def _assert_batches_stack_reference_strands(K):
    # every batch of d_i is the block-diagonal stack of the reference
    # strands, for i around 1..n and windows that start below 0 or end
    # past the truncation (on a semigroup ring, past the exactness floor)
    memo = {}

    def strand(K, i, e):
        if (i, e) not in memo:
            memo[i, e] = conftest.reference_strand(K, i, e)
        return memo[i, e]

    top = K.truncation
    for i in range(-1, K.n + 2):
        for d in range(-2, top + 2):
            for stop in sorted({d + 1, d + 2, d + 5, top + 3}):
                assert (sorted(K.diff_triplets(i, d, stop).tolist())
                        == sorted(conftest.reference_batch(K, i, d, stop, strand))), (i, d, stop)


@pytest.mark.parametrize("name", _every_fixture_but_x98() + [
    "semigroup_6101415_Q", "semigroup_6101415_F3"])
def test_batches_stack_reference_strands(name):
    _assert_batches_stack_reference_strands(KoszulComplex(dict(_batch_cap_rings())[name]))


@given(small_rings())
@settings(max_examples=40, deadline=None)
def test_batches_stack_reference_strands_on_random_rings(ring):
    _assert_batches_stack_reference_strands(KoszulComplex(ring))


@pytest.mark.parametrize("cap", [None, 0, 40], ids=["default", "cap0", "cap40"])
@pytest.mark.parametrize("make", [
    conftest.q_ring, conftest.semigroup_6101415,
    lambda: conftest.semigroup_6101415(PrimeField(3)), _family_fp,
], ids=["quotient_Q", "semigroup_F2", "semigroup_F3", "family_F32003"])
def test_strand_ranks_reads_one_range_per_face_per_batch(monkeypatch, make, cap):
    # the rank-only path never reads a single table: each batch (i, d,
    # stop) reads x_j on R_{d-w(S)}..R_{stop-1-w(S)} once per subset S of
    # size i and element j of S
    K = KoszulComplex(make())
    ring_type = type(K.ring)
    tables, reads, batches = [], collections.Counter(), []
    table, read, assemble = (ring_type.mult_triplets, ring_type.mult_range,
                             KoszulComplex.diff_triplets)

    def counted_table(self, j, a):
        tables.append((j, a))
        return table(self, j, a)

    def counted_read(self, j, a, b):
        reads[(j, a, b)] += 1
        return read(self, j, a, b)

    def recorded(self, i, d, stop=None):
        batches.append((i, d, stop))
        return assemble(self, i, d, stop)

    monkeypatch.setattr(ring_type, "mult_triplets", counted_table)
    monkeypatch.setattr(ring_type, "mult_range", counted_read)
    monkeypatch.setattr(KoszulComplex, "diff_triplets", recorded)
    if cap is not None:
        monkeypatch.setattr(koszul, "BATCH_COLUMNS", cap)
    strand_ranks(K)
    assert not tables
    assert batches and all(stop is not None for _, _, stop in batches)
    if cap == 0:  # one strand a batch, so some d_i takes several
        assert all(stop == d + 1 for _, d, stop in batches)
        assert len(batches) > len({i for i, _, _ in batches})
    expected = collections.Counter()
    for i, d, stop in batches:
        for S in itertools.combinations(range(K.n), i):
            w = sum(K.ring.weights[t] for t in S)
            expected.update((j, d - w, stop - w) for j in S)
    assert reads == expected



def _exact_scalars(values):
    return all(type(a) in (int, Fraction) for a in values)


@pytest.mark.parametrize("make", [
    lambda: load_ring_spec(conftest.fixture_path("f2_destefani.json")),
    lambda: load_ring_spec(conftest.fixture_path("q_x2_xy_y2_z2.json")),
    _family_fp,
], ids=["f2_destefani", "q_x2_xy_y2_z2", "family_F32003"])
def test_no_numpy_scalar_leaks(make):
    # strands are numpy arrays; what leaves them must be Python ints and
    # Fractions, or json.dumps of a report would raise
    K = KoszulComplex(make())
    R = K.ring
    for j in range(K.n):
        for d in range(R.top_degree + 1):
            assert _exact_scalars(
                a for t in R.mult_triplets(j, d).tolist() for a in t), (j, d)
    for i in range(K.n + 1):
        basis = homology_basis(K, i)
        for data in basis.degree_data.values():
            assert _exact_scalars(a for v in data.rep_vectors for a in (*v, *v.values())), i
        for cls in basis.classes:
            coords = class_of(K, i, cls.element)
            assert _exact_scalars(coords), i
            assert coords == exactalg.unit_vector(K.field, basis.dim, cls.index)
        for d in range(K.truncation + 1):
            src, dst = K.strand_dim(i, d), K.strand_dim(i - 1, d)
            if i and src and dst:
                m = conftest.diff_matrix(K, i, d)
                assert _exact_scalars(a for row in m.rows for a in row), (i, d)


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
