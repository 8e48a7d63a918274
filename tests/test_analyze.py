"""Filtration levels, ring order, gr algebra, identity decision, suites."""

import collections
import itertools
import json
import math
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from koszulalg.exactalg import GF2, QQ
from koszulalg.polyring import PolyContext
from koszulalg.gring import make_artinian_quotient, make_semigroup_ring
from koszulalg.koszul import (
    KoszulComplex,
    class_of,
    homology_basis,
    homology_product,
    wedge,
)
from koszulalg import analyze, dgmap, exactalg, gring, koszul, polyring
from koszulalg.cli import load_ring_spec
from koszulalg.dgmap import (
    compose_induced,
    elementary_lift,
    induced_map,
    lift_from_delta,
)
from koszulalg.analyze import (
    check_identity_all,
    class_levels,
    filtration_dim,
    filtration_level,
    gr_homology,
    gr_induced_identity,
    poincare_pairing,
    ring_order,
    run_suite,
    slow_suite,
)

import conftest
from conftest import (
    elementary_differences,
    random_elementary_lift,
    random_lift,
    representative,
)
from test_gring import _quotient_fixtures
from test_koszul import _boundary_rows, _scalar, small_rings


def _unit(K, i, cls):
    basis = homology_basis(K, i)
    return [K.field.one if t == cls.index else K.field.zero
            for t in range(basis.dim)]


def _identity_false_ring():
    ctx = PolyContext(GF2, ["x", "y", "z", "w"])
    return make_artinian_quotient(
        ctx, ["x^2", "y^2", "z^2", "w^3", "y*z - x*w", "y*w^2"])


# ------------------------------------------------------------------ order


def test_order_hypersurface():
    ctx = PolyContext(GF2, ["x"])
    K = KoszulComplex(make_artinian_quotient(ctx, ["x^2"]))
    assert ring_order(K) == 2


def test_order_regular_ring_infinite():
    K = KoszulComplex(make_semigroup_ring(GF2, [1]))
    assert ring_order(K) == math.inf


def test_order_examples(K_q, K_row3, K_weighted, K_aci):
    assert ring_order(K_q) == 2
    assert ring_order(K_row3) == 2
    assert ring_order(K_weighted) == 2
    assert ring_order(K_aci) == 2


def test_order_standard_graded_is_min_relation_degree():
    ctx = PolyContext(GF2, ["x", "y"])
    K = KoszulComplex(make_artinian_quotient(ctx, ["x^3", "x*y^3", "y^4"]))
    assert ring_order(K) == 3


def _standard_graded_quotient_fixtures():
    names = []
    for name in _quotient_fixtures():
        with open(conftest.fixture_path(name), encoding="utf-8") as fh:
            weights = json.load(fh)["presentation"].get("weights")
        if weights is None or set(weights) == {1}:
            names.append(name)
    return names


@pytest.mark.parametrize("name", _standard_graded_quotient_fixtures())
def test_order_from_generators_matches_filtration(name):
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    levels = [filtration_level(K, 1, _unit(K, 1, cls))
              for cls in homology_basis(K, 1).classes]
    assert ring_order(K) == min(levels, default=math.inf)


def test_order_of_standard_quotient_builds_no_homology(monkeypatch):
    K = KoszulComplex(conftest.q_ring())

    def refuse(*args):
        raise AssertionError("ring_order built a homology basis")

    monkeypatch.setattr(analyze, "homology_basis", refuse)
    assert ring_order(K) == 2


# ------------------------------------------------------------- filtration


def test_h1_levels_weighted(K_weighted):
    b1 = homology_basis(K_weighted, 1)
    levels = sorted(filtration_level(K_weighted, 1, _unit(K_weighted, 1, c))
                    for c in b1.classes)
    assert levels == [2, 4]


def test_h2_filtration_weighted(K_weighted):
    assert filtration_dim(K_weighted, 2, 7) == 1
    assert filtration_dim(K_weighted, 2, 8) == 0
    b2 = homology_basis(K_weighted, 2)
    assert filtration_level(K_weighted, 2, _unit(K_weighted, 2, b2.classes[0])) == 7


def test_row3_h2_filtration(K_row3):
    assert homology_basis(K_row3, 2).dim == 15
    assert filtration_dim(K_row3, 2, 4) == 15
    assert filtration_dim(K_row3, 2, 5) == 0


def test_filtration_descends(K_q):
    for i in range(1, K_q.n + 1):
        dims = [filtration_dim(K_q, i, l) for l in range(8)]
        assert dims == sorted(dims, reverse=True)
        # representatives have coefficients in m, so F^{i+1} H_i = H_i
        assert filtration_dim(K_q, i, i + 1) == homology_basis(K_q, i).dim


def _reference_filtration_span(K, i, d, l):
    """Rows spanning (Z ∩ F^l) + B in the strand (i, d), and the rows of B.

    Z is the kernel basis of d_i, B the rref of the columns of d_{i+1},
    and F^l = m^(l-i) K_{i,d}; nothing comes from the strand data.
    """
    total = K.strand_dim(i, d)
    if i == 0:
        cycles = [exactalg.unit_vector(K.field, total, s) for s in range(total)]
    else:
        cycles = exactalg.kernel_basis(conftest.diff_matrix(K, i, d))
    power = [conftest.dense(K.field, total, v)
             for v in analyze._strand_power_vectors(K, i, d, l - i)]
    boundary = _boundary_rows(K, i, d)
    inter = conftest.subspace_intersect(cycles, power, K.field, total)
    return inter + boundary, boundary


def _reference_filtration_dim(K, i, l):
    # a degree without classes has Z = B, so it adds nothing
    total = 0
    for d in homology_basis(K, i).degrees():
        span, boundary = _reference_filtration_span(K, i, d, l)
        n = K.strand_dim(i, d)
        total += (exactalg.span_dim(span, K.field, n)
                  - exactalg.span_dim(boundary, K.field, n))
    return total


def _reference_filtration_level(K, i, coords):
    """The largest l with every strand component of the class in (Z ∩ F^l) + B."""
    if all(a == K.field.zero for a in coords):
        return math.inf
    components = K.strand_vectors(i, representative(K, i, coords))
    level = i
    while all(
            exactalg.coords_in_span(
                conftest.dense(K.field, K.strand_dim(i, d), vec),
                _reference_filtration_span(K, i, d, level + 1)[0],
                K.field) is not None
            for d, vec in components.items()):
        level += 1
    return level


def _assert_filtration_matches_reference(K, rnd):
    F = K.field
    for i in range(K.n + 1):
        basis = homology_basis(K, i)
        if not basis.dim:
            continue
        for l in range(i - 1, max(basis.degrees()) + 2):
            assert filtration_dim(K, i, l) == _reference_filtration_dim(K, i, l)
        samples = [_unit(K, i, cls) for cls in basis.classes]
        samples += [[_scalar(F, rnd) for _ in range(basis.dim)] for _ in range(3)]
        for coords in samples:
            assert filtration_level(K, i, coords) == (
                _reference_filtration_level(K, i, coords))


def _weighted_and_semigroup_fixtures():
    names = []
    for name in sorted(os.listdir(conftest.FIXTURES)):
        if not name.endswith(".json") or name == "f2_big_x98.json":
            continue
        with open(conftest.fixture_path(name), encoding="utf-8") as fh:
            presentation = json.load(fh)["presentation"]
        weights = presentation.get("weights")
        if presentation["type"] != "quotient" or (
                weights is not None and set(weights) != {1}):
            names.append(name)
    return names


@pytest.mark.parametrize("name", _weighted_and_semigroup_fixtures())
def test_order_assembles_only_d1_and_d2(name, monkeypatch):
    # F^l H_1 needs the kernel of d_1 and the boundaries of d_2 alone
    spec = conftest.fixture_path(name)
    K = KoszulComplex(load_ring_spec(spec))
    calls, on_demand = conftest.count_assemblies(monkeypatch)
    order = ring_order(K)
    assert calls and {i for i, _ in calls} <= {1, 2}
    assert max(calls.values()) == 1 and not on_demand
    # a later call for H_n runs the full pass, rebuilding H_0 and H_1;
    # for n = 1 the first pass was the full one
    calls.clear()
    homology_basis(K, K.n)
    assert {i for i, _ in calls} == (set(range(1, K.n + 1)) if K.n > 1 else set())
    assert not on_demand
    labels = [cls.label for cls in homology_basis(K, 1).classes]
    fresh = KoszulComplex(load_ring_spec(spec))
    assert labels == [cls.label for cls in homology_basis(fresh, 1).classes]
    assert ring_order(K) == order


@pytest.mark.parametrize("name", _weighted_and_semigroup_fixtures())
def test_suite_assembles_each_strand_once(name, monkeypatch):
    # run_suite calls ring_order after the full pass, which it reuses
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    calls, on_demand = conftest.count_assemblies(monkeypatch)
    run_suite(K)
    assert calls and max(calls.values()) == 1
    # class_of assembles a strand at most once more, and only a classless one
    conftest.assert_on_demand_only_where_classless(K, on_demand)


@pytest.mark.parametrize("name", _weighted_and_semigroup_fixtures())
def test_filtration_matches_intersection_reference(name):
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    _assert_filtration_matches_reference(K, random.Random(name))


@pytest.mark.parametrize("field", [GF2, QQ])
def test_filtration_level_counts_boundaries(field):
    # Weights (2, 1): the representative of h1.2 lies in F^3 K_1 but not
    # in F^4 K_1; adding a boundary moves it into F^4, so its class does.
    ctx = PolyContext(field, ["y", "z"], [2, 1])
    K = KoszulComplex(make_artinian_quotient(ctx, ["y^2", "z^4", "z^3 + y*z"]))
    h1 = homology_basis(K, 1)
    assert filtration_level(K, 1, _unit(K, 1, h1.classes[1])) == 4
    assert filtration_dim(K, 1, 4) == 1
    _assert_filtration_matches_reference(K, random.Random(0))


@given(small_rings(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_filtration_matches_intersection_reference_on_random_rings(ring, rnd):
    _assert_filtration_matches_reference(KoszulComplex(ring), rnd)


def test_fast_and_general_paths_agree():
    # same ring graded two ways: weights (2,2) force the span-based path
    K1 = KoszulComplex(conftest.ci_f2())
    ctx2 = PolyContext(GF2, ["x", "y"], [2, 2])
    K2 = KoszulComplex(make_artinian_quotient(ctx2, ["x^2", "y^2"]))
    for i in (1, 2):
        for l in range(6):
            assert filtration_dim(K1, i, l) == filtration_dim(K2, i, l)
    assert ring_order(K1) == ring_order(K2) == 2


def _filtration_answers(K, rnd):
    """Every answer the standard-graded branch of the filtration table serves."""
    F = K.field
    out = {"order": ring_order(K)}
    for i in range(K.n + 1):
        basis = homology_basis(K, i)
        top = max(basis.degrees(), default=i)
        out["dims", i] = [filtration_dim(K, i, l) for l in range(i - 1, top + 2)]
        samples = [_unit(K, i, cls) for cls in basis.classes]
        samples += [[_scalar(F, rnd) for _ in range(basis.dim)] for _ in range(3)]
        out["levels", i] = [filtration_level(K, i, coords) for coords in samples]
    g = gr_homology(K)
    out["gr"] = (g.to_json(), g.positive_products_vanish())
    return out


@pytest.mark.parametrize("name", _standard_graded_quotient_fixtures())
def test_standard_graded_branch_matches_general_table(name, monkeypatch):
    spec = conftest.fixture_path(name)
    branch = _filtration_answers(
        KoszulComplex(load_ring_spec(spec)), random.Random(name))
    monkeypatch.setattr(analyze, "_is_standard_graded", lambda K: False)
    general = _filtration_answers(
        KoszulComplex(load_ring_spec(spec)), random.Random(name))
    assert branch == general


# No fixture has a strand whose filtration table holds forms of two
# levels; each of these rings has one.
_MIXED_LEVEL_RINGS = {
    "semigroup_5_6_8_9_F3": lambda: make_semigroup_ring(exactalg.PrimeField(3), [5, 6, 8, 9]),
    "semigroup_5_7_8_11_F2": lambda: make_semigroup_ring(GF2, [5, 7, 8, 11]),
    "weighted_1_2_Q": lambda: make_artinian_quotient(
        PolyContext(QQ, ["x", "y"], [1, 2]), ["x^4", "y^3", "x^2*y"]),
}


@pytest.mark.parametrize("name", _weighted_and_semigroup_fixtures() + sorted(_MIXED_LEVEL_RINGS))
def test_class_levels_match_filtration_level_of_unit_vectors(name):
    make = _MIXED_LEVEL_RINGS.get(name)
    K = KoszulComplex(make() if make else load_ring_spec(conftest.fixture_path(name)))
    for i in range(K.n + 1):
        dim = homology_basis(K, i).dim
        assert class_levels(K, i) == [
            filtration_level(K, i, exactalg.unit_vector(K.field, dim, idx))
            for idx in range(dim)], i


def _reference_filtration_table(K, i, d, data):
    """(levels, forms) of the strand (i, d) from two rrefs of dense Matrix objects.

    The columns are stacked as in analyze._filtration_table and densified
    into one Matrix.  Each rref row whose pivot lies in a group with a
    level gives a form, its last k entries; a second rref, the forms as
    columns by increasing level, picks the first k independent ones.
    """
    F, k = K.field, len(data.rep_vectors)
    columns = list(data.boundary)
    level_of = [None] * len(columns)
    for a in range((d - min(K.subset_weights[i])) // min(K.weights), 0, -1):
        group = analyze._strand_power_vectors(K, i, d, a)
        columns += group
        level_of += [i + a] * len(group)
    columns += data.rep_vectors
    level_of += [i] * k
    red, pivots = exactalg.rref(exactalg.Matrix.from_triplets(
        F, K.strand_dim(i, d), len(columns),
        ((r, c, a) for c, column in enumerate(columns) for r, a in column.items())))
    forms = sorted(((level_of[c], row[-k:]) for row, c in zip(red.rows, pivots)
                    if level_of[c] is not None), key=lambda form: form[0])
    _, picked = exactalg.rref(exactalg.Matrix(F, zip(*(row for _, row in forms)), len(forms)))
    return [forms[c][0] for c in picked], [forms[c][1] for c in picked]


def _assert_filtration_tables_match_reference(K):
    # every strand takes the general table; the standard-graded shortcut
    # is pinned to it by test_standard_graded_branch_matches_general_table
    F = K.field
    with mock.patch.object(analyze, "_is_standard_graded", lambda K: False):
        for i in range(K.n + 1):
            for d, data in homology_basis(K, i).degree_data.items():
                k = len(data.rep_vectors)
                if not k:
                    continue
                levels, forms = analyze._filtration_table(K, i, d, data)
                assert (levels, forms) == _reference_filtration_table(K, i, d, data), (i, d)
                assert [type(a) for form in forms for a in form] == [type(F.zero)] * (k * k)
                inverse = exactalg.Matrix.from_columns(F, analyze._inverse_columns(F, forms), k)
                assert exactalg.Matrix(F, forms, k).mul(inverse) == exactalg.Matrix.identity(F, k)


def _weighted_family(field, a):
    """x^a, y^(a+1), z^(a+2), (x^h+y^h)z^(h+1), h = a/2, with weights (1, 1, 2)."""
    h = a // 2
    ctx = PolyContext(field, ["x", "y", "z"], [1, 1, 2])
    return make_artinian_quotient(ctx, [
        "x^%d" % a, "y^%d" % (a + 1), "z^%d" % (a + 2),
        "x^%d*z^%d + y^%d*z^%d" % (h, h + 1, h, h + 1)])


@pytest.mark.parametrize("name", _weighted_and_semigroup_fixtures() + sorted(_MIXED_LEVEL_RINGS))
def test_filtration_tables_match_dense_reference(name):
    make = _MIXED_LEVEL_RINGS.get(name)
    _assert_filtration_tables_match_reference(
        KoszulComplex(make() if make else load_ring_spec(conftest.fixture_path(name))))


@pytest.mark.parametrize("field", [GF2, exactalg.PrimeField(3), QQ], ids=str)
def test_filtration_tables_match_dense_reference_on_weighted_family(field):
    _assert_filtration_tables_match_reference(KoszulComplex(_weighted_family(field, 6)))


@given(small_rings())
@settings(max_examples=30, deadline=None)
def test_filtration_tables_match_dense_reference_on_random_rings(ring):
    _assert_filtration_tables_match_reference(KoszulComplex(ring))


def test_level_of_zero_class(K_ci):
    dim = homology_basis(K_ci, 1).dim
    assert filtration_level(K_ci, 1, [K_ci.field.zero] * dim) == math.inf


def test_aci_h1_levels(K_aci):
    b1 = homology_basis(K_aci, 1)
    for cls in b1.classes:
        assert filtration_level(K_aci, 1, _unit(K_aci, 1, cls)) == 2


# -------------------------------------------------------------------- gr


def test_gr_dims_weighted(K_weighted):
    g = gr_homology(K_weighted)
    assert g.dim(0, 0) == 1
    assert g.levels(1) == [2, 4]
    assert g.dim(1, 2) == 1 and g.dim(1, 4) == 1
    assert g.levels(2) == [7]
    js = g.to_json()
    assert js["dims"]["1,2"] == 1


def test_gr_positive_products_vanish_weighted(K_weighted):
    # the H_1 levels add to 6 but their product has level 7
    g = gr_homology(K_weighted)
    assert g.positive_products_vanish() is True
    a = g.basis[1][0]
    b = g.basis[1][1]
    lev, coords, vanishes = g.gr_product(1, a, 1, b)
    assert lev == 6 and vanishes is True
    assert any(c != K_weighted.field.zero for c in coords)


def test_gr_products_survive_on_ci(K_ci):
    g = gr_homology(K_ci)
    assert g.positive_products_vanish() is False
    a, b = g.basis[1]
    lev, coords, vanishes = g.gr_product(1, a, 1, b)
    assert lev == 4 and vanishes is False


def test_gr_induced_identity_on_witness_lift(K_aci):
    R = K_aci.ring
    z = K_aci.element({(2,): R.parse_element("t^16"), (3,): R.parse_element("t^15")})
    phi = elementary_lift(K_aci, 0, z)
    assert not induced_map(phi, 2).is_identity
    differences = {i: induced_map(phi, i).difference_columns()
                   for i in range(K_aci.ring.codepth + 1)}
    ok, report = gr_induced_identity(K_aci, differences)
    # the map moves classes, but only deeper into the filtration
    assert ok is True
    assert report["min_shift"] is None or report["min_shift"] >= 1
    assert all(e["shift"] == math.inf or e["shift"] >= 1
               for e in report["per_class"])


# -------------------------------------------------------- identity decision


def test_identity_holds_on_ci(K_ci):
    v = check_identity_all(K_ci)
    assert v.overall is True
    assert v.witnesses == []
    assert all(v.per_degree.values())


def test_identity_fails_on_q_ring(K_q):
    # char 0: a one-parameter family of automorphisms acts nontrivially
    v = check_identity_all(K_q)
    assert v.overall is False
    assert v.witnesses
    js = v.to_json()
    assert js["overall"] is False
    assert js["witnesses"][0]["generator"] >= 1


def test_identity_fails_on_aci(K_aci):
    v = check_identity_all(K_aci)
    assert v.overall is False
    assert v.per_degree[1] is True    # H_1(phi) = id always
    assert v.per_degree[2] is False


def test_identity_witnesses_reverify(K_aci):
    v = check_identity_all(K_aci)
    b1 = homology_basis(K_aci, 1)
    by_label = {c.label: c for c in b1.classes}
    for w in v.witnesses:
        cls = by_label[w["class_label"]]
        phi = elementary_lift(K_aci, w["generator"], cls.element)
        assert not induced_map(phi, w["degree"]).is_identity


def test_identity_degree_restriction(K_aci):
    v = check_identity_all(K_aci, degrees=[1])
    assert v.overall is True
    v2 = check_identity_all(K_aci, degrees=[2])
    assert v2.overall is False


def test_identity_true_and_false_quotients():
    ctx = PolyContext(GF2, ["x", "y", "z", "w"])
    Rt = make_artinian_quotient(
        ctx, ["x^2", "y^2", "z^2", "w^3", "y*z - x*w"])
    assert check_identity_all(KoszulComplex(Rt)).overall is True
    Kf = KoszulComplex(_identity_false_ring())
    vf = check_identity_all(Kf)
    assert vf.overall is False
    assert len(vf.witnesses) == 8


def test_decision_soundness_against_random_lifts():
    # verdict "identity for all lifts" must survive a fuzz with general lifts
    ctx = PolyContext(GF2, ["x", "y", "z", "w"])
    Rt = make_artinian_quotient(
        ctx, ["x^2", "y^2", "z^2", "w^3", "y*z - x*w"])
    K = KoszulComplex(Rt)
    assert check_identity_all(K).overall is True
    rng = random.Random(7)
    for _ in range(6):
        phi = random_lift(K, rng)
        for i in range(K.n + 1):
            assert induced_map(phi, i).is_identity


# ------------------------------------------------ decision by contraction


def _lift_differences(K, g, z):
    """Columns of H_i(phi) - id through Lift.apply, the path contraction replaces."""
    phi = elementary_lift(K, g, z)
    return {i: induced_map(phi, i).difference_columns() for i in range(K.n + 1)}


def _assert_contraction_matches_lifts(K):
    for g in range(K.n):
        for cls in homology_basis(K, 1).classes:
            assert elementary_differences(
                K, g, cls.element, range(K.n + 1)) == _lift_differences(
                    K, g, cls.element)


_FIXTURES_BUT_X98 = sorted(
    f for f in os.listdir(conftest.FIXTURES)
    if f.endswith(".json") and f != "f2_big_x98.json")


@pytest.mark.parametrize("name", _FIXTURES_BUT_X98)
def test_contraction_matches_lift_oracle(name):
    _assert_contraction_matches_lifts(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))))


@given(small_rings())
@settings(max_examples=25, deadline=None)
def test_contraction_matches_lift_oracle_on_random_rings(ring):
    _assert_contraction_matches_lifts(KoszulComplex(ring))


def _assert_lift_action_abelian(K):
    """Every two matrices D = H_i(phi) - id of the elementary lifts commute.

    The maps id + D of the elementary lifts over a basis of H_1 generate
    the lift action up to homotopy, so it is abelian exactly when every
    two D commute in each degree.
    """
    differences = check_identity_all(K).differences
    for i in range(K.ring.codepth + 1):
        dim = homology_basis(K, i).dim
        matrices = [exactalg.Matrix.from_columns(K.field, diff[i], dim)
                    for diff in differences]
        for a, b in itertools.combinations(
                [m for m in matrices if not m.is_zero()], 2):
            assert a.mul(b) == b.mul(a)


@pytest.mark.parametrize("name", _FIXTURES_BUT_X98)
def test_lift_action_is_abelian(name):
    _assert_lift_action_abelian(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))))


@given(small_rings())
@settings(max_examples=25, deadline=None)
def test_lift_action_is_abelian_on_random_rings(ring):
    _assert_lift_action_abelian(KoszulComplex(ring))


@pytest.mark.parametrize("name", [
    "f2_identity_false.json", "f2_semigroup_6_10_14_15.json"])
def test_identity_decisions_apply_no_lift(name, monkeypatch):
    def refuse(self, u):
        raise RuntimeError("Lift.apply was called")

    monkeypatch.setattr(dgmap.Lift, "apply", refuse)
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    verdict = check_identity_all(K)
    assert verdict.overall is False and verdict.witnesses
    for differences in verdict.differences:
        ok, _ = gr_induced_identity(K, differences)
        assert ok is True


def _reference_verdict(K, degrees):
    """(differences, witnesses) of check_identity_all, one elementary lift at a time."""
    all_differences, witnesses = [], []
    for g in range(K.n):
        for cls in homology_basis(K, 1).classes:
            differences = elementary_differences(K, g, cls.element, degrees)
            all_differences.append(differences)
            for i in degrees:
                diff = next((diff for diff in differences[i] if any(diff)), None)
                if diff is not None:
                    witnesses.append({"generator": g, "class_label": cls.label,
                                      "degree": i, "difference": diff})
    return all_differences, witnesses


def _assert_identity_matches_element_path(K):
    for degrees in (None, range(K.n + 1)):
        verdict = check_identity_all(K, degrees)
        differences, witnesses = _reference_verdict(
            K, range(K.ring.codepth + 1) if degrees is None else degrees)
        assert verdict.differences == differences
        assert verdict.witnesses == witnesses
        # the same scalar types: Fractions over Q, Python ints over F_p
        assert repr(verdict.differences) == repr(differences)
        assert repr(verdict.witnesses) == repr(witnesses)
        assert json.dumps(verdict.to_json()) == json.dumps(analyze.IdentityVerdict(
            not witnesses, {i: all(w["degree"] != i for w in witnesses)
                            for i in verdict.per_degree}, witnesses, differences).to_json())


@pytest.mark.parametrize("name", _FIXTURES_BUT_X98)
def test_identity_matches_element_path(name):
    _assert_identity_matches_element_path(
        KoszulComplex(load_ring_spec(conftest.fixture_path(name))))


@given(small_rings())
@settings(max_examples=40, deadline=None)
def test_identity_matches_element_path_on_random_rings(ring):
    _assert_identity_matches_element_path(KoszulComplex(ring))


def _count_structure_work(monkeypatch):
    """Counter of koszul.wedge, koszul.contract and koszul.class_of calls from now on."""
    calls = collections.Counter()
    for name in ("wedge", "contract", "class_of"):
        monkeypatch.setattr(koszul, name, _counted(calls, name, getattr(koszul, name)))
    return calls


@pytest.mark.parametrize("name", _FIXTURES_BUT_X98)
def test_identity_takes_one_product_per_left_factor(name, monkeypatch):
    # dim H_1 * Σ_(i>=1) dim H_(i-1) wedges and n * Σ_(i>=1) dim H_i
    # contractions, each with one class_of
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    h = [homology_basis(K, i).dim for i in range(K.ring.codepth + 1)]
    calls = _count_structure_work(monkeypatch)
    check_identity_all(K)
    # a regular ring (codepth 0) or one with H_1 = 0 has no elementary lift
    expected = {} if len(h) < 2 else {"wedge": h[1] * sum(h[:-1]),
                                      "contract": K.n * sum(h[1:])}
    expected["class_of"] = sum(expected.values())
    assert +calls == +collections.Counter(expected)
    if name == "f2_semigroup_9_10_11_13_17.json":
        assert calls["wedge"] == 189 and calls["class_of"] == 324
    # a second decision reads the table only
    calls.clear()
    check_identity_all(K)
    assert not calls


# ------------------------------------------------ exact suite decisions


def _iota_matrix(K, i, g):
    """ι_g^H: H_i -> H_(i-1), the class of the contraction of each representative."""
    return exactalg.Matrix.from_columns(K.field, [
        class_of(K, i - 1, koszul.contract(cls.element, g))
        for cls in homology_basis(K, i).classes], homology_basis(K, i - 1).dim)


def _left_matrix(K, i, u, j):
    """L_[u]: H_j -> H_i, left multiplication by the cycle u of degree i - j."""
    return exactalg.Matrix.from_columns(K.field, [
        class_of(K, i, wedge(u, cls.element))
        for cls in homology_basis(K, j).classes], homology_basis(K, i).dim)


def _matrix_sum(A, B):
    F = A.field
    return exactalg.Matrix(F, [[F.add(a, b) for a, b in zip(r, s)]
                               for r, s in zip(A.rows, B.rows)], A.ncols)


def _subset_formula(K, delta, i):
    """H_i(phi) for phi = identity + delta, as the sum over T ⊆ supp delta of
    L_[z_t1 ∧ ... ∧ z_tk] ι_tk ... ι_t1 (t1 < ... < tk, ι_t1 applied first)."""
    F = K.field
    dim = homology_basis(K, i).dim
    total = exactalg.Matrix.zeros(F, dim, dim)
    for size in range(min(len(delta), i) + 1):
        for T in itertools.combinations(sorted(delta), size):
            chain = exactalg.Matrix.identity(F, dim)
            z = K.element({(): K.ring.one()})
            for j, t in enumerate(T):
                chain = _iota_matrix(K, i - j, t).mul(chain)
                z = wedge(z, delta[t])
            total = _matrix_sum(total, _left_matrix(K, i, z, i - size).mul(chain))
    return total


@pytest.mark.parametrize("name", _FIXTURES_BUT_X98)
def test_induced_map_is_the_subset_formula(name):
    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    rng = random.Random(name)
    for _ in range(4):
        delta = {}
        for g in rng.sample(range(K.n), min(4, K.n)):
            z = conftest.random_h1_cycle(K, rng) + conftest.random_boundary(K, 1, rng)
            if not z.is_zero():
                delta[g] = z
        phi = lift_from_delta(K, delta)
        for i in range(K.n + 1):
            assert induced_map(phi, i).matrix == _subset_formula(K, delta, i), (delta, i)


def _sampled_suite_fields(K, is_pd_algebra, seed=0, samples=12):
    """The suite's former sampled checks, the reference of the exact ones.

    group_law, abelian and exponent_p on `samples` random pairs of
    elementary lifts, then duality_propagation on max(4, samples // 3)
    random general lifts, all through Lift.apply and induced_map.
    """
    rng = random.Random(seed)
    F = K.field
    c = K.ring.codepth
    group_law = abelian = True
    exponent_p = True if F.characteristic > 0 else None
    degrees = list(range(c + 1))
    for _ in range(samples):
        phi1, i1, z1 = random_elementary_lift(K, rng)
        phi2, i2, z2 = random_elementary_lift(K, rng)
        if i1 == i2:
            sum_lift = lift_from_delta(K, {i1: z1 + z2})
        else:
            sum_lift = lift_from_delta(K, {i1: z1, i2: z2})
        for i in degrees:
            a = induced_map(phi1, i)
            b = induced_map(phi2, i)
            sm = induced_map(sum_lift, i)
            if compose_induced(a, b).matrix != sm.matrix:
                group_law = False
            if compose_induced(a, b).matrix != compose_induced(b, a).matrix:
                abelian = False
            if F.characteristic > 0 and not a.is_identity:
                power = a
                for _ in range(F.characteristic - 1):
                    power = compose_induced(power, a)
                if not power.is_identity:
                    exponent_p = False
    duality = None
    if is_pd_algebra:
        duality = True
        for _ in range(max(4, samples // 3)):
            phi = random_lift(K, rng)
            flags = {i: induced_map(phi, i).is_identity for i in degrees}
            for i in degrees:
                if flags[i] != flags[c - i]:
                    duality = False
    return {"group_law": group_law, "abelian": abelian, "exponent_p": exponent_p,
            "duality_propagation": duality}


@pytest.mark.parametrize("name", _FIXTURES_BUT_X98)
def test_exact_suite_fields_match_the_sampled_checks(name, monkeypatch):
    def refuse(self, u):
        raise RuntimeError("Lift.apply was called")

    K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
    with monkeypatch.context() as patch:
        # run_suite applies no lift; the sampled reference does
        patch.setattr(dgmap.Lift, "apply", refuse)
        report = run_suite(K)
    sampled = _sampled_suite_fields(K, report["gorenstein"]["is_pd_algebra"])
    assert {field: report[field] for field in sampled} == sampled


def _pair_decisions_by_definition(K, differences):
    """group_law, abelian and exponent_p read off one Matrix product per pair of M."""
    F = K.field
    h1 = homology_basis(K, 1).classes
    k = len(h1)
    group_law = abelian = exponent_p = True
    for i in range(K.ring.codepth + 1):
        dim = homology_basis(K, i).dim
        M = [exactalg.Matrix.from_columns(F, diff[i], dim) for diff in differences]
        for a, b in itertools.product(range(len(M)), repeat=2):
            (g, c), (h, c2) = divmod(a, k), divmod(b, k)
            ab, ba = M[a].mul(M[b]), M[b].mul(M[a])
            cross = exactalg.Matrix.zeros(F, dim, dim)
            if i >= 2:
                u = wedge(h1[c].element, h1[c2].element)
                cross = _left_matrix(K, i, u, i - 2).mul(
                    _iota_matrix(K, i - 1, h).mul(_iota_matrix(K, i, g)))
            group_law = group_law and ab == cross
            abelian = abelian and ab == ba
            if g == h:
                exponent_p = exponent_p and (ab.is_zero() if a == b else ab.rows == [
                    [F.neg(x) for x in row] for row in ba.rows])
    return group_law, abelian, exponent_p if F.characteristic else None


def _corrupted(K, differences, entries):
    """differences where, in the first degree with dim H_i >= 2, each M_a named in
    entries is the 0/1 matrix with ones at its (row, col) positions."""
    i = next(i for i in range(K.ring.codepth + 1) if homology_basis(K, i).dim >= 2)
    dim = homology_basis(K, i).dim
    out = [dict(diff) for diff in differences]
    for a, positions in entries.items():
        columns = [[K.field.zero] * dim for _ in range(dim)]
        for row, col in positions:
            columns[col][row] = K.field.one
        out[a][i] = columns
    return out


_SMALL_FIXTURES = ["f2_ci_x2_y2.json", "f2_golod_m2.json", "f2_products_row1.json",
                   "f2_semigroup_3_4_5.json", "f2_semigroup_6_10_14_15.json",
                   "f2_weighted_2_3.json", "q_x2_xy_y2_z2.json"]


def _stand_in_contraction(K, first_only=False):
    """Sends the t-th representative of H_i to the (t + g)-th of H_(i-1) under e_g^*.

    On every fixture each cross term L_[w_c ∧ w_c'] ι_h ι_g vanishes,
    though neither ι^H nor ι_h ι_g does: on f2_identity_false both are
    nonzero on H, and so is M_(g,c) = L_[w_c] ι_g^H.  This stand-in for
    contract makes the cross terms nonzero.  With first_only, only e_1^*
    acts, and it kills H_1.
    """
    reps = {i: [cls.element for cls in homology_basis(K, i).classes]
            for i in range(K.ring.codepth + 1)}
    index = {id(x): (i, t) for i, xs in reps.items() for t, x in enumerate(xs)}

    def stand_in(x, g):
        i, t = index[id(x)]
        low = reps.get(i - 1)
        if not low or first_only and (g or i == 1):
            return K.zero_element()
        return low[(t + g) % len(low)]
    return stand_in


@pytest.mark.parametrize("stand_in", [False, True], ids=["contract", "stand-in"])
def test_pair_decisions_match_their_definition(stand_in, monkeypatch):
    # the fixtures' differences, then corrupted ones: M^2 != 0, two M at one
    # generator that do not commute, and two at different generators
    seen = collections.Counter()
    for name in _SMALL_FIXTURES:
        K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
        k = homology_basis(K, 1).dim
        differences = check_identity_all(K).differences
        with monkeypatch.context() as patch:
            if stand_in:
                # a fresh table, so that its contractions come from the stand-in
                patch.setattr(koszul, "contract", _stand_in_contraction(K))
                patch.setattr(K, "structure", koszul.StructureConstants(K))
            for entries in [{}, {0: [(0, 0), (1, 1)]}, {0: [(0, 1)], 1: [(1, 0)]},
                            {0: [(0, 1)], k: [(1, 0)]}]:
                diffs = _corrupted(K, differences, entries)
                decided = analyze._lift_pair_decisions(K, diffs)
                assert decided == _pair_decisions_by_definition(K, diffs), (name, entries)
                seen.update(f for f, v in zip(("group_law", "abelian", "exponent_p"),
                                              decided) if v is False)
            if stand_in and name == "f2_ci_x2_y2.json":
                # every M is zero, so the nonzero cross terms break the group law
                assert analyze._lift_pair_decisions(K, differences)[0] is False
    assert set(seen) == {"group_law", "abelian", "exponent_p"}


def test_cross_terms_off_the_lift_generators_read_every_spanning_row(monkeypatch):
    # off G x G the cross terms are checked through the pairs S whose rows
    # of A span all rows.  On k[x,y,z]/(x^2,y^2,z^2) every M is zero, and
    # under a stand-in contraction by e_1 alone that kills H_1 the one
    # nonzero cross term, L_[w_c ∧ w_c'] ι_1 ι_1 on H_3, is zero for the
    # first pair of S and not for a later one
    K = KoszulComplex(make_artinian_quotient(
        PolyContext(GF2, ["x", "y", "z"]), ["x^2", "y^2", "z^2"]))
    differences = check_identity_all(K).differences
    monkeypatch.setattr(koszul, "contract", _stand_in_contraction(K, first_only=True))
    monkeypatch.setattr(K, "structure", koszul.StructureConstants(K))
    decided = analyze._lift_pair_decisions(K, differences)
    assert decided == _pair_decisions_by_definition(K, differences) == (False, True, True)


def _cross_term_ring(field):
    """f2_identity_false ⊗ k[s]/(s^2): some products M_(g,c) M_(h,c') are nonzero on H."""
    ctx = PolyContext(field, ["x", "y", "z", "w", "s"])
    return make_artinian_quotient(
        ctx, ["x^2", "y^2", "z^2", "w^3", "y*z - x*w", "y*w^2", "s^2"])


@pytest.mark.parametrize("field", [GF2, exactalg.PrimeField(3), QQ],
                         ids=["F2", "F3", "Q"])
def test_pair_decisions_hold_with_nonzero_cross_terms(field):
    # on the fixtures every product of two M vanishes, and with it every
    # cross term; here 12 products over pairs of lifts and degrees do not,
    # and the decisions still hold, as they do on every ring
    K = KoszulComplex(_cross_term_ring(field))
    verdict = check_identity_all(K)
    assert verdict.overall is False
    nonzero = 0
    for i in range(K.ring.codepth + 1):
        dim = homology_basis(K, i).dim
        M = [exactalg.Matrix.from_columns(field, diff[i], dim) for diff in verdict.differences]
        M = [a for a in M if not a.is_zero()]  # a zero factor gives a zero product
        nonzero += sum(not a.mul(b).is_zero() for a in M for b in M)
    assert nonzero == 12
    assert analyze._lift_pair_decisions(K, verdict.differences) == (
        True, True, True if field.characteristic else None)


# ---------------------------------------------------------------- pairings


def test_poincare_pairing_ci(K_ci):
    info = poincare_pairing(K_ci, 1)
    assert info["dim_top"] == 1
    assert info["is_perfect"] is True
    assert info["matrix"].nrows == 2
    assert poincare_pairing(K_ci, 0)["is_perfect"] is True


def test_poincare_pairing_golod_fails():
    K = KoszulComplex(conftest.golod_ring())
    info = poincare_pairing(K, 1)
    assert info["dim_top"] == 2
    assert info["is_perfect"] is False


def test_poincare_pairing_gorenstein(K_gorenstein):
    c = K_gorenstein.ring.codepth
    for i in range(c + 1):
        assert poincare_pairing(K_gorenstein, i)["is_perfect"] is True


# ------------------------------------------------------------------ suites


def test_run_suite_ci(K_ci):
    rep = run_suite(K_ci)
    assert rep["complete_intersection"] is True
    assert rep["identity"]["overall"] is True
    assert rep["group_law"] is True
    assert rep["abelian"] is True
    assert rep["exponent_p"] is True
    assert rep["gr_identity"] is True
    assert rep["gorenstein"]["is_pd_algebra"] is True
    assert rep["duality_propagation"] is True
    assert rep["order"] == 2
    assert rep["h1_relations_consistent"] is True
    assert rep == run_suite(K_ci)


def test_run_suite_computes_each_difference_set_once(monkeypatch):
    # the difference sets come from the structure constants, and within one
    # run_suite no table entry is filled twice: each fill is one wedge or
    # one contract, and nothing else in the suite takes either
    calls = _count_structure_work(monkeypatch)
    for name in _FIXTURES_BUT_X98:
        K = KoszulComplex(load_ring_spec(conftest.fixture_path(name)))
        calls.clear()
        run_suite(K)
        assert calls["wedge"] == len(K.structure.products), name
        assert calls["contract"] == len(K.structure.contractions), name
    K = KoszulComplex(conftest.ci_f2())
    report = run_suite(K)
    # n * (dim H_1 + dim H_2) contractions
    assert len(K.structure.contractions) == K.n * (2 + 1) == 6
    assert report["identity"]["overall"] is True
    assert report["gr_identity"] is True


def _counted(counter, name, fn):
    def counted(*args):
        counter[name] += 1
        return fn(*args)
    return counted


def test_suite_products_make_no_normal_form_calls(monkeypatch):
    # every product of the suite (identity columns, the cross terms of the
    # group law, relations as cycles) reads the product table
    R = load_ring_spec(conftest.fixture_path("f2_destefani.json"))
    K = KoszulComplex(R)
    calls = {"normal_form": 0, "mul": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gring, "normal_form", counted("normal_form", gring.normal_form))
    monkeypatch.setattr(polyring, "normal_form",
                        counted("normal_form", polyring.normal_form))
    monkeypatch.setattr(polyring, "_reduce", counted("normal_form", polyring._reduce))
    monkeypatch.setattr(gring.ArtinianQuotient, "_mul",
                        counted("mul", gring.ArtinianQuotient._mul))
    report = run_suite(K)
    assert calls["normal_form"] == 0
    assert calls["mul"] > 0  # the products do go through the ring
    assert report["group_law"] is True and report["h1_relations_consistent"] is True


def test_run_suite_q(K_q):
    rep = run_suite(K_q)
    assert rep["identity"]["overall"] is False
    assert rep["exponent_p"] is None
    assert rep["complete_intersection"] is False
    assert rep["h1_relations_consistent"] is True
    assert rep["products"]["(1,1)"] is False


def test_run_suite_semigroup(K_aci):
    rep = run_suite(K_aci)
    assert rep["identity"]["overall"] is False
    assert rep["group_law"] is True
    assert rep["abelian"] is True
    assert rep["exponent_p"] is True
    assert rep["gr_identity"] is True
    assert rep["h1_relations_consistent"] is None
    assert rep["order"] == 2


def test_slow_suite_row3(K_row3):
    rep = slow_suite(K_row3)
    assert rep["order"] == 2
    assert rep["filtration"]["2"] == {"full_level": 4, "vanishing_level": 5}
    assert rep["identity_by_filtration"]["1"] is True
    assert rep["identity_by_filtration"]["2"] is True
    # cross-check the dims-only conclusions against the direct machinery
    assert filtration_dim(K_row3, 2, 4) == homology_basis(K_row3, 2).dim
    assert filtration_dim(K_row3, 2, 5) == 0
    assert check_identity_all(K_row3).overall is True


def test_slow_suite_bound_can_be_inconclusive(K_q):
    # H_2 spans degrees 3..4 and ord = 2, so the level-shift bound cannot
    # conclude; False here means "not provable", and indeed the identity
    # genuinely fails on this ring
    rep = slow_suite(K_q)
    assert rep["identity_by_filtration"]["2"] is False


def test_slow_suite_rejects_non_standard(K_aci, K_weighted):
    with pytest.raises(ValueError):
        slow_suite(K_aci)
    with pytest.raises(ValueError):
        slow_suite(K_weighted)

