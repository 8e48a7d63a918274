"""Lifts of the identity, induced maps on homology, homotopies."""

import pytest

from koszulalg.exactalg import Matrix
from koszulalg.koszul import KoszulComplex, class_of, differential, homology_basis
from koszulalg.dgmap import (
    Lift,
    LiftError,
    compose_induced,
    elementary_lift,
    homotopy_for_boundary_delta,
    identity_lift,
    induced_map,
    lift_from_delta,
    make_lift,
)

import conftest


def test_identity_lift_is_identity_everywhere(K_ci):
    phi = identity_lift(K_ci)
    for i in range(K_ci.n + 1):
        assert induced_map(phi, i).is_identity


def test_lift_shape_validation(K_ci):
    R = K_ci.ring
    with pytest.raises(LiftError):
        make_lift(K_ci, [[R.one()]])


def test_lift_condition_validation(K_ci):
    R = K_ci.ring
    entries = [
        [R.zero(), R.zero()],
        [R.zero(), R.one()],
    ]
    with pytest.raises(LiftError) as e:
        make_lift(K_ci, entries)
    assert "column 1" in str(e.value)


def test_unit_diagonal_is_a_valid_lift(K_ci):
    # (1+x) x = x since x^2 = 0, so a unit diagonal entry is allowed
    R = K_ci.ring
    entries = [
        [R.one() + R.generator(0), R.zero()],
        [R.zero(), R.one()],
    ]
    phi = make_lift(K_ci, entries)
    assert induced_map(phi, 1).is_identity
    assert induced_map(phi, 2).is_identity


def test_perturbation_must_be_a_cycle(K_ci):
    R = K_ci.ring
    z = K_ci.element({(0,): R.generator(1)})  # d(y e1) = yx != 0
    with pytest.raises(LiftError):
        elementary_lift(K_ci, 0, z)


def test_elementary_lift_index_range(K_ci):
    with pytest.raises(LiftError):
        elementary_lift(K_ci, 5, K_ci.zero_element())


def test_elementary_lift_images(K_ci):
    R = K_ci.ring
    z = K_ci.element({(0,): R.generator(0)})  # x e1, a cycle since x^2 = 0
    phi = elementary_lift(K_ci, 0, z)
    img = phi.image_of_generator(0)
    assert img == K_ci.generator_element(0) + z
    assert phi.image_of_generator(1) == K_ci.generator_element(1)


def test_complete_intersection_always_identity(K_ci):
    b1 = homology_basis(K_ci, 1)
    for cls in b1.classes:
        for i in range(K_ci.n):
            phi = elementary_lift(K_ci, i, cls.element)
            for deg in range(K_ci.n + 1):
                assert induced_map(phi, deg).is_identity


def _witness_lift(K):
    """e1 -> e1 + t^16 e3 + t^15 e4 on the (6,10,14,15) semigroup ring."""
    R = K.ring
    z = K.element({(2,): R.parse_element("t^16"), (3,): R.parse_element("t^15")})
    return elementary_lift(K, 0, z)


def test_witness_lift_not_identity_in_h2(K_aci):
    phi = _witness_lift(K_aci)
    assert induced_map(phi, 1).is_identity
    assert not induced_map(phi, 2).is_identity


def test_h1_always_identity(K_aci, K_q):
    phi = _witness_lift(K_aci)
    assert induced_map(phi, 1).is_identity
    z = K_q.element({(0,): K_q.ring.generator(0)})
    psi = elementary_lift(K_q, 0, z)
    assert induced_map(psi, 1).is_identity


def test_degree_raising_lift_keeps_its_complex(K_aci):
    phi = _witness_lift(K_aci)
    # both terms shift degree by 24 (16 + 14 - 6 and 15 + 15 - 6), so
    # images of cycles reach past the truncation; class_of handles them
    assert phi.complex is K_aci
    m2 = induced_map(phi, 2)
    assert not m2.is_identity
    assert compose_induced(m2, m2).is_identity


def test_exponent_two_group_law(K_aci):
    phi = _witness_lift(K_aci)
    m2 = induced_map(phi, 2)
    assert not m2.is_identity
    assert compose_induced(m2, m2).is_identity


def test_composition_entries_are_matrix_product(K_aci):
    K = K_aci
    phi = _witness_lift(K)
    KK = phi.complex
    b1 = homology_basis(KK, 1)
    psi = elementary_lift(KK, 1, b1.classes[0].element)
    # phi and psi are R-linear on generators, so composition = entry product
    R = KK.ring
    entries = []
    for k in range(KK.n):
        row = []
        for i in range(KK.n):
            acc = R.zero()
            for j in range(KK.n):
                acc = acc + phi.entries[k][j] * psi.entries[j][i]
            row.append(acc)
        entries.append(row)
    chi = make_lift(KK, entries)
    for deg in (1, 2, 3):
        a = induced_map(phi, deg)
        b = induced_map(psi, deg)
        assert induced_map(chi, deg) == compose_induced(a, b)


def test_lift_from_delta(K_ci):
    R = K_ci.ring
    delta = {
        0: K_ci.element({(0,): R.generator(0)}),
        1: K_ci.element({(1,): R.generator(1)}),
    }
    phi = lift_from_delta(K_ci, delta)
    assert phi.image_of_generator(0) == K_ci.generator_element(0) + delta[0]
    assert phi.image_of_generator(1) == K_ci.generator_element(1) + delta[1]


def test_boundary_delta_induces_identity(K_q):
    R = K_q.ring
    # s = z e1^e2, delta = d(s) = zx e2 - zy e1, nonzero in the ring
    s = K_q.element({(0, 1): R.generator(2)})
    delta = differential(s)
    assert not delta.is_zero()
    phi = elementary_lift(K_q, 0, delta)
    for i in range(K_q.n + 1):
        assert induced_map(phi, i).is_identity


def test_homotopy_verifies(K_q):
    R = K_q.ring
    s = K_q.element({(0, 1): R.generator(2)})
    phi = identity_lift(K_q)
    h = homotopy_for_boundary_delta(K_q, 0, s, phi)
    ok, witness = h.verify_on_basis()
    assert ok and witness is None
    # h vanishes on subsets avoiding the perturbed generator
    assert h.image_of_subset((1, 2)).is_zero()
    assert h.image_of_subset((0,)) == s


def test_homotopy_delta_mismatch(K_q):
    R = K_q.ring
    s = K_q.element({(0, 1): R.generator(2)})
    wrong = K_q.element({(1,): R.generator(0)})
    with pytest.raises(LiftError):
        homotopy_for_boundary_delta(K_q, 0, s, identity_lift(K_q), delta=wrong)


def test_homotopy_s_degree_check(K_q):
    s = K_q.generator_element(0)
    with pytest.raises(LiftError):
        homotopy_for_boundary_delta(K_q, 0, s, identity_lift(K_q))


def test_apply_is_algebra_map(K_ci):
    from koszulalg.koszul import wedge
    R = K_ci.ring
    z = K_ci.element({(0,): R.generator(0)})
    phi = elementary_lift(K_ci, 0, z)
    u = K_ci.generator_element(0)
    v = K_ci.generator_element(1).coeff_mul(R.generator(1))
    assert phi.apply(wedge(u, v)) == wedge(phi.apply(u), phi.apply(v))
    assert phi.apply(differential(u)) == differential(phi.apply(u))


def test_induced_map_equality():
    from koszulalg.exactalg import GF2
    a = Matrix.identity(GF2, 2)
    from koszulalg.dgmap import InducedMap
    m1 = InducedMap(1, a)
    m2 = InducedMap(1, Matrix.identity(GF2, 2))
    assert m1 == m2
    assert m1.is_identity
