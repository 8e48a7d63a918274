import os

import pytest

from koszulalg.exactalg import GF2, QQ, Matrix, PrimeField, kernel_basis, rref
from koszulalg.polyring import PolyContext
from koszulalg.gring import make_artinian_quotient, make_semigroup_ring
from koszulalg.koszul import KoszulComplex

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def subspace_intersect(U, V, field, ambient):
    """Basis of span(U) ∩ span(V), canonical (rref rows of the result).

    Computed from the kernel of the stacked system [U^T | -V^T]: a
    kernel vector (a, b) witnesses sum a_i U_i = sum b_j V_j.
    """
    if not U or not V:
        return []
    columns = list(U) + [[field.neg(a) for a in v] for v in V]
    vecs = []
    for k in kernel_basis(Matrix.from_columns(field, columns, ambient)):
        w = [field.zero] * ambient
        for a, u in zip(k, U):
            if a != field.zero:
                w = [field.add(x, field.mul(a, y)) for x, y in zip(w, u)]
        vecs.append(w)
    if not vecs:
        return []
    R, pivots = rref(Matrix(field, vecs, ambient))
    return R.rows[:len(pivots)]


def ci_f2():
    ctx = PolyContext(GF2, ["x", "y"])
    return make_artinian_quotient(ctx, ["x^2", "y^2"])


def q_ring():
    """Q[x,y,z]/(x^2,xy,y^2,z^2), the infinite-order example."""
    ctx = PolyContext(QQ, ["x", "y", "z"])
    return make_artinian_quotient(ctx, ["x^2", "x*y", "y^2", "z^2"])


def weighted_23(field=GF2):
    ctx = PolyContext(field, ["x", "y"], [2, 3])
    return make_artinian_quotient(ctx, ["x^3 + y^2", "y^3"])


def row3_ring(field=GF2):
    ctx = PolyContext(field, ["x", "y", "z", "w"])
    return make_artinian_quotient(
        ctx, ["x^2", "y^2", "z^2", "w^2", "y*z - x*w"])


def golod_ring():
    ctx = PolyContext(GF2, ["x", "y"])
    return make_artinian_quotient(ctx, ["x^2", "x*y", "y^2"])


def semigroup_6101415(field=GF2):
    return make_semigroup_ring(field, [6, 10, 14, 15])


def semigroup_910111317():
    return make_semigroup_ring(GF2, [9, 10, 11, 13, 17])


_complex_cache = {}


def build_q_complex():
    """Shared complex for property tests; hypothesis dislikes fixtures."""
    if "q" not in _complex_cache:
        _complex_cache["q"] = KoszulComplex(q_ring())
    return _complex_cache["q"]


@pytest.fixture(scope="session")
def K_ci():
    return KoszulComplex(ci_f2())


@pytest.fixture(scope="session")
def K_q():
    return KoszulComplex(q_ring())


@pytest.fixture(scope="session")
def K_weighted():
    return KoszulComplex(weighted_23())


@pytest.fixture(scope="session")
def K_row3():
    return KoszulComplex(row3_ring())


@pytest.fixture(scope="session")
def K_aci():
    return KoszulComplex(semigroup_6101415())


@pytest.fixture(scope="session")
def K_gorenstein():
    return KoszulComplex(semigroup_910111317())
