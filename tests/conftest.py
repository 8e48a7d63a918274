import collections
import os

import pytest

from koszulalg import koszul
from koszulalg.exactalg import GF2, QQ, Matrix, PrimeField, kernel_basis, rref
from koszulalg.polyring import PolyContext, mono_divides
from koszulalg.gring import make_artinian_quotient, make_semigroup_ring
from koszulalg.koszul import (
    KoszulComplex,
    class_of,
    contract,
    differential,
    homology_basis,
    strand_ranks,
    wedge,
)
from koszulalg.dgmap import elementary_lift, lift_from_delta

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


def sparse(vec):
    """A dense vector as the engine's {position: nonzero scalar} dict."""
    return {c: a for c, a in enumerate(vec) if a}


def dense(field, n, vec):
    """A {position: scalar} vector as a list of length n."""
    return [vec.get(c, field.zero) for c in range(n)]


def monomials_of_weight(ctx, d):
    """All exponent tuples of weighted degree exactly d (unordered)."""
    out = []
    mono = [0] * ctx.nvars

    def walk(i, rem):
        if i == ctx.nvars - 1:
            w = ctx.weights[i]
            if rem % w == 0:
                mono[i] = rem // w
                out.append(tuple(mono))
                mono[i] = 0
            return
        w = ctx.weights[i]
        for e in range(rem // w + 1):
            mono[i] = e
            walk(i + 1, rem - e * w)
        mono[i] = 0

    if d >= 0:
        walk(0, d)
    return out


def standard_monomials(gb, d):
    """Monomials of weighted degree d outside LT(I), in decreasing term order.

    These are a k-basis of (P/I)_d: the reference the quotient ring's
    staircase is tested against.
    """
    ctx = gb.ctx
    lms = gb.leading_monomials()
    out = []
    for m in monomials_of_weight(ctx, d):
        if not any(mono_divides(lm, m) for lm in lms):
            out.append(m)
    out.sort(key=ctx.key, reverse=True)
    return out


def diff_matrix(K, i, d):
    """d_{i,d} as a dense exact Matrix, filled from K.diff_columns(i, d)."""
    columns = K.diff_columns(i, d)
    m = Matrix.zeros(K.field, K.strand_dim(i - 1, d), len(columns))
    for c, column in enumerate(columns):
        for r, a in column.items():
            m.rows[r][c] = a
    return m


def reference_strand(K, i, d):
    """d_{i,d} as [row, col, coeff] lists, one mult_triplets table per (subset, face).

    The block from subset S to S minus its l-th element j is the table
    of x_j on R_{d-w(S)} with sign (-1)^l, placed at the offsets of the
    two blocks.  It reads neither ring.mult_range nor
    KoszulComplex.diff_triplets, so the rank oracle and the batch tests
    can check the rank-only assembly against it.
    """
    F = K.field
    src, _ = K.strand_offsets(i, d)
    dst, _ = K.strand_offsets(i - 1, d)
    out = []
    for s_pos, base in enumerate(src):
        a = d - K.subset_weights[i][s_pos]
        for l, j, t_pos in K.faces[i][s_pos]:
            for r, c, v in K.ring.mult_triplets(j, a).tolist():
                out.append([dst[t_pos] + r, base + c, F.neg(v) if l % 2 else v])
    return out


def reference_batch(K, i, d, stop, strand=reference_strand):
    """strand(K, i, e) for e = d..stop-1, stacked block-diagonally in degree order."""
    out, row, col = [], 0, 0
    for e in range(d, stop):
        out += [[r + row, c + col, v] for r, c, v in strand(K, i, e)]
        row += K.strand_dim(i - 1, e)
        col += K.strand_dim(i, e)
    return out


def count_assemblies(monkeypatch):
    """(in_pass, on_demand): Counters of K.diff_columns calls per (i, d) from now on.

    in_pass counts the calls that _homology_pass makes, on_demand the
    others (class_of in a strand without a class).
    """
    in_pass, on_demand = collections.Counter(), collections.Counter()
    assemble, homology_pass = KoszulComplex.diff_columns, koszul._homology_pass
    passes = []

    def counted(self, i, d):
        (in_pass if passes else on_demand)[(i, d)] += 1
        return assemble(self, i, d)

    def flagged(K, top):
        passes.append(top)
        try:
            return homology_pass(K, top)
        finally:
            passes.pop()

    monkeypatch.setattr(KoszulComplex, "diff_columns", counted)
    monkeypatch.setattr(koszul, "_homology_pass", flagged)
    return in_pass, on_demand


def assert_on_demand_only_where_classless(K, on_demand):
    """Each strand class_of assembled holds no class, and was assembled once."""
    for (i, d), count in on_demand.items():
        assert count == 1, (i, d)
        assert all(cls.degree != d for cls in homology_basis(K, i).classes), (i, d)


def representative(K, i, coords):
    """The linear combination of the basis representatives of H_i with these coordinates."""
    basis = homology_basis(K, i)
    if len(coords) != basis.dim:
        raise ValueError("coordinate length mismatch")
    out = K.zero_element()
    for c, cls in zip(coords, basis.classes):
        if c != K.field.zero:
            out = out + cls.element.scale(c)
    return out


def elementary_differences(K, g, z, degrees):
    """Columns of H_i(phi) - id for phi = (e_g -> e_g + z), per degree i, one lift at a time.

    The column on the j-th basis class [w] of H_i is the class of
    z ∧ ι_g(w), since phi - id = z ∧ ι_g on K: one contraction, one
    wedge and one class_of per column, the element path that
    check_identity_all's structure constants replace.
    """
    return {
        i: [class_of(K, i, wedge(z, contract(cls.element, g)))
            for cls in homology_basis(K, i).classes]
        for i in degrees
    }


def cycle_degrees(K, i):
    """The internal degrees d <= truncation with Z_{i,d} != 0, read off strand_ranks."""
    ranks = strand_ranks(K)
    return [d for d in range(K.truncation + 1)
            if K.strand_dim(i, d) > ranks.get((i, d), 0)]


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


# --------------------------------------------------------------- random lifts

def random_h1_cycle(K, rng):
    """Random combination of H_1 representatives (possibly zero)."""
    h1 = homology_basis(K, 1)
    F = K.field
    z = K.zero_element()
    for cls in h1.classes:
        c = _random_scalar(F, rng)
        if c != F.zero:
            z = z + cls.element.scale(c)
    return z


def random_boundary(K, i, rng, max_tries=8):
    """d of a random element of K_{i+1} drawn from the strata where Z_{i+1} != 0."""
    if i + 1 > K.n:
        return K.zero_element()
    degrees = cycle_degrees(K, i + 1)
    w = K.zero_element()
    for _ in range(max_tries):
        if not degrees:
            break
        d = rng.choice(degrees)
        elems = K.strand_basis_elements(i + 1, d)
        if not elems:
            continue
        u = rng.choice(elems)
        c = _random_scalar(K.field, rng)
        if c != K.field.zero:
            w = w + u.scale(c)
    return differential(w)


def _random_scalar(field, rng):
    if field.characteristic == 0:
        return field.from_int(rng.randint(-3, 3))
    return field.from_int(rng.randrange(field.characteristic))


def random_elementary_lift(K, rng, with_boundary=False):
    """Elementary lift at a random index by a random H_1 cycle."""
    i = rng.randrange(K.n)
    z = random_h1_cycle(K, rng)
    if with_boundary:
        z = z + random_boundary(K, 1, rng)
    return elementary_lift(K, i, z), i, z


def random_lift(K, rng, with_boundary=True):
    """General lift: identity plus random cycle perturbations of several columns."""
    delta = {}
    for i in range(K.n):
        if rng.random() < 0.6:
            z = random_h1_cycle(K, rng)
            if with_boundary and rng.random() < 0.5:
                z = z + random_boundary(K, 1, rng)
            if not z.is_zero():
                delta[i] = z
    return lift_from_delta(K, delta)


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
