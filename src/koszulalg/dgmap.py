"""Lifts of id_R to dg endomorphisms of K(f) and their action on homology.

A lift is an n x n matrix Phi of ring elements with column i encoding
phi(e_i) = sum_j Phi[j][i] e_j, subject to sum_j Phi[j][i] x_j = x_i
(the commuting square over id_R).  Such a phi extends multiplicatively
to a dg-algebra endomorphism K(phi), automatically an automorphism.
Lifts need not be homogeneous; induced maps on homology are computed
on the full degree-summed basis.

homotopy_for_boundary_delta implements the explicit chain homotopy
for a perturbation of one generator by a boundary d(s): on a basis
monomial e_{j_1..j_m} containing the perturbed index at 1-based slot
l it is (-1)^(l-1) phi(e_{j_1}) ^ .. ^ s ^ .. ^ phi(e_{j_m}), and the
identity dh + hd = K(phi+delta) - K(phi) is checked on every strand
basis element up to truncation.
"""

from __future__ import annotations

from koszulalg.exactalg import Matrix
from koszulalg.koszul import (
    KoszulComplex,
    KoszulElement,
    class_of,
    differential,
    homology_basis,
    wedge,
)


class LiftError(ValueError):
    """Violation of the lift condition or malformed lift data."""


class Lift:
    """Validated lift phi with memoized subset images."""

    __slots__ = ("complex", "entries", "_subset_images")

    def __init__(self, complex_, entries):
        K = complex_
        n = K.n
        if len(entries) != n or any(len(row) != n for row in entries):
            raise LiftError("lift matrix must be %d x %d" % (n, n))
        ring = K.ring
        for i in range(n):
            total = ring.zero()
            for j in range(n):
                total = total + entries[j][i] * ring.generator(j)
            if total != ring.generator(i):
                raise LiftError(
                    "lift condition fails in column %d: sum_j Phi[j][%d] x_j != x_%d"
                    % (i + 1, i + 1, i + 1))
        self.complex = K
        self.entries = [list(row) for row in entries]
        self._subset_images = {(): KoszulElement(K, {(): ring.one()})}

    def image_of_generator(self, i):
        """phi(e_i) as a degree-1 element."""
        K = self.complex
        data = {}
        for j in range(K.n):
            r = self.entries[j][i]
            if not r.is_zero():
                data[(j,)] = r
        return KoszulElement(K, data)

    def _subset_image(self, S):
        if S in self._subset_images:
            return self._subset_images[S]
        img = self._subset_image(S[:-1])
        img = wedge(img, self.image_of_generator(S[-1]))
        self._subset_images[S] = img
        return img

    def apply(self, u):
        """K(phi)(u)."""
        K = self.complex
        out = K.zero_element()
        for S, r in u.data.items():
            term = self._subset_image(S).coeff_mul(r)
            out = out + term
        return out

    def perturbed(self, i, z):
        """The lift with column i increased by the coefficients of z."""
        K = self.complex
        deg = z.homological_degree()
        if not z.is_zero() and deg != 1:
            raise LiftError("perturbation must be a degree-1 element")
        if not differential(z).is_zero():
            raise LiftError("perturbation must be a cycle (f applied to it must vanish)")
        entries = [list(row) for row in self.entries]
        for (j,), r in z.data.items():
            entries[j][i] = entries[j][i] + r
        return Lift(K, entries)

    def __repr__(self):
        return "Lift(n=%d)" % self.complex.n


class InducedMap:
    """Matrix of H_i(phi) in the chosen homology basis."""

    __slots__ = ("i", "matrix")

    def __init__(self, i, matrix):
        self.i = i
        self.matrix = matrix

    @property
    def is_identity(self):
        return self.matrix == Matrix.identity(self.matrix.field, self.matrix.nrows)

    def difference_columns(self):
        """Columns of H_i(phi) - id, one per basis class."""
        F = self.matrix.field
        rows = self.matrix.rows
        return [
            [F.sub(rows[r][j], F.one if r == j else F.zero)
             for r in range(self.matrix.nrows)]
            for j in range(self.matrix.ncols)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, InducedMap)
            and self.i == other.i
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return "InducedMap(H_%d, %dx%d, identity=%s)" % (
            self.i, self.matrix.nrows, self.matrix.ncols, self.is_identity)


def make_lift(K, entries):
    """Validate an n x n matrix of RingElements as a lift of id_R."""
    if not isinstance(K, KoszulComplex):
        raise TypeError("expected a KoszulComplex")
    return Lift(K, entries)


def identity_lift(K):
    ring = K.ring
    entries = [
        [ring.one() if i == j else ring.zero() for i in range(K.n)]
        for j in range(K.n)
    ]
    return Lift(K, entries)


def elementary_lift(K, i, z):
    """e_i -> e_i + z for a degree-1 cycle z, identity elsewhere."""
    if not (0 <= i < K.n):
        raise LiftError("generator index out of range")
    return identity_lift(K).perturbed(i, z)


def lift_from_delta(K, delta):
    """Identity plus a full DeltaAssignment {index: degree-1 cycle}."""
    phi = identity_lift(K)
    for i, z in sorted(delta.items()):
        phi = phi.perturbed(i, z)
    return phi


def induced_map(phi, i):
    """Matrix of H_i(phi): column j is the class of phi applied to rep j."""
    K = phi.complex
    basis = homology_basis(K, i)
    cols = []
    for cls in basis.classes:
        img = phi.apply(cls.element)
        cols.append(class_of(K, i, img))
    if not cols:
        return InducedMap(i, Matrix.identity(K.field, 0))
    return InducedMap(i, Matrix.from_columns(K.field, cols, basis.dim))


def compose_induced(A, B):
    """The induced map of the composition: A after B."""
    if A.i != B.i:
        raise ValueError("homological degree mismatch")
    return InducedMap(A.i, A.matrix.mul(B.matrix))


class Homotopy:
    """The degree +1 map h with dh + hd = K(phi+delta) - K(phi)."""

    __slots__ = ("complex", "index", "s", "phi", "phi_delta", "_images")

    def __init__(self, complex_, index, s, phi, phi_delta):
        self.complex = complex_
        self.index = index
        self.s = s
        self.phi = phi
        self.phi_delta = phi_delta
        self._images = {}

    def image_of_subset(self, S):
        """h(e_S): zero unless the perturbed index occurs in S."""
        if S in self._images:
            return self._images[S]
        K = self.complex
        if self.index not in S:
            out = K.zero_element()
        else:
            p = S.index(self.index)
            out = KoszulElement(K, {(): K.ring.one()})
            for t, j in enumerate(S):
                factor = self.s if t == p else self.phi.image_of_generator(j)
                out = wedge(out, factor)
            if p % 2 == 1:
                out = -out
        self._images[S] = out
        return out

    def apply(self, u):
        K = self.complex
        out = K.zero_element()
        for S, r in u.data.items():
            out = out + self.image_of_subset(S).coeff_mul(r)
        return out

    def verify_on_basis(self):
        """Check dh + hd = K(phi+delta) - K(phi) on every strand basis element."""
        K = self.complex
        for d in range(K.truncation + 1):
            for i in range(K.n + 1):
                for u in K.strand_basis_elements(i, d):
                    lhs = differential(self.apply(u)) + self.apply(differential(u))
                    rhs = self.phi_delta.apply(u) - self.phi.apply(u)
                    if lhs != rhs:
                        return False, (i, d, u)
        return True, None


def homotopy_for_boundary_delta(K, i, s, phi, delta=None):
    """Chain homotopy for the perturbation of e_i by the boundary d(s).

    s must be a homological-degree-2 element; delta, when supplied, is
    checked to equal d(s).  The homotopy identity is verified on the
    full strand basis up to truncation before returning.
    """
    if not (0 <= i < K.n):
        raise LiftError("generator index out of range")
    ds = differential(s)
    if delta is not None and delta != ds:
        raise LiftError("delta(e_i) differs from d(s)")
    hdeg = s.homological_degree()
    if not s.is_zero() and hdeg != 2:
        raise LiftError("s must have homological degree 2")
    phi_delta = phi.perturbed(i, ds)
    h = Homotopy(K, i, s, phi, phi_delta)
    ok, witness = h.verify_on_basis()
    if not ok:
        raise LiftError(
            "homotopy identity failed on strand basis element %r" % (witness,))
    return h
