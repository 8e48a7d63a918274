"""Decision procedures and theorem verifiers on a Koszul complex.

check_identity_all decides whether every dg-algebra automorphism of
K(f) induces the identity on homology by testing the finite reduced
set of elementary lifts e_g -> e_g + z over a basis of H_1: over F_p
this set generates the image of the lift action up to homotopy; over
Q it still suffices because induced maps are unipotent with respect
to the filtration by internal degree, the lift action is a group
homomorphism, and a torsion unipotent matrix in characteristic zero
is the identity.  Multiplying out phi(e_S) = ∏_{s in S} (e_s + z_s)
gives, for the lift phi = id + {t: z_t},
H_i(phi) = Σ_{T ⊆ supp} L_[z_t1 ∧ ... ∧ z_tk] ι_tk^H ... ι_t1^H
(t1 < ... < tk, L_u left multiplication by u on H), which the tests pin
against induced_map.

No elementary lift is ever applied.  For phi = (e_g -> e_g + z),
phi - id = z ∧ ι_g on all of K, where ι_g is contraction by e_g^*, so
H_i(phi) - id = L_[z] ι_g^H.  Both factors are read off the structure
constants the complex keeps (koszul.StructureConstants): for z = w_c,
the c-th basis representative of H_1, L_[w_c]: H_(i-1) -> H_i holds the
products h_1.c * h_(i-1).a and ι_g^H: H_i -> H_(i-1) the classes of the
contractions of the basis representatives.  So check_identity_all takes
dim H_1 * Σ_(i>=1) dim H_(i-1) products and n * Σ_(i>=1) dim H_i
contractions, not one product per lift and class, and forms every
M_(g,c) = L_[w_c] ι_g^H of a degree in one matrix product.  The Lift
path in dgmap stays the oracle the tests compare it against.

The m-adic filtration F^l K_i = m^(l-i) K_i induces F^l H_i; levels,
graded quotients, products on gr, the ring order formula
ord(R) = sup{l : F^l H_1 = H_1}, and the Poincare pairing of a
Gorenstein ring are all computed exactly.  run_suite bundles every
in-scope check into one machine-readable report; its group law,
abelianness and exponent p are decided over every pair of elementary
lifts from products of their difference matrices.

Filtration queries are answered in class coordinates.  Since B ⊂ Z, a
cycle lies in (Z ∩ F^l) + B exactly when it lies in F^l + B.  So each
strand (i, d) with k classes has one filtration table, built on its
first query: k independent linear forms on the class coordinates, each
with a level, such that a class is in F^l H_i iff every form of level
< l kills it.  One rref of the boundary columns, the slices of m^a K
and the representatives gives the forms, each at the level read off
the column group of its row's pivot; a second rref, the forms as
columns, selects the first k independent ones (see _filtration_table).
The level of a class is the least level of a form that does not kill
it, dim F^l counts the forms of level >= l, the dual basis of the forms
is adapted to the filtration, and ord(R) is the least form level on H_1.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from koszulalg import exactalg
from koszulalg.exactalg import Matrix
from koszulalg.gring import ArtinianQuotient
from koszulalg.koszul import (
    _homology_through,
    betti_table,
    class_of,  # noqa: F401 -- bench/tracing.py wraps this binding
    differential,  # noqa: F401 -- bench/tracing.py wraps this binding
    h1_from_relations,
    homology_basis,
    homology_product,
    product_vanishing,
)
from koszulalg.dgmap import induced_map  # noqa: F401 -- bench/tracing.py wraps this binding


class IdentityVerdict:
    """Outcome of the all-automorphisms identity decision.

    differences holds the columns it was decided on, one
    {i: columns of H_i(phi) - id} per elementary lift, generator-major.
    """

    def __init__(self, overall, per_degree, witnesses, differences):
        self.overall = overall
        self.per_degree = per_degree
        self.witnesses = witnesses
        self.differences = differences

    def to_json(self):
        return {
            "overall": self.overall,
            "per_degree": {str(i): v for i, v in sorted(self.per_degree.items())},
            "witnesses": [
                {
                    "generator": w["generator"] + 1,
                    "class_label": w["class_label"],
                    "degree": w["degree"],
                    "difference": [str(c) for c in w["difference"]],
                }
                for w in self.witnesses
            ],
        }

    def __repr__(self):
        return "IdentityVerdict(overall=%s)" % self.overall


def _is_standard_graded(K):
    return isinstance(K.ring, ArtinianQuotient) and all(w == 1 for w in K.weights)


def _array(K, entries, shape):
    """The coordinate lists entries as an array of this shape, coordinates last."""
    return np.array(entries, dtype=exactalg.triplet_dtype(K.field)).reshape(shape)


def _dim(K, i):
    return homology_basis(K, i).dim if 0 <= i <= K.n else 0


def _left(K, j, i):
    """L[c] = L_[h_j.c]: H_(i-j) -> H_i for every c, as a (dim H_j, dim H_i, dim H_(i-j)) array."""
    k, d, low = _dim(K, j), _dim(K, i), _dim(K, i - j)
    table = K.structure
    return _array(K, [table.product(j, c, i - j, a) for c in range(k) for a in range(low)]
                  if d else [], (k, low, d)).swapaxes(1, 2)


def _iota(K, i):
    """ι_g^H: H_i -> H_(i-1) for every g, as an (n, dim H_(i-1), dim H_i) array."""
    d, low = _dim(K, i), _dim(K, i - 1)
    table = K.structure
    return _array(K, [table.contraction(g, i, b) for g in range(K.n) for b in range(d)]
                  if low else [], (K.n, d, low)).swapaxes(1, 2)


def check_identity_all(K, degrees=None):
    """Decide H(phi) = id for all lifts via n * dim H_1 elementary checks.

    The matrix of H_i(phi) - id for phi = (e_g -> e_g + w_c) is
    M_(g,c) = L_[w_c] ι_g^H (see the module docstring); every M of one
    degree comes from one stacked matrix product.
    """
    F, n = K.field, K.n
    if degrees is None:
        degrees = list(range(K.ring.codepth + 1))
    h1 = homology_basis(K, 1)
    k = h1.dim
    columns = {}
    for i in degrees:
        d = _dim(K, i)
        if k and d and _dim(K, i - 1):
            M = exactalg.matmul(F, _left(K, 1, i)[None], _iota(K, i)[:, None])
        else:
            M = np.full((n, k, d, d), F.zero, dtype=exactalg.triplet_dtype(F))
        columns[i] = M.swapaxes(2, 3).tolist()  # columns[i][g][c]: the columns of M_(g,c)
    per_degree = {i: True for i in degrees}
    witnesses = []
    all_differences = []
    for gen in range(n):
        for c, cls in enumerate(h1.classes):
            differences = {i: columns[i][gen][c] for i in degrees}
            all_differences.append(differences)
            for i in degrees:
                for diff in differences[i]:
                    if any(a != F.zero for a in diff):
                        per_degree[i] = False
                        witnesses.append({
                            "generator": gen,
                            "class_label": cls.label,
                            "degree": i,
                            "difference": diff,
                        })
                        break
    overall = all(per_degree.values())
    return IdentityVerdict(overall, per_degree, witnesses, all_differences)


# ---------------------------------------------------------------- filtration

def _strand_power_vectors(K, i, d, a):
    """{position: scalar} vectors spanning the degree-d strand slice of m^a K_i."""
    offsets, _ = K.strand_offsets(i, d)
    return [{offsets[pos] + t: c for t, c in v.items()}
            for pos, wS in enumerate(K.subset_weights[i])
            for v in K.ring.max_ideal_power_vectors(a, d - wS)]


def _filtration_table(K, i, d, data):
    """Filtration table (levels, forms) of the strand (i, d), levels increasing.

    A class of the strand is in F^l iff every form of level < l kills its
    coordinates.  One rref is taken of the matrix with these {position:
    scalar} columns, densified for it: the boundary columns (a basis of
    B_{i,d}), then m^a K_{i,d} for a from the largest with a
    nonzero slice (a product of a generators has degree >= a * min
    weight) down to 1, then the k representatives.  Each group has a
    level, i + a for m^a and i for the representatives; the boundary
    columns have none.  A row of the rref is zero left of its pivot, so
    the rows with pivots after the group of m^a span the functionals
    y . [columns] with y killing B + m^a K, and a class is in F^(i+a)
    exactly when their last k entries vanish on it.  Every row with its
    pivot in a group with a level gives one form (its last k entries) at
    that level.  Of those forms, taken by increasing level, the table
    keeps the k independent ones that come first (the pivots of a second
    rref, the forms as columns): they cut out every F^l, and no nonzero
    class is in all of them.  Built on the first query and kept on the
    strand data.
    """
    if data.filtration is not None:
        return data.filtration
    F = K.field
    k = len(data.rep_vectors)
    if _is_standard_graded(K) or not k:
        # F^l is the filtration by internal degree: every level is d
        data.filtration = ([d] * k, Matrix.identity(F, k))
        return data.filtration
    columns = list(data.boundary)
    level_of = [None] * len(columns)
    for a in range((d - min(K.subset_weights[i])) // min(K.weights), 0, -1):
        group = _strand_power_vectors(K, i, d, a)
        columns += group
        level_of += [i + a] * len(group)
    columns += data.rep_vectors
    level_of += [i] * k
    red, pivots = exactalg.rref(Matrix.from_triplets(
        F, K.strand_dim(i, d), len(columns),
        ((r, c, a) for c, column in enumerate(columns) for r, a in column.items())))
    forms = sorted(((level_of[c], row[-k:]) for row, c in zip(red.rows, pivots)
                    if level_of[c] is not None), key=lambda form: form[0])
    _, picked = exactalg.rref(Matrix(F, zip(*(row for _, row in forms)), len(forms)))
    data.filtration = ([forms[c][0] for c in picked],
                       Matrix(F, [forms[c][1] for c in picked], k))
    return data.filtration


def filtration_dim(K, i, l):
    """dim F^l H_i, summed over internal degrees: the forms of level >= l."""
    return sum(
        level >= l
        for d, data in homology_basis(K, i).degree_data.items()
        for level in _filtration_table(K, i, d, data)[0])


def filtration_level(K, i, coords):
    """Largest l with the class in F^l H_i; math.inf for the zero class.

    It is the least level, over the internal degrees, of a form of the
    table that does not kill the class's coordinates there; the forms
    are walked by increasing level against the nonzero coordinates only.
    """
    basis = homology_basis(K, i)
    F = K.field
    if len(coords) != basis.dim:
        raise ValueError("coordinate length mismatch")
    p = F.characteristic
    level = math.inf
    for d in {cls.degree for cls, a in zip(basis.classes, coords) if a != F.zero}:
        data = basis.degree_data[d]
        levels, forms = _filtration_table(K, i, d, data)
        nonzero = [(t, coords[idx]) for t, idx in enumerate(data.class_indices)
                   if coords[idx] != F.zero]
        for lev, form in zip(levels, forms.rows):
            value = sum(form[t] * a for t, a in nonzero)
            if (value % p if p else value) != 0:
                level = min(level, lev)
                break
    return level


def class_levels(K, i):
    """filtration_level of each basis class of H_i: the least level of a form nonzero at it.

    Computed on the first query and kept on the basis; callers must not
    write to the list.
    """
    basis = homology_basis(K, i)
    if basis.levels is None:
        levels = [None] * basis.dim
        for d, data in basis.degree_data.items():
            table_levels, forms = _filtration_table(K, i, d, data)
            for t, idx in enumerate(data.class_indices):
                levels[idx] = next(lev for lev, form in zip(table_levels, forms.rows)
                                   if form[t] != K.field.zero)
        basis.levels = levels
    return basis.levels


def ring_order(K):
    """sup{l : F^l H_1 = H_1}; infinity when H_1 = 0 (regular ring).

    For a standard graded quotient F^l H_1 is the part of H_1 in
    internal degree >= l, and H_1 in degree d is (I/mI)_d, so the order
    is the lowest degree of a minimal generator of I.  Weighted and
    semigroup rings take the least form level of the filtration tables
    of H_1, which need only the strands of d_1 and d_2.
    """
    if _is_standard_graded(K):
        return min(K.ring.minimal_generator_counts(), default=math.inf)
    _homology_through(K, 1)
    return min((
        level
        for d, data in homology_basis(K, 1).degree_data.items()
        for level in _filtration_table(K, 1, d, data)[0]), default=math.inf)


class GrAlgebra:
    """Associated graded homology: dims per (i, level) and gr products.

    basis[i] holds (level, coords) pairs, by increasing level: the dual
    basis of each strand's filtration forms, which is adapted to the
    filtration, since the dual vector of a form of level l is killed by
    every other form and so has level l.
    """

    def __init__(self, K):
        self.complex = K
        F = K.field
        self.dims = {}
        self.basis = {}
        for i in range(K.ring.codepth + 1):
            hb = homology_basis(K, i)
            adapted = []
            for d in hb.degrees():
                data = hb.degree_data[d]
                levels, forms = _filtration_table(K, i, d, data)
                for level, dual in zip(levels, _inverse_columns(forms)):
                    full = [F.zero] * hb.dim
                    for idx, a in zip(data.class_indices, dual):
                        full[idx] = a
                    adapted.append((level, full))
                    self.dims[(i, level)] = self.dims.get((i, level), 0) + 1
            adapted.sort(key=lambda p: p[0])
            self.basis[i] = adapted

    def dim(self, i, l):
        return self.dims.get((i, l), 0)

    def levels(self, i):
        return sorted(l for (ii, l) in self.dims if ii == i)

    def gr_product(self, i, a_entry, j, b_entry):
        """Product of gr-classes: (level, coords) x (level, coords)."""
        K = self.complex
        la, va = a_entry
        lb, vb = b_entry
        prod = homology_product(K, i, va, j, vb)
        if all(c == K.field.zero for c in prod):
            return (la + lb, prod, True)
        lev = filtration_level(K, i + j, prod)
        if lev < la + lb:
            raise RuntimeError("filtration is not multiplicative on these classes")
        # the gr product is zero exactly when the product sits deeper
        return (la + lb, prod, lev > la + lb)

    def positive_products_vanish(self):
        """True iff all products of positive-homological-degree gr classes die in gr."""
        c = self.complex.ring.codepth
        for i in range(1, c + 1):
            for j in range(i, c + 1):
                if i + j > self.complex.n:
                    continue
                for a_entry in self.basis.get(i, []):
                    for b_entry in self.basis.get(j, []):
                        _, _, vanishes = self.gr_product(i, a_entry, j, b_entry)
                        if not vanishes:
                            return False
        return True

    def to_json(self):
        return {
            "dims": {
                "%d,%d" % (i, l): v for (i, l), v in sorted(self.dims.items())
            },
        }


def _inverse_columns(M):
    """The columns of M^-1 for an invertible square M, read off rref([M | I])."""
    F, k = M.field, M.nrows
    red, _ = exactalg.rref(Matrix(F, [
        row + exactalg.unit_vector(F, k, t) for t, row in enumerate(M.rows)], 2 * k))
    return [[row[k + b] for row in red.rows] for b in range(k)]


def gr_homology(K):
    return GrAlgebra(K)


def gr_induced_identity(K, differences):
    """Check H(phi) - id strictly raises filtration level on every class.

    differences[i] holds the columns of H_i(phi) - id, one per basis
    class of H_i.
    """
    report = {"per_class": [], "min_shift": None}
    ok = True
    for i, columns in sorted(differences.items()):
        basis = homology_basis(K, i)
        for cls, level, diff in zip(basis.classes, class_levels(K, i), columns):
            # the zero class has level infinity
            diff_level = filtration_level(K, i, diff) if any(diff) else math.inf
            shift = diff_level - level if diff_level != math.inf else math.inf
            report["per_class"].append({
                "degree": i,
                "label": cls.label,
                "level": level,
                "difference_level": diff_level,
                "shift": shift,
            })
            if shift != math.inf:
                if report["min_shift"] is None or shift < report["min_shift"]:
                    report["min_shift"] = shift
            if diff_level != math.inf and diff_level < level + 1:
                ok = False
    return ok, report


def poincare_pairing(K, i):
    """Pairing H_i x H_{c-i} -> H_c; perfect needs dim H_c = 1 and full rank."""
    c = K.ring.codepth
    top = homology_basis(K, c)
    hi = homology_basis(K, i)
    hj = homology_basis(K, c - i)
    if top.dim != 1:
        return {"matrix": None, "is_perfect": False, "dim_top": top.dim}
    rows = [[K.structure.product(i, a, c - i, b)[0] for b in range(hj.dim)]
            for a in range(hi.dim)]
    if hi.dim == 0 or hj.dim == 0:
        perfect = hi.dim == hj.dim
        return {"matrix": Matrix(K.field, [], 0) if not rows else None,
                "is_perfect": perfect, "dim_top": 1}
    m = Matrix(K.field, rows, hj.dim)
    perfect = hi.dim == hj.dim and exactalg.rank(m) == hi.dim
    return {"matrix": m, "is_perfect": perfect, "dim_top": 1}


# ---------------------------------------------------------------------- suite

def _detect_complete_intersection(K):
    """H(f) exterior on H_1: binomial dims and surjective wedge powers."""
    c = K.ring.codepth
    h1 = homology_basis(K, 1)
    for i in range(c + 1):
        if homology_basis(K, i).dim != math.comb(h1.dim, i):
            return False
    for i in range(2, min(c, h1.dim) + 1):
        hi = homology_basis(K, i)
        vectors = []
        for combo in itertools.combinations(range(h1.dim), i):
            coords = None
            for t in combo:
                unit = exactalg.unit_vector(K.field, h1.dim, t)
                if coords is None:
                    coords = (1, unit)
                else:
                    deg, cur = coords
                    coords = (deg + 1, homology_product(K, deg, cur, 1, unit))
            vectors.append(coords[1])
        if vectors and exactalg.span_dim(vectors, K.field, hi.dim) != hi.dim:
            return False
    return True


def _lift_pair_decisions(K, differences):
    """run_suite's group_law, abelian and exponent_p, from the columns of
    H_i(phi) - id that check_identity_all decided on.

    The products of the nonzero M_(g,c) are taken in one batch per degree;
    every other product is zero.  They are compared with the cross terms
    L_[w_c ∧ w_c'] ι_h ι_g: in full over the generators G of the nonzero
    M, and off G x G, where the cross terms must vanish, through the pairs
    S whose rows of A (the coordinates of the [w_c ∧ w_c']) span all rows.
    A, L and ι are read off the structure constants.

    The three hold on every ring, so a False names an engine fault.  ι_g,
    a degree -1 derivation of K that anticommutes with d, induces a
    derivation ι_g^H of H(K), which kills H_1: the coefficients of a
    1-cycle lie in m, as the x_j are minimal generators, and m H(K) = 0.
    So ι_g^H L_[w] = -L_[w] ι_g^H for w in H_1, and M_(g,c) M_(h,c') =
    L_[w_c ∧ w_c'] ι_h ι_g: the group law, the commutation (swap both
    anticommuting pairs) and, as ι_g ι_g = 0, M_(g,c) M_(g,c') = 0.  The
    cross term can be nonzero, as on f2_identity_false ⊗ k[s]/(s^2).
    """
    F, n, c = K.field, K.n, K.ring.codepth
    k, u = _dim(K, 1), _dim(K, 2)
    A = _left(K, 1, 2).swapaxes(1, 2).reshape(k * k, u)
    S = exactalg.rref(Matrix(F, A.T.tolist(), k * k))[1]
    contractions = {i: _iota(K, i) for i in range(-1, c + 1)}
    group_law = abelian = exponent_p = True
    for i in range(c + 1):
        d, d2 = _dim(K, i), _dim(K, i - 2)
        M = np.array([diff[i] for diff in differences], dtype=exactalg.triplet_dtype(F))
        M = M.reshape(n * k, d, d).swapaxes(1, 2)
        nz = np.flatnonzero((M != 0).any(axis=(1, 2)))
        P = exactalg.matmul(F, M[nz, None], M[None, nz])  # P[s, t] = M_nz[s] M_nz[t]
        abelian = abelian and np.array_equal(P, P.swapaxes(0, 1))
        one_g = nz[:, None] // k == nz // k
        exponent_p = exponent_p and np.array_equal(
            P[one_g], exactalg.negate(F, P.swapaxes(0, 1)[one_g])) and not (
                P.diagonal(axis1=0, axis2=1) != 0).any()
        AL = exactalg.matmul(F, A, _left(K, 2, i).reshape(u, d * d2)).reshape(k, k, d, d2)
        # T[g, h] = ι_h ι_g; cross[x, c, y, c'] is the cross term of (G_x, c), (G_y, c')
        T = exactalg.matmul(F, contractions[i - 1][None], contractions[i][:, None])
        G, pos = np.unique(nz // k, return_inverse=True)
        cross = exactalg.matmul(F, AL[None, :, None], T[np.ix_(G, G)][:, None, :, None])
        at = (pos[:, None], nz[:, None] % k, pos, nz % k)
        group_law = group_law and np.array_equal(cross[at], P)
        cross[at] = 0
        Y = exactalg.matmul(F, AL.reshape(k * k, d, d2)[S][:, None, None], T[None])
        Y[:, G[:, None], G] = 0
        group_law = group_law and not (cross != 0).any() and not (Y != 0).any()
    return group_law, abelian, exponent_p if F.characteristic else None


def run_suite(K):
    """Machine-readable report of every in-scope theorem check.

    identity: H(phi) = id for every lift phi, per degree.  With M_(g,c)
    the matrix of H_i(phi) - id for the elementary lift phi = (e_g -> e_g
    + w_c), w_c a basis representative of H_1, ι_g contraction by e_g^*
    and L_u left multiplication by u, on H, in every degree:
    - group_law: M_(g,c) M_(h,c') = L_[w_c ∧ w_c'] ι_h ι_g (ι_g first),
      the cross term of e_g -> e_g + w_c, e_h -> e_h + w_c'; for g = h it
      is zero, as the sum lift is e_g -> e_g + w_c + w_c';
    - abelian: the M commute pairwise;
    - exponent_p: M_(g,c)^2 = 0 and M_(g,c) M_(g,c') = -M_(g,c') M_(g,c),
      that is (H(phi) - id)^2 = 0, so H(phi)^p = id, for every elementary
      phi (None over Q).
    Each is bilinear in the H_1 classes of two lifts (quadratic for
    exponent_p), and a boundary added to w_c changes no M, so the basis
    pairs decide it for every pair of elementary lifts.  All three hold
    on every ring (see _lift_pair_decisions): a False names an engine fault.
    duality_propagation, for a Poincare duality algebra H (else None):
    the identity in the top degree c.  Then every H(phi), multiplicative
    and the identity on H_c, preserves the perfect pairing, so
    H_i(phi) = id iff H_(c-i)(phi) = id.
    """
    c = K.ring.codepth
    report = {}
    report["ring"] = repr(K.ring)
    report["betti"] = betti_table(K).to_json()

    products = {}
    for i in range(1, c + 1):
        for j in range(i, c + 1):
            if i + j <= K.n:
                products["(%d,%d)" % (i, j)] = product_vanishing(K, i, j)
    report["products"] = products

    report["complete_intersection"] = _detect_complete_intersection(K)

    verdict = check_identity_all(K)
    report["identity"] = verdict.to_json()
    report["group_law"], report["abelian"], report["exponent_p"] = (
        _lift_pair_decisions(K, verdict.differences))

    report["gr_identity"] = all(
        gr_induced_identity(K, differences)[0]
        for differences in verdict.differences)

    pairing_perfect = True
    top_dim = homology_basis(K, c).dim
    for i in range(c + 1):
        info = poincare_pairing(K, i)
        if not info["is_perfect"]:
            pairing_perfect = False
    report["gorenstein"] = {"is_pd_algebra": pairing_perfect and top_dim == 1}
    report["duality_propagation"] = (
        verdict.per_degree[c] if report["gorenstein"]["is_pd_algebra"] else None)

    order = ring_order(K)
    report["order"] = "infinity" if order == math.inf else order

    if isinstance(K.ring, ArtinianQuotient):
        rel = h1_from_relations(K)
        report["h1_relations_consistent"] = bool(
            rel["all_cycles"] and rel["minimal"])
    else:
        report["h1_relations_consistent"] = None
    return report


def slow_suite(K):
    """Dims-only report for rings too large to materialize homology bases.

    Everything is read off strand ranks: for a standard graded ring the
    filtration of H_i by F^l is the filtration by internal degree, so
    F^l H_i = H_i iff no class lives below degree l, and F^l H_i = 0 iff
    none lives at degree l or above.  The identity conclusion per degree
    uses the level-shift bound: H(phi) - id raises filtration level by
    ord(R) - 1, so if min_degree + ord(R) - 1 > max_degree the difference
    lands in a vanishing filtration step and H_i(phi) = id for every lift.
    """
    if not _is_standard_graded(K):
        raise ValueError("the scaled suite requires a standard graded quotient ring")
    bt = betti_table(K, rank_only=True)
    report = {"ring": repr(K.ring), "betti": bt.to_json()}
    col_degrees = {}
    for (i, j), _ in bt.entries.items():
        col_degrees.setdefault(i, []).append(i + j)
    h1_degrees = sorted(col_degrees.get(1, []))
    order = h1_degrees[0] if h1_degrees else math.inf
    report["order"] = "infinity" if order == math.inf else order
    filtration = {}
    identity = {}
    for i in range(1, bt.pdim + 1):
        degs = col_degrees.get(i)
        if not degs:
            continue
        dmin, dmax = min(degs), max(degs)
        filtration[str(i)] = {
            "full_level": dmin,
            "vanishing_level": dmax + 1,
        }
        identity[str(i)] = bool(
            order != math.inf and dmin + order - 1 >= dmax + 1)
    report["filtration"] = filtration
    report["identity_by_filtration"] = identity
    return report
