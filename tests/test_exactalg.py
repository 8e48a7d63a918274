"""Exact linear algebra over F_p and Q."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koszulalg import exactalg
from koszulalg.exactalg import (
    GF2,
    QQ,
    Matrix,
    PrimeField,
    RationalField,
    field_by_name,
    kernel_basis,
    rank,
    rref,
)

import conftest


def test_prime_field_ops():
    F = PrimeField(7)
    assert F.add(3, 5) == 1
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(0) == 0
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_field_by_name():
    assert field_by_name("F2") is GF2
    assert field_by_name("Q") is QQ
    assert field_by_name("F5").characteristic == 5
    with pytest.raises(ValueError):
        field_by_name("F6")
    with pytest.raises(ValueError):
        field_by_name("GF2")


def test_rational_field_uses_fractions():
    F = RationalField()
    assert F.from_int(3) == Fraction(3)
    assert F.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_rref_known():
    m = Matrix(QQ, [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]], 2)
    r, pivots = rref(m)
    assert pivots == [0]
    assert r.rows[0] == [Fraction(1), Fraction(2)]


def test_kernel_canonical_form():
    # free column gets coefficient 1, pivot rows filled from -rref entries
    m = Matrix(QQ, [[Fraction(2), Fraction(-1)]], 2)
    basis = kernel_basis(m)
    assert basis == [[Fraction(1, 2), Fraction(1)]]


def test_kernel_gf2_matches_definition():
    m = Matrix(GF2, [[1, 1, 0], [0, 1, 1]], 3)
    for v in kernel_basis(m):
        assert m.mul(_column_matrix(m.field, v)).is_zero()


def _column_matrix(field, v):
    return Matrix(field, [[a] for a in v], 1)


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def random_matrix(draw, field):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = [
        [field.from_int(draw(small_entries)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return Matrix(field, rows, ncols)


@given(random_matrix(QQ))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_q(m):
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@given(random_matrix(GF2))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_f2(m):
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@given(random_matrix(PrimeField(5)))
@settings(max_examples=40, deadline=None)
def test_rref_idempotent(m):
    r, _ = rref(m)
    r2, _ = rref(r)
    assert r2.rows == r.rows


@given(random_matrix(QQ))
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert m.mul(_column_matrix(m.field, v)).is_zero()


def test_coords_in_span_roundtrip():
    basis = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    v = [Fraction(3), Fraction(2)]
    coords = exactalg.coords_in_span(v, basis, QQ)
    rebuilt = [Fraction(0), Fraction(0)]
    for c, b in zip(coords, basis):
        rebuilt = [r + c * x for r, x in zip(rebuilt, b)]
    assert rebuilt == v
    assert exactalg.coords_in_span([Fraction(0), Fraction(1)],
                                   [[Fraction(1), Fraction(0)]], QQ) is None


def test_subspace_intersect():
    U = [[1, 0, 0], [0, 1, 0]]
    V = [[0, 1, 0], [0, 0, 1]]
    assert conftest.subspace_intersect(U, V, GF2, 3) == [[0, 1, 0]]
    assert conftest.subspace_intersect(U, [[0, 0, 1]], GF2, 3) == []
    assert conftest.subspace_intersect([], V, GF2, 3) == []


def test_span_dim_and_contains():
    vecs = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert exactalg.span_dim(vecs, GF2, 3) == 2


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_rank_matches_dense(data):
    field = data.draw(st.sampled_from([GF2, QQ, PrimeField(5)]))
    nrows = data.draw(st.integers(min_value=1, max_value=8))
    ncols = data.draw(st.integers(min_value=1, max_value=8))
    entries = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        r = data.draw(st.integers(min_value=0, max_value=nrows - 1))
        c = data.draw(st.integers(min_value=0, max_value=ncols - 1))
        v = field.from_int(data.draw(st.integers(min_value=1, max_value=4)))
        entries.append((r, c, v))
        if data.draw(st.booleans()):
            # the same position again: a pair that cancels mod p, or a sum
            if data.draw(st.booleans()):
                entries.append((r, c, field.neg(v)))
            else:
                w = data.draw(st.integers(min_value=1, max_value=4))
                entries.append((r, c, field.from_int(w)))
    data.draw(st.randoms()).shuffle(entries)
    dense = Matrix.from_triplets(field, nrows, ncols, entries)
    assert exactalg.sparse_rank(field, nrows, ncols, entries) == rank(dense)
    array = exactalg.as_triplets(field, entries)
    assert exactalg.sparse_rank(field, nrows, ncols, array) == rank(dense)


def _sparse_and_dense_rank(field, nrows, ncols, entries):
    dense = rank(Matrix.from_triplets(field, nrows, ncols, entries))
    return exactalg.sparse_rank(
        field, nrows, ncols, exactalg.as_triplets(field, entries)), dense


@pytest.mark.parametrize("field", [GF2, PrimeField(5), QQ])
def test_sparse_rank_bidiagonal_peels_one_pivot_a_round(field):
    # only the last row is a singleton; each round uncovers the next one
    n = 40
    entries = [(i, i, field.one) for i in range(n)]
    entries += [(i, i + 1, field.from_int(3)) for i in range(n - 1)]
    assert _sparse_and_dense_rank(field, n, n, entries) == (n, n)


@pytest.mark.parametrize("field, expected", [(GF2, 4), (PrimeField(5), 5), (QQ, 5)])
def test_sparse_rank_core_without_singletons(field, expected):
    # I + P for the 5-cycle P: two entries in every row and column, so
    # nothing peels; det = 1 - (-1)^5 = 2 vanishes only over F_2
    entries = [(i, i, field.one) for i in range(5)]
    entries += [(i, (i + 1) % 5, field.one) for i in range(5)]
    assert _sparse_and_dense_rank(field, 5, 5, entries) == (expected, expected)


@pytest.mark.parametrize("field", [GF2, PrimeField(32003), QQ])
def test_sparse_rank_of_no_entries(field):
    empty = exactalg.as_triplets(field)
    assert empty.shape == (0, 3)
    assert exactalg.sparse_rank(field, 3, 4, empty) == 0
    assert exactalg.sparse_rank(field, 3, 4, []) == 0


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_kernel_of_triplets_sums_repeats_on_the_int64_path(p):
    # a 70 x 80 and a 40 x 50 matrix (sparse_rank's cores run _fp_eliminate
    # on int64 arrays); every third entry comes twice, half of those pairs
    # cancelling.  The columns read off the triplets sum them, and
    # eliminate returns the pivots and kernel of the reference loop's rref.
    F = PrimeField(p)
    rng = random.Random(5)
    for nrows, ncols in ((70, 80), (40, 50)):
        entries = []
        for t in range(12 * nrows):
            i, j, a = rng.randrange(nrows), rng.randrange(ncols), rng.randrange(1, p)
            entries.append((i, j, a))
            if t % 3 == 0:
                entries.append((i, j, F.neg(a) if t % 2 else rng.randrange(1, p)))
        m = Matrix.from_triplets(F, nrows, ncols, entries)
        array = exactalg.as_triplets(F, entries)
        columns = exactalg.triplet_columns(F, ncols, array)
        assert columns == _columns(m)
        pivots, kernel = exactalg.eliminate(F, columns)
        assert (pivots, _dense(F, ncols, kernel)) == (_generic_rref(m)[1], _generic_kernel(m))
        assert kernel_basis(m) == _generic_kernel(m)
        assert exactalg.sparse_rank(F, nrows, ncols, array) == rank(m) == len(pivots)


def test_sparse_rank_f32003_peels_and_eliminates():
    # singleton rows and columns around a dense random core of rank 6
    F = PrimeField(32003)
    rng = random.Random(11)
    entries = [(i, j, rng.randrange(1, F.p)) for i in range(8) for j in range(6)]
    entries += [(8 + t, 6 + t, rng.randrange(1, F.p)) for t in range(10)]
    entries += [(t, 16 + t, rng.randrange(1, F.p)) for t in range(4)]
    entries += [(18 + t, t, rng.randrange(1, F.p)) for t in range(3)]
    entries += [(3, 2, F.p - entries[3 * 6 + 2][2])]  # cancels one core entry
    assert _sparse_and_dense_rank(F, 21, 20, entries) == (20, 20)


# ------------------------------------------- block-diagonal sparse_rank


def _cycle_block(field, n):
    """I + P for the n-cycle P: nothing peels, so all of it is core."""
    return ([(i, i, field.one) for i in range(n)]
            + [(i, (i + 1) % n, field.one) for i in range(n)])


def _stack_blocks(field, blocks, rng):
    """Stack (nrows, ncols, entries) blocks diagonally, columns permuted.

    Returns (nrows, ncols, shuffled triplet array, row bounds).  Each
    block keeps its own rows and columns, but the columns of all blocks
    are interleaved, and the entries come in random order.
    """
    nrows = sum(b[0] for b in blocks)
    ncols = sum(b[1] for b in blocks)
    perm = list(range(ncols))
    rng.shuffle(perm)
    entries, bounds, row0, col0 = [], [0], 0, 0
    for m, n, block in blocks:
        entries += [(row0 + i, perm[col0 + j], a) for i, j, a in block]
        row0, col0 = row0 + m, col0 + n
        bounds.append(row0)
    rng.shuffle(entries)
    return nrows, ncols, exactalg.as_triplets(field, entries), bounds


def _block_ranks(field, blocks):
    return [rank(Matrix.from_triplets(field, m, n, block)) for m, n, block in blocks]


@pytest.mark.parametrize("field", [GF2, PrimeField(32003), QQ])
def test_block_ranks_with_surviving_cores_and_empty_blocks(field):
    rng = random.Random(7)
    dense = [(i, j, field.from_int(rng.randrange(1, 7)))
             for i in range(4) for j in range(3)]
    blocks = [
        (5, 5, _cycle_block(field, 5)),
        (0, 4, []),                       # no rows
        (3, 0, []),                       # no columns
        (2, 2, []),                       # no entries
        (4, 3, dense),                    # a dense core of its own
        (3, 3, _cycle_block(field, 3)),
        (2, 2, [(0, 1, field.from_int(2)), (1, 0, field.one)]),
    ]
    nrows, ncols, array, bounds = _stack_blocks(field, blocks, rng)
    expected = _block_ranks(field, blocks)
    assert exactalg.sparse_rank(field, nrows, ncols, array, bounds) == expected
    assert exactalg.sparse_rank(field, nrows, ncols, array) == sum(expected)


@pytest.mark.parametrize("field", [GF2, PrimeField(32003), QQ])
def test_block_needs_a_column_round_while_another_peels_rows(field):
    # The bidiagonal block uncovers one singleton row a round for 30
    # rounds; the other block has two entries in every row, so it waits
    # for the first round that finds no singleton row anywhere and then
    # peels by its singleton columns 0 and 3.
    n = 30
    bidiagonal = [(i, i, field.one) for i in range(n)]
    bidiagonal += [(i, i + 1, field.from_int(3)) for i in range(n - 1)]
    columns_only = [(0, 0, field.one), (0, 1, field.one),
                    (1, 1, field.one), (1, 2, field.one),
                    (2, 2, field.from_int(2)), (2, 3, field.one)]
    blocks = [(n, n, bidiagonal), (3, 4, columns_only), (1, 1, [(0, 0, field.one)])]
    nrows, ncols, array, bounds = _stack_blocks(field, blocks, random.Random(3))
    assert _block_ranks(field, blocks) == [n, 3, 1]
    assert exactalg.sparse_rank(field, nrows, ncols, array, bounds) == [n, 3, 1]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_block_ranks_match_dense_rank_of_each_block(data):
    field = data.draw(st.sampled_from([GF2, PrimeField(32003), QQ]))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 32)))
    blocks = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        kind = data.draw(st.sampled_from(["random", "cycle", "empty"]))
        if kind == "cycle":
            n = data.draw(st.integers(min_value=2, max_value=6))
            blocks.append((n, n, _cycle_block(field, n)))
            continue
        m = data.draw(st.integers(min_value=0, max_value=7))
        n = data.draw(st.integers(min_value=0, max_value=7))
        block = []
        count = 0 if kind == "empty" or not (m and n) else rng.randrange(m * n + 4)
        for _ in range(count):
            i, j = rng.randrange(m), rng.randrange(n)
            a = field.from_int(rng.randrange(1, 5))
            block.append((i, j, a))
            if rng.random() < 0.3:
                # the same position again: a pair that cancels, or a sum
                block.append((i, j, field.neg(a) if rng.random() < 0.5
                              else field.from_int(rng.randrange(1, 5))))
        blocks.append((m, n, block))
    nrows, ncols, array, bounds = _stack_blocks(field, blocks, rng)
    expected = _block_ranks(field, blocks)
    assert exactalg.sparse_rank(field, nrows, ncols, array, bounds) == expected


def _rank_mod2_reference(rows):
    """Plain-Python Gaussian elimination oracle."""
    rows = [list(r) for r in rows]
    n = len(rows)
    m = len(rows[0])
    rk = 0
    for col in range(m):
        piv = next((r for r in range(rk, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for r in range(n):
            if r != rk and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def test_gf2_int64_path_agrees_with_reference():
    # a dense 80 x 80 matrix over F_2: rank and kernel_basis run eliminate,
    # sparse_rank peels nothing and runs _fp_eliminate on the whole of it
    rng = random.Random(7)
    rows = [[rng.randrange(2) for _ in range(80)] for _ in range(80)]
    m2 = Matrix(GF2, [list(r) for r in rows], 80)
    assert exactalg.sparse_rank(GF2, 80, 80, _triplets(m2)) == _rank_mod2_reference(rows)
    r2 = rank(m2)
    assert r2 == _rank_mod2_reference(rows)
    kernel = kernel_basis(m2)
    assert len(kernel) == 80 - r2
    assert all(m2.mul(_column_matrix(GF2, v)).is_zero() for v in kernel)


def _triplets(m):
    return [(i, j, a) for i, row in enumerate(m.rows)
            for j, a in enumerate(row) if a]


def _generic_rref(M):
    """rref by the per-scalar loop over any field: the reference for every path."""
    F = M.field
    rows = [list(r) for r in M.rows]
    m, n = M.nrows, M.ncols
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c] != F.zero), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = F.inv(rows[r][c])
        if inv != F.one:
            rows[r] = [F.mul(inv, a) for a in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != F.zero:
                factor = rows[i][c]
                rows[i] = [F.sub(a, F.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(F, rows, n), pivots


def _generic_kernel(m):
    """The canonical kernel basis read off the reference loop's rref."""
    R, pivots = _generic_rref(m)
    basis = []
    for f in (j for j in range(m.ncols) if j not in pivots):
        v = [m.field.zero] * m.ncols
        v[f] = m.field.one
        for r, c in enumerate(pivots):
            v[c] = m.field.neg(R.rows[r][f])
        basis.append(v)
    return basis


def _dense(F, n, kernel):
    return [conftest.dense(F, n, v) for v in kernel]


def _columns(m):
    return [{i: a for i, a in enumerate(column) if a} for column in zip(*m.rows)]


def _random_entry(rng, F, density):
    """Zero with probability 1 - density, else often -1 or 1."""
    if rng.random() >= density:
        return F.zero
    if isinstance(F, PrimeField):
        return rng.choice([1, F.p - 1, rng.randrange(1, F.p)])
    return rng.choice([F.one, -F.one, Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))])


def _assert_every_path_matches_reference(m):
    F, ncols = m.field, m.ncols
    R, pivots = _generic_rref(m)
    assert rref(m) == (R, pivots)
    assert rank(m) == len(pivots)
    kernel = _generic_kernel(m)
    assert kernel_basis(m) == kernel
    found, vectors = exactalg.eliminate(F, _columns(m))
    assert found == pivots
    assert _dense(F, ncols, vectors) == kernel
    # each vector is sparse: its free column and pivots, no stored zeros
    for v, f in zip(vectors, (j for j in range(ncols) if j not in pivots)):
        assert v[f] == F.one
        assert all(a for a in v.values()) and set(v) <= set(pivots) | {f}
    assert exactalg.sparse_rank(F, m.nrows, ncols, _triplets(m)) == len(pivots)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_int64_rank_matches_generic_rref(data):
    # p = 2^31 - 1 is the largest prime the int64 kernel accepts.  rref,
    # rank and kernel_basis read eliminate at every size; sparse_rank runs
    # _fp_eliminate on the core over F_p.  Over F_p half the shapes have
    # 4096 entries or more; Q's stay small, where the reference loop's
    # Fractions stay short.
    F = data.draw(st.sampled_from(
        [PrimeField(p) for p in (2, 3, 5, 32003, 2147483647)] + [QQ]))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 32)))
    prime = isinstance(F, PrimeField)
    large = prime and data.draw(st.booleans())
    if large:
        nrows = data.draw(st.integers(min_value=52, max_value=80))
        ncols = data.draw(st.integers(min_value=-(-4096 // nrows), max_value=80))
    else:
        bound = 40 if prime else 12
        nrows = data.draw(st.integers(min_value=1, max_value=bound))
        ncols = data.draw(st.integers(min_value=1, max_value=bound))
    density = data.draw(st.sampled_from([0.1, 0.5, 1.0]))
    if data.draw(st.booleans()):
        # Random square matrices are almost always of full rank; a
        # product of thin factors is not, and fills in most.
        k = data.draw(st.integers(min_value=0, max_value=min(nrows, ncols) - 1))
        A = Matrix(F, [[_random_entry(rng, F, density) for _ in range(k)]
                       for _ in range(nrows)], k)
        B = Matrix(F, [[_random_entry(rng, F, density) for _ in range(ncols)]
                       for _ in range(k)], ncols)
        m = A.mul(B)
    else:
        m = Matrix(F, [[_random_entry(rng, F, density) for _ in range(ncols)]
                       for _ in range(nrows)], ncols)
    for i in data.draw(st.sets(st.integers(0, nrows - 1), max_size=3)):
        m.rows[i] = [F.zero] * ncols
    for j in data.draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
        for row in m.rows:
            row[j] = F.zero
    _assert_every_path_matches_reference(m)
    # columns reversed, as the homology pass reads its boundaries
    _assert_every_path_matches_reference(Matrix(F, [row[::-1] for row in m.rows], ncols))


@pytest.mark.parametrize("field", [GF2, PrimeField(3), PrimeField(32003), QQ])
def test_eliminate_on_thin_strands_matches_reference(field):
    # two entries a column, as in the strands of the Koszul differential:
    # a 90 x 100 matrix and its reverse
    rng = random.Random(13)
    entries = [(rng.randrange(90), j, field.from_int(rng.choice([1, -1, 2])))
               for j in range(100) for _ in range(2)]
    m = Matrix.from_triplets(field, 90, 100, entries)
    _assert_every_path_matches_reference(m)
    _assert_every_path_matches_reference(Matrix(field, [row[::-1] for row in m.rows], 100))


def test_eliminate_with_no_rows_or_no_columns():
    assert exactalg.eliminate(QQ, []) == ([], [])
    assert exactalg.eliminate(GF2, [{}, {}]) == ([], [{0: 1}, {1: 1}])
    assert exactalg.eliminate(QQ, [{}, {2: Fraction(3)}, {2: Fraction(1)}]) == (
        [1], [{0: Fraction(1)}, {1: Fraction(-1, 3), 2: Fraction(1)}])


@pytest.mark.parametrize("p", [32003, 2147483647])
def test_int64_rank_on_120x100_of_rank_70(p):
    rng = random.Random(3)
    F = PrimeField(p)
    A = Matrix(F, [[rng.randrange(F.p) for _ in range(70)] for _ in range(120)], 70)
    B = Matrix(F, [[rng.randrange(F.p) for _ in range(100)] for _ in range(70)], 100)
    m = A.mul(B)
    assert len(rref(m)[1]) == 70
    assert rank(m) == 70
    assert exactalg.sparse_rank(F, 120, 100, _triplets(m)) == 70


@pytest.mark.parametrize("p", [2, 3, 32003, 2 ** 31 - 1])
def test_matmul_matches_python_integers(p):
    # stacks broadcast as in numpy; entries near p - 1 make every int64
    # product of two entries overflow without the 16-bit split
    F = field_by_name("F%d" % p)
    rnd = random.Random(p)
    a = [[[rnd.choice([p - 1, p - 2, rnd.randrange(p)]) for _ in range(40)]
          for _ in range(3)] for _ in range(2)]
    b = [[rnd.choice([p - 1, rnd.randrange(p)]) for _ in range(4)] for _ in range(40)]
    out = exactalg.matmul(F, np.array(a, dtype=np.int64)[:, None],
                          np.array(b, dtype=np.int64)[None, None])
    assert out.shape == (2, 1, 3, 4)
    assert out[:, 0].tolist() == [
        [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in m]
        for m in a]


def test_matmul_over_q_keeps_fractions():
    a = np.array([[Fraction(1, 2), Fraction(-3)]], dtype=object)
    b = np.array([[Fraction(2, 3)], [Fraction(1, 7)]], dtype=object)
    assert exactalg.matmul(QQ, a, b).tolist() == [[Fraction(1, 3) - Fraction(3, 7)]]
