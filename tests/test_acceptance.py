"""Acceptance gate: one test per required behavior, exact pinned values.

Every test prints a single criterion line; run with -v to see one
pass/fail line per criterion.  Criterion 10 is marked slow and is
deselected by default; run it with `pytest -m slow -v`.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from koszulalg.exactalg import GF2
from koszulalg.polyring import PolyContext
from koszulalg.gring import make_artinian_quotient
from koszulalg.koszul import (
    KoszulComplex,
    betti_table,
    class_of,
    differential,
    h1_from_relations,
    homology_basis,
    product_vanishing,
    wedge,
)
from koszulalg.dgmap import (
    compose_induced,
    elementary_lift,
    homotopy_for_boundary_delta,
    identity_lift,
    induced_map,
    lift_from_delta,
)
from koszulalg.analyze import (
    check_identity_all,
    filtration_dim,
    gr_homology,
    poincare_pairing,
    ring_order,
    slow_suite,
)
from koszulalg.cli import load_lift_spec, load_ring_spec, parse_chain

import conftest
from conftest import fixture_path, random_boundary, random_elementary_lift


def _ring(name):
    return load_ring_spec(fixture_path(name))


def test_criterion_01_betti_table():
    t0 = time.perf_counter()
    K = KoszulComplex(_ring("q_x2_xy_y2_z2.json"))
    t = betti_table(K)
    assert t.to_json()["rows"] == {
        "0": [1, 0, 0, 0],
        "1": [0, 4, 2, 0],
        "2": [0, 0, 3, 2],
    }
    assert t.pdim == 3
    print("criterion 1: PASS (%.2fs)" % (time.perf_counter() - t0))


def test_criterion_02_aci_counterexample():
    t0 = time.perf_counter()
    K = KoszulComplex(_ring("f2_semigroup_6_10_14_15.json"))
    phi = load_lift_spec(fixture_path("lift_6101415_e1.txt"), K)
    KK = phi.complex
    assert not induced_map(phi, 2).is_identity

    # the moved class: u = e1 ^ zeta + t^10 e2^e3 with zeta = t^18 e2 + t^14 e3
    zeta = parse_chain(KK, "t^18*e2 + t^14*e3")
    delta = parse_chain(KK, "t^16*e3 + t^15*e4")
    assert differential(zeta).is_zero() and differential(delta).is_zero()
    u = wedge(KK.generator_element(0), zeta) + parse_chain(KK, "t^10*e2e3")
    assert differential(u).is_zero()
    prod = class_of(KK, 2, wedge(zeta, delta))
    assert any(c != KK.field.zero for c in prod)
    moved = class_of(KK, 2, phi.apply(u))
    base = class_of(KK, 2, u)
    diff = [KK.field.sub(a, b) for a, b in zip(moved, base)]
    assert diff == prod

    # top homological degree is rigid for every elementary lift
    assert check_identity_all(K, degrees=[3]).overall is True
    print("criterion 2: PASS (%.2fs)" % (time.perf_counter() - t0))


def test_criterion_03_gorenstein_counterexample():
    t0 = time.perf_counter()
    K = KoszulComplex(_ring("f2_semigroup_9_10_11_13_17.json"))
    phi = load_lift_spec(fixture_path("lift_910111317_e5.txt"), K)
    KK = phi.complex
    zeta = parse_chain(KK, "t^13*e1 + t^11*e3")
    delta = parse_chain(KK, "t^10*e2 + t^9*e3")
    assert differential(zeta).is_zero() and differential(delta).is_zero()
    prod = class_of(KK, 2, wedge(zeta, delta))
    assert any(c != KK.field.zero for c in prod)
    assert not induced_map(phi, 2).is_identity

    u = wedge(KK.generator_element(4), zeta) + parse_chain(KK, "t^19*e1e3")
    assert differential(u).is_zero()
    diff = [
        KK.field.sub(a, b)
        for a, b in zip(class_of(KK, 2, phi.apply(u)), class_of(KK, 2, u))
    ]
    assert diff == prod

    c = K.ring.codepth
    for i in range(c + 1):
        assert poincare_pairing(K, i)["is_perfect"] is True
    print("criterion 3: PASS (%.2fs)" % (time.perf_counter() - t0))


def test_criterion_04_products_table():
    t0 = time.perf_counter()
    expected = {
        "f2_products_row1.json": {(1, 1): True, (1, 2): False},
        "f2_products_row2.json": {
            (1, 1): True, (1, 2): True, (1, 3): False},
        "f2_products_row3.json": {
            (1, 1): False, (1, 2): True, (1, 3): True},
    }
    for name, pattern in expected.items():
        K = KoszulComplex(_ring(name))
        for (i, j), vanishes in pattern.items():
            assert product_vanishing(K, i, j) is vanishes, (name, i, j)
    print("criterion 4: PASS (%.2fs)" % (time.perf_counter() - t0))


def test_criterion_05_identity_decision_pair():
    t0 = time.perf_counter()
    Kt = KoszulComplex(_ring("f2_identity_true.json"))
    assert check_identity_all(Kt).overall is True

    Kf = KoszulComplex(_ring("f2_identity_false.json"))
    verdict = check_identity_all(Kf)
    assert verdict.overall is False
    b1 = homology_basis(Kf, 1)
    by_label = {c.label: c for c in b1.classes}
    hits = [
        w for w in verdict.witnesses
        if w["generator"] == 0 and w["degree"] == 2
        and str(by_label[w["class_label"]].element) == "(z)*e3"
    ]
    assert hits, "expected witness e1 -> e1 + z e3 failing on H_2"
    phi = elementary_lift(Kf, 0, parse_chain(Kf, "z*e3"))
    assert not induced_map(phi, 2).is_identity
    print("criterion 5: PASS (%.2fs)" % (time.perf_counter() - t0))


FUZZ_RINGS = [
    "f2_ci_x2_y2.json",
    "f2_golod_m2.json",
    "f2_weighted_2_3.json",
    "q_x2_xy_y2_z2.json",
    "f2_products_row1.json",
    "f2_products_row2.json",
    "f2_products_row3.json",
    "f2_identity_true.json",
    "f2_identity_false.json",
    "f2_destefani.json",
    "f2_semigroup_3_4_5.json",
    "f2_semigroup_6_10_14_15.json",
    "f2_semigroup_9_10_11_13_17.json",
]

CI_RINGS = {"f2_ci_x2_y2.json", "f2_weighted_2_3.json"}


def test_criterion_06_theorem_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    for name in FUZZ_RINGS:
        K = KoszulComplex(_ring(name))
        c = K.ring.codepth
        for _ in range(100):
            phi, _, _ = random_elementary_lift(K, rng)
            assert induced_map(phi, 1).is_identity, name
            assert induced_map(phi, c).is_identity, name
            if name in CI_RINGS:
                for i in range(K.n + 1):
                    assert induced_map(phi, i).is_identity, name

    # boundary perturbations change nothing
    for name in ("q_x2_xy_y2_z2.json", "f2_semigroup_6_10_14_15.json"):
        K = KoszulComplex(_ring(name))
        for _ in range(10):
            phi, idx, z = random_elementary_lift(K, rng)
            b = random_boundary(K, 1, rng)
            psi = phi.perturbed(idx, b)
            for i in range(K.n + 1):
                assert induced_map(phi, i) == induced_map(psi, i), name

    # homotopy identity dh + hd = K(phi+delta) - K(phi) on all strand bases
    Kq = KoszulComplex(_ring("q_x2_xy_y2_z2.json"))
    R = Kq.ring
    for s, idx in [
        (Kq.element({(0, 1): R.generator(2)}), 0),
        (Kq.element({(1, 2): R.generator(0)}), 1),
        (Kq.element({(0, 2): R.generator(1)}), 2),
    ]:
        h = homotopy_for_boundary_delta(Kq, idx, s, identity_lift(Kq))
        ok, witness = h.verify_on_basis()
        assert ok and witness is None
    print("criterion 6: PASS (%.2fs)" % (time.perf_counter() - t0))


def test_criterion_07_group_structure():
    t0 = time.perf_counter()
    K = KoszulComplex(_ring("f2_semigroup_6_10_14_15.json"))
    b1 = homology_basis(K, 1)
    lifts = []
    for gen in range(K.n):
        for cls in b1.classes:
            lifts.append((gen, cls.element, elementary_lift(K, gen, cls.element)))

    degrees = range(K.ring.codepth + 1)
    maps = {d: [induced_map(phi, d) for _, _, phi in lifts] for d in degrees}

    for d in degrees:
        ms = maps[d]
        for a in range(len(ms)):
            for b in range(a + 1, len(ms)):
                assert compose_induced(ms[a], ms[b]) == compose_induced(ms[b], ms[a])

    # homomorphism law, same column and different columns
    for (g1, z1, p1), (g2, z2, p2) in [
        (lifts[0], lifts[1]),          # same generator e1
        (lifts[2], lifts[3]),          # same generator e1
        (lifts[1], lifts[K.n + 2]),    # e1 and e2 columns
        (lifts[0], lifts[3 * len(b1.classes)]),  # e1 and e4 columns
    ]:
        if g1 == g2:
            combined = lift_from_delta(K, {g1: z1 + z2})
        else:
            combined = lift_from_delta(K, {g1: z1, g2: z2})
        for d in degrees:
            lhs = compose_induced(induced_map(p1, d), induced_map(p2, d))
            assert lhs == induced_map(combined, d)

    # exponent two
    for d in degrees:
        for m in maps[d]:
            if not m.is_identity:
                assert compose_induced(m, m).is_identity
    print("criterion 7: PASS (%.2fs)" % (time.perf_counter() - t0))


def test_criterion_08_infinite_order_over_q():
    t0 = time.perf_counter()
    K = KoszulComplex(_ring("q_x2_xy_y2_z2.json"))
    R = K.ring
    y, z = R.generator(1), R.generator(2)

    z2 = K.element({(1,): y})          # y e2
    z4 = K.element({(2,): z})          # z e3
    z5 = K.element({(0, 1): y})        # y e1^e2
    for w in (z2, z4, z5):
        assert differential(w).is_zero()

    phi1 = elementary_lift(K, 0, z4)   # e1 -> e1 + z e3
    moved = class_of(K, 2, phi1.apply(z5))
    base = class_of(K, 2, z5)
    prod = class_of(K, 2, wedge(z4, z2))
    assert any(c != K.field.zero for c in prod)
    assert [K.field.sub(a, b) for a, b in zip(moved, base)] == prod

    def phi_lambda(lam):
        return elementary_lift(K, 0, z4.scale(lam))

    for lam, mu in [(Fraction(1, 2), Fraction(1, 3)),
                    (Fraction(-3), Fraction(7, 5)),
                    (Fraction(2), Fraction(-2))]:
        combined = phi_lambda(lam + mu)
        for i in range(K.n + 1):
            lhs = compose_induced(
                induced_map(phi_lambda(lam), i), induced_map(phi_lambda(mu), i))
            assert lhs == induced_map(combined, i)

    a = induced_map(phi1, 2)
    power = a
    for m in range(1, 11):
        assert not power.is_identity, "H_2(phi)^%d should differ from id" % m
        power = compose_induced(power, a)
    print("criterion 8: PASS (%.2fs)" % (time.perf_counter() - t0))


def test_criterion_09_filtration_and_order():
    t0 = time.perf_counter()
    Kw = KoszulComplex(_ring("f2_weighted_2_3.json"))
    assert homology_basis(Kw, 1).dim == 2
    # the relation cycles x^2 e1 + y e2 and y^2 e2, checked as cycles and a basis
    rel = h1_from_relations(Kw)
    assert rel["all_cycles"] is True and rel["minimal"] is True
    R = Kw.ring
    c1 = Kw.element({(0,): R.parse_element("x^2"), (1,): R.parse_element("y")})
    c2 = Kw.element({(1,): R.parse_element("y^2")})
    assert differential(c1).is_zero() and differential(c2).is_zero()
    assert rel["cycles"][0] == c1 and rel["cycles"][1] == c2

    assert filtration_dim(Kw, 2, 7) == homology_basis(Kw, 2).dim
    g = gr_homology(Kw)
    assert g.levels(1) == [2, 4]
    assert g.positive_products_vanish() is True
    assert ring_order(Kw) == 2

    Kr = KoszulComplex(_ring("f2_products_row3.json"))
    assert filtration_dim(Kr, 2, 4) == homology_basis(Kr, 2).dim
    assert filtration_dim(Kr, 2, 5) == 0
    assert check_identity_all(Kr, degrees=[2]).overall is True
    assert slow_suite(Kr)["identity_by_filtration"]["2"] is True
    print("criterion 9: PASS (%.2fs)" % (time.perf_counter() - t0))


@pytest.fixture(scope="module")
def big_suite():
    K = KoszulComplex(_ring("f2_big_x98.json"))
    t0 = time.perf_counter()
    report = slow_suite(K)
    report["_elapsed"] = time.perf_counter() - t0
    return report


@pytest.mark.slow
def test_criterion_10_large_betti_table(big_suite):
    rows = big_suite["betti"]["rows"]
    assert rows == {
        "0": [1, 0, 0, 0],
        "97": [0, 1, 0, 0],
        "98": [0, 1, 0, 0],
        "99": [0, 1, 0, 0],
        "100": [0, 1, 0, 0],
        "148": [0, 0, 1, 0],
        "149": [0, 0, 1, 0],
        "195": [0, 0, 1, 0],
        "196": [0, 0, 2, 0],
        "197": [0, 0, 1, 1],
        "244": [0, 0, 0, 1],
        "245": [0, 0, 0, 1],
    }
    # twelve nonzero entries in homological degrees 1..3
    nonzero = sum(
        1 for j, ranks in rows.items() for i, r in enumerate(ranks)
        if r and i > 0)
    assert nonzero == 12
    assert big_suite["order"] == 98
    assert big_suite["filtration"]["2"]["full_level"] == 150  # F^150 H_2 = H_2
    assert big_suite["identity_by_filtration"]["2"] is True   # H_2(phi) = id
    elapsed = big_suite["_elapsed"]
    assert elapsed < 1800
    print("criterion 10: PASS (Betti rows, F^150 H_2 = H_2, H_2 rigid; %.0fs)"
          % elapsed)


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="F^199 H_2 = 0 contradicts the pinned Betti table: the rank-1 "
           "entry in column 2, row 197 puts a class of H_2 in internal "
           "degree 199, so the vanishing level is 200, not 199",
)
def test_criterion_10_f199_vanishing(big_suite):
    level = big_suite["filtration"]["2"]["vanishing_level"]
    print("criterion 10 (F^199 sub-claim): FAIL - vanishing level is %d" % level)
    assert level <= 199


def _fresh_cli(*args, timeout):
    """One CLI call in a fresh interpreter, which reports its own peak
    resident set size (ru_maxrss, in KiB on Linux) as the last word of stderr."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import resource, sys\n"
            "from koszulalg import cli\n"
            "status = cli.main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(status)\n")
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.slow
def test_criterion_10_suite_peak_memory():
    run = _fresh_cli("suite", "--ring", fixture_path("f2_big_x98.json"), "--slow", "--json",
                     timeout=1800)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["order"] == 98
    peak_mb = int(run.stderr.split()[-1]) / 1024
    assert peak_mb <= 300, peak_mb
    print("criterion 10 memory: PASS (suite --slow peak RSS %.0f MB)" % peak_mb)


@pytest.mark.slow
def test_rank_only_betti_on_a_large_conductor_peak_memory(tmp_path):
    # k[t^1000, t^1001] has conductor 999000: its strand layouts span about
    # 10^6 internal degrees, held as arrays of block bounds
    spec = tmp_path / "semigroup.json"
    spec.write_text(json.dumps({"field": "F2", "presentation": {
        "type": "semigroup", "generators": [1000, 1001]}}))
    run = _fresh_cli("betti", "--ring", str(spec), "--slow", timeout=600)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[2:]]
    assert rows == [["0:", "1", "-"], ["1000999:", "-", "1"]]
    peak_mb = int(run.stderr.split()[-1]) / 1024
    assert peak_mb < 600, peak_mb
    print("large conductor memory: PASS (betti --slow peak RSS %.0f MB)" % peak_mb)


@pytest.mark.slow
def test_order_on_a_large_conductor_peak_memory(tmp_path):
    # the full path keeps a record only where H_1 has a class: of the
    # ~10^6 internal degrees of k[t^1000, t^1001], one
    spec = tmp_path / "semigroup.json"
    spec.write_text(json.dumps({"field": "F2", "presentation": {
        "type": "semigroup", "generators": [1000, 1001]}}))
    run = _fresh_cli("order", "--ring", str(spec), timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "order: 1000\n"
    peak_mb = int(run.stderr.split()[-1]) / 1024
    assert peak_mb < 300, peak_mb
    print("large conductor memory: PASS (order peak RSS %.0f MB)" % peak_mb)


@pytest.mark.slow
@pytest.mark.parametrize("field, a", [("F2", 32), ("Q", 16)])
def test_full_betti_equals_rank_only_on_the_criterion_10_family(field, a, tmp_path):
    # x^a, y^(a+1), z^(a+2), (x^h + y^h) z^(h+1), h = a/2: the full path
    # eliminates every strand of this family in a second or so, where a
    # dense elimination took 10-36 s
    h = a // 2
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"field": field, "presentation": {
        "type": "quotient", "variables": ["x", "y", "z"],
        "ideal": ["x^%d" % a, "y^%d" % (a + 1), "z^%d" % (a + 2),
                  "x^%d*z^%d + y^%d*z^%d" % (h, h + 1, h, h + 1)]}}))
    full, slow = (_fresh_cli("betti", "--ring", str(spec), "--json", *flag, timeout=600)
                  for flag in ((), ("--slow",)))
    assert full.returncode == slow.returncode == 0, (full.stderr, slow.stderr)
    assert full.stdout == slow.stdout
    print("criterion 10 family, %s a=%d: full betti equals betti --slow" % (field, a))
