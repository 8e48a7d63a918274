"""Command line interface: outputs, exit codes, file formats."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszulalg import cli
from koszulalg.cli import (
    SpecError,
    format_lift,
    load_lift_spec,
    load_ring_spec,
    main,
    parse_chain,
)
from koszulalg.koszul import KoszulComplex, class_of, homology_basis
from koszulalg.dgmap import elementary_lift

from conftest import FIXTURES, fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_text(capsys):
    code, out, _ = run(capsys, "betti", "--ring", fixture_path("q_x2_xy_y2_z2.json"))
    assert code == 0
    assert out == (
        "       0 1 2 3\n"
        "total: 1 4 5 2\n"
        "    0: 1 - - -\n"
        "    1: - 4 2 -\n"
        "    2: - - 3 2\n"
    )


def test_betti_json_canonical(capsys):
    code, out, _ = run(
        capsys, "betti", "--ring", fixture_path("q_x2_xy_y2_z2.json"), "--json")
    assert code == 0
    assert out == (
        '{"pdim":3,"regularity":2,"rows":'
        '{"0":[1,0,0,0],"1":[0,4,2,0],"2":[0,0,3,2]}}\n'
    )


def test_betti_slow_path_matches(capsys):
    ring = fixture_path("q_x2_xy_y2_z2.json")
    _, fast, _ = run(capsys, "betti", "--ring", ring, "--json")
    code, slow, _ = run(capsys, "betti", "--ring", ring, "--json", "--slow",
                        "--threads", "2")
    assert code == 0
    assert slow == fast


def _family_ring(tmp_path, field, a):
    """x^a, y^(a+1), z^(a+2), (x^h + y^h) z^(h+1) with h = a/2, as a spec file."""
    h = a // 2
    path = tmp_path / ("%s_%d.json" % (field, a))
    path.write_text(json.dumps({"field": field, "presentation": {
        "type": "quotient", "variables": ["x", "y", "z"],
        "ideal": ["x^%d" % a, "y^%d" % (a + 1), "z^%d" % (a + 2),
                  "x^%d*z^%d + y^%d*z^%d" % (h, h + 1, h, h + 1)]}}))
    return str(path)


@pytest.mark.parametrize("a", [6, 8, 10])
@pytest.mark.parametrize("field", ["F2", "F32003"])
def test_full_betti_matches_rank_only_on_family(capsys, tmp_path, field, a):
    # the full path takes kernels through the int64 elimination, the
    # rank-only path ranks strands by sparse peeling
    ring = _family_ring(tmp_path, field, a)
    code, fast, _ = run(capsys, "betti", "--ring", ring, "--json")
    assert code == 0
    assert run(capsys, "betti", "--ring", ring, "--json", "--slow")[1] == fast


@pytest.mark.slow
def test_family_suite_a16_within_20s_matches_rank_only(capsys, tmp_path):
    ring = _family_ring(tmp_path, "F2", 16)
    start = time.perf_counter()
    code, out, _ = run(capsys, "suite", "--ring", ring, "--json")
    elapsed = time.perf_counter() - start
    assert code == 0
    _, slow, _ = run(capsys, "betti", "--ring", ring, "--json", "--slow")
    assert json.loads(out)["betti"] == json.loads(slow)
    assert elapsed < 20, elapsed


def test_homology_text(capsys):
    code, out, _ = run(capsys, "homology", "--ring", fixture_path("f2_ci_x2_y2.json"))
    assert code == 0
    assert out == (
        "H_0: dim 1\n"
        "  h0.1 (degree 0): (1)\n"
        "H_1: dim 2\n"
        "  h1.1 (degree 2): (x)*e1\n"
        "  h1.2 (degree 2): (y)*e2\n"
        "H_2: dim 1\n"
        "  h2.1 (degree 4): (x*y)*e1e2\n"
    )


def test_homology_degree_filter(capsys):
    code, out, _ = run(capsys, "homology", "--ring",
                       fixture_path("f2_ci_x2_y2.json"), "--degrees", "1")
    assert code == 0
    assert "H_1" in out and "H_0" not in out and "H_2" not in out


def test_homology_representatives_round_trip(capsys):
    ring_file = fixture_path("f2_semigroup_6_10_14_15.json")
    code, out, _ = run(capsys, "homology", "--ring", ring_file, "--json")
    assert code == 0
    data = json.loads(out)
    K = KoszulComplex(load_ring_spec(ring_file))
    for i_str, classes in data["classes"].items():
        i = int(i_str)
        basis = homology_basis(K, i)
        for idx, cls in enumerate(classes):
            z = parse_chain(K, cls["representative"])
            coords = class_of(K, i, z)
            expect = [K.field.one if t == idx else K.field.zero
                      for t in range(basis.dim)]
            assert coords == expect


def test_check_identity_true(capsys):
    code, out, _ = run(capsys, "check-identity", "--ring",
                       fixture_path("f2_identity_true.json"))
    assert code == 0
    assert out == "identity: true\n"


def test_check_identity_false(capsys):
    code, out, _ = run(capsys, "check-identity", "--ring",
                       fixture_path("f2_identity_false.json"))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "identity: false"
    assert lines[1] == "witness: e1 -> e1 + h1.4 fails on H_2"


def test_check_identity_degree_restriction(capsys):
    # H_1(phi) is always the identity, so restricting to degree 1 passes
    code, out, _ = run(capsys, "check-identity", "--ring",
                       fixture_path("f2_semigroup_6_10_14_15.json"),
                       "--degrees", "1")
    assert code == 0


def test_lift_action(capsys):
    code, out, _ = run(capsys, "lift-action",
                       "--ring", fixture_path("f2_semigroup_6_10_14_15.json"),
                       "--lift", fixture_path("lift_6101415_e1.txt"))
    assert code == 1
    assert out == (
        "e1 -> (1)*e1 + (t^16)*e3 + (t^15)*e4\n"
        "e2 -> (1)*e2\n"
        "e3 -> (1)*e3\n"
        "e4 -> (1)*e4\n"
        "H_0(phi) identity: true\n"
        "H_1(phi) identity: true\n"
        "H_2(phi) identity: false\n"
        "H_3(phi) identity: true\n"
        "identity: false\n"
        "gr-identity: true\n"
        "min level shift: 1\n"
    )


def test_lift_action_identity_exit_zero(capsys, tmp_path):
    lift = tmp_path / "id.txt"
    lift.write_text("e1 -> e1\ne2 -> e2\n")
    code, out, _ = run(capsys, "lift-action",
                       "--ring", fixture_path("f2_ci_x2_y2.json"),
                       "--lift", str(lift))
    assert code == 0
    assert "identity: true" in out


def test_lift_action_requires_lift(capsys):
    code, _, err = run(capsys, "lift-action",
                       "--ring", fixture_path("f2_ci_x2_y2.json"))
    assert code == 2
    assert "lift" in err


def test_order(capsys):
    code, out, _ = run(capsys, "order", "--ring", fixture_path("f2_weighted_2_3.json"))
    assert code == 0
    assert out == "order: 2\n"


def test_order_big_x98_from_minimal_generators(capsys):
    code, out, _ = run(capsys, "order", "--ring", fixture_path("f2_big_x98.json"),
                       "--json")
    assert code == 0
    assert out == '{"order":98}\n'


def test_order_infinite(capsys):
    code, out, _ = run(capsys, "order", "--ring", fixture_path("semigroup_regular.json"))
    assert code == 0
    assert out == "order: infinity\n"


def test_gr_text(capsys):
    code, out, _ = run(capsys, "gr", "--ring", fixture_path("f2_weighted_2_3.json"))
    assert code == 0
    assert out == (
        "gr H_0 levels: {0: 1}\n"
        "gr H_1 levels: {2: 1, 4: 1}\n"
        "gr H_2 levels: {7: 1}\n"
        "positive gr products vanish: true\n"
    )


@pytest.mark.parametrize("spec", ["semigroup_regular.json", None])
def test_products_without_a_pair_say_so(capsys, tmp_path, spec):
    # embedding dimension 1 (k[t], F2[x]/(x^3)): no pair (i, j) has i + j <= 1
    if spec is None:
        path = tmp_path / "x3.json"
        path.write_text(json.dumps({"field": "F2", "presentation": {
            "type": "quotient", "variables": ["x"], "ideal": ["x^3"]}}))
        codepth = 1
    else:
        path, codepth = fixture_path(spec), 0
    code, out, _ = run(capsys, "products", "--ring", str(path))
    assert code == 0
    assert out == ("no products: no pair 1 <= i <= j <= codepth %d with i + j <= edim 1\n"
                   % codepth)
    code, out, _ = run(capsys, "products", "--ring", str(path), "--json")
    assert code == 0 and json.loads(out) == {"vanishing": {}, "witnesses": []}


def test_products_golod(capsys):
    code, out, _ = run(capsys, "products", "--ring", fixture_path("f2_golod_m2.json"))
    assert code == 0
    assert out == "H(1,1) product vanishes: true\n"


def test_products_witness(capsys):
    code, out, _ = run(capsys, "products", "--ring", fixture_path("f2_ci_x2_y2.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H(1,1) product vanishes: false"
    assert lines[1].startswith("witness (1,1): ")
    assert "!= 0" in lines[1]


def test_suite_json_deterministic(capsys):
    args = ["suite", "--ring", fixture_path("f2_ci_x2_y2.json"), "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["identity"]["overall"] is True
    assert report["complete_intersection"] is True


def test_suite_slow(capsys):
    code, out, _ = run(capsys, "suite", "--ring",
                       fixture_path("f2_products_row3.json"), "--json", "--slow")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 2
    assert report["identity_by_filtration"]["2"] is True


def test_suite_slow_rejects_semigroup(capsys):
    code, _, err = run(capsys, "suite", "--ring",
                       fixture_path("f2_semigroup_6_10_14_15.json"), "--slow")
    assert code == 2
    assert "standard graded" in err


def test_missing_ring_file(capsys):
    code, _, err = run(capsys, "betti", "--ring", "/nonexistent/ring.json")
    assert code == 2
    assert "error:" in err


def test_bad_field_name(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "field": "F4",
        "presentation": {"type": "quotient", "variables": ["x"], "ideal": ["x^2"]},
    }))
    code, _, err = run(capsys, "betti", "--ring", str(spec))
    assert code == 2
    assert "field" in err


def test_bad_json_syntax(capsys, tmp_path):
    spec = tmp_path / "broken.json"
    spec.write_text("{not json")
    code, _, err = run(capsys, "betti", "--ring", str(spec))
    assert code == 2


def test_bad_presentation_type(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "field": "F2",
        "presentation": {"type": "free", "variables": ["x"]},
    }))
    code, _, err = run(capsys, "betti", "--ring", str(spec))
    assert code == 2


def test_bad_degrees(capsys):
    code, _, err = run(capsys, "homology", "--ring",
                       fixture_path("f2_ci_x2_y2.json"), "--degrees", "1,x")
    assert code == 2


def test_lift_missing_generator(capsys, tmp_path):
    lift = tmp_path / "short.txt"
    lift.write_text("e1 -> e1\n")
    code, _, err = run(capsys, "lift-action",
                       "--ring", fixture_path("f2_ci_x2_y2.json"),
                       "--lift", str(lift))
    assert code == 2
    assert "e2" in err


def test_lift_non_cycle_perturbation(capsys, tmp_path):
    # e1 + y e1 fails the lift condition: (1+y) x != x since xy != 0
    lift = tmp_path / "bad.txt"
    lift.write_text("e1 -> e1 + y*e1\ne2 -> e2\n")
    code, _, err = run(capsys, "lift-action",
                       "--ring", fixture_path("f2_ci_x2_y2.json"),
                       "--lift", str(lift))
    assert code == 2


def test_lift_denominator_zero_in_field(capsys, tmp_path):
    lift = tmp_path / "half.txt"
    lift.write_text("e1 -> 1/2*e1\ne2 -> e2\n")
    code, out, err = run(capsys, "lift-action",
                         "--ring", fixture_path("f2_ci_x2_y2.json"),
                         "--lift", str(lift))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("first_line", [
    "e1 -> ()*e1",
    "e1 -> *e1",
    "e1 -> e\uff11",  # full-width digit one
    "e\uff11 -> e1",
])
def test_lift_malformed_term(capsys, tmp_path, first_line):
    lift = tmp_path / "bad.txt"
    lift.write_text(first_line + "\ne2 -> e2\ne3 -> e3\n", encoding="utf-8")
    code, out, err = run(capsys, "lift-action",
                         "--ring", fixture_path("q_x2_xy_y2_z2.json"),
                         "--lift", str(lift))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_lift_terms_with_implicit_or_bracketed_coefficients():
    K = KoszulComplex(load_ring_spec(fixture_path("q_x2_xy_y2_z2.json")))
    R = K.ring
    assert parse_chain(K, "(1)*e1") == K.generator_element(0)
    assert parse_chain(K, "e1") == K.generator_element(0)
    assert parse_chain(K, "e1 - z*e3") == K.element(
        {(0,): R.one(), (2,): -R.generator(2)})


def test_lift_bad_degree(capsys, tmp_path):
    # t^7 is not in the semigroup, so the coefficient cannot be parsed
    lift = tmp_path / "bad.txt"
    lift.write_text("e1 -> e1 + t^7*e2\ne2 -> e2\ne3 -> e3\ne4 -> e4\n")
    code, _, err = run(capsys, "lift-action",
                       "--ring", fixture_path("f2_semigroup_6_10_14_15.json"),
                       "--lift", str(lift))
    assert code == 2


def test_format_lift_round_trip(tmp_path):
    ring_file = fixture_path("f2_semigroup_6_10_14_15.json")
    K = KoszulComplex(load_ring_spec(ring_file))
    R = K.ring
    z = K.element({(2,): R.parse_element("t^16"), (3,): R.parse_element("t^15")})
    phi = elementary_lift(K, 0, z)
    text = format_lift(phi)
    out = tmp_path / "lift.txt"
    out.write_text(text + "\n")
    phi2 = load_lift_spec(str(out), K)
    assert phi2.entries == phi.entries


def test_no_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_spec_weights_accepted(capsys):
    code, out, _ = run(capsys, "order", "--ring",
                       fixture_path("f2_weighted_2_3.json"), "--json")
    assert code == 0
    assert json.loads(out)["order"] == 2


def _x_quotient(*ideal, variables=("x",)):
    return {"type": "quotient", "variables": list(variables), "ideal": list(ideal)}


@pytest.mark.parametrize("field, presentation", [
    ("F2", _x_quotient(3)),
    ("F2", _x_quotient("x^2", variables=("x", "x"))),
    ("F2", _x_quotient("x^2", variables=())),
    ("F2", {"type": "quotient", "variables": ["x", "y"], "weights": [True, 1],
            "ideal": ["x^2", "y^2"]}),
    ("F2", {"type": "semigroup", "generators": [True, 2]}),
    (2, _x_quotient("x^2")),
    (["F2"], _x_quotient("x^2")),
    ("F\u0663", _x_quotient("x^2")),
    ("F3", _x_quotient("1/3*x^2")),
    ("F2", _x_quotient("x^2", variables=("",))),
    ("F2", _x_quotient("x^2", variables=("x", "\n"))),
    ("F2", _x_quotient("0")),
    ("F2", _x_quotient("x^\u00b2")),
    ("F2", _x_quotient("x^" + "9" * 5000)),
], ids=["ideal-int", "duplicate-variables", "no-variables", "bool-weight",
        "bool-semigroup-generator", "field-int", "field-list",
        "field-non-ascii-digit", "denominator-zero-in-field",
        "empty-variable-name", "newline-variable-name", "zero-ideal",
        "non-ascii-exponent", "exponent-too-long"])
def test_malformed_spec_exits_two(capsys, tmp_path, field, presentation):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"field": field, "presentation": presentation}))
    code, out, err = run(capsys, "betti", "--ring", str(spec))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field, ideal", [
    ("F2", ["1"]), ("F2", ["x^2", "3", "y^2"]), ("Q", ["x*y", "-1/2"])],
    ids=["one", "three-in-F2", "unit-in-Q"])
def test_unit_ideal_exits_two_naming_the_zero_ring(capsys, tmp_path, field, ideal):
    spec = tmp_path / "unit.json"
    spec.write_text(json.dumps(
        {"field": field, "presentation": _x_quotient(*ideal, variables=("x", "y"))}))
    code, out, err = run(capsys, "betti", "--ring", str(spec))
    assert code == 2
    assert out == ""
    assert err == "error: the ideal contains a unit: the quotient is the zero ring\n"


@pytest.mark.parametrize("presentation", [
    _x_quotient("x^4611686018427387904", "y^2", variables=("x", "y")),
    _x_quotient("x^18446744073709551616", "y^2", variables=("x", "y")),
    {"type": "quotient", "variables": ["x", "y"], "weights": [4611686018427387904, 1],
     "ideal": ["x^2", "y^2"]},
    {"type": "quotient", "variables": ["x"], "weights": [10 ** 20], "ideal": ["x^2"]},
    {"type": "semigroup", "generators": [10 ** 20, 3]},
    _x_quotient("x^8192", "y^8192", "z^2", variables=("x", "y", "z")),
    {"type": "quotient", "variables": ["x", "y"], "weights": [2 ** 23, 1],
     "ideal": ["x^4", "y^2"]},
], ids=["exponent-2^62", "exponent-2^64", "weight-2^62", "weight-10^20",
        "semigroup-generator-10^20", "staircase-2^27", "top-degree-past-limit"])
def test_oversized_spec_exits_three(capsys, tmp_path, presentation):
    # refused before any array of that size is made
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"field": "F2", "presentation": presentation}))
    code, out, err = run(capsys, "order", "--ring", str(spec))
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: resource limit") and err.count("\n") == 1


def test_full_homology_on_x98_exits_three_at_once():
    # its d_2 strand in degree 133 alone is 19791 x 19794 dense entries;
    # the homology pass refuses before assembling any strand
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run(
        [sys.executable, "-m", "koszulalg.cli", "homology", "--ring",
         fixture_path("f2_big_x98.json"), "--json"],
        capture_output=True, text=True, env=env, timeout=10)
    assert run.returncode == 3
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: resource limit") and run.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["betti", "check-identity", "products", "gr", "suite"])
def test_every_full_path_command_on_x98_exits_three(capsys, command):
    code, out, err = run(capsys, command, "--ring", fixture_path("f2_big_x98.json"))
    assert code == 3
    assert out == ""
    assert err.startswith("error: resource limit") and err.count("\n") == 1


def test_non_utf8_ring_spec_exits_two(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_bytes(b"\xff\xfe{")
    with pytest.raises(SpecError, match="utf-8"):
        load_ring_spec(str(spec))
    code, out, err = run(capsys, "order", "--ring", str(spec))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_lift_file_exits_two(capsys, tmp_path):
    ring = fixture_path("f2_ci_x2_y2.json")
    lift = tmp_path / "lift.txt"
    lift.write_bytes(b"e1 -> e1\ne2 -> e2 + \xff*e1\n")
    with pytest.raises(SpecError, match="utf-8"):
        load_lift_spec(str(lift), KoszulComplex(load_ring_spec(ring)))
    code, out, err = run(capsys, "lift-action", "--ring", ring, "--lift", str(lift))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--threads", "0"], ["--threads", "-3", "--slow"]],
                         ids=["zero", "negative-slow"])
def test_threads_below_one_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(["betti", "--ring", fixture_path("f2_ci_x2_y2.json")] + argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "--threads" in captured.err


_READS = {
    "betti": {"--slow"},
    "homology": {"--degrees"},
    "products": set(),
    "check-identity": {"--degrees"},
    "lift-action": {"--lift", "--degrees"},
    "order": set(),
    "gr": set(),
    "suite": {"--slow"},
}
_FLAG_ARGS = {
    "--degrees": ["--degrees", "1"],
    "--slow": ["--slow"],
    "--lift": ["--lift", fixture_path("lift_identity_false_e1_ze3.txt")],
    "--seed": ["--seed", "3"],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, reads in _READS.items()
    for flag in _FLAG_ARGS if flag not in reads])
def test_flag_the_subcommand_never_reads_exits_two(capsys, command, flag):
    argv = [command, "--ring", fixture_path("f2_identity_false.json")]
    if command == "lift-action":
        argv += _FLAG_ARGS["--lift"]
    with pytest.raises(SystemExit) as e:
        main(argv + _FLAG_ARGS[flag])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]


@pytest.mark.parametrize("command", ["homology", "check-identity", "lift-action"])
@pytest.mark.parametrize("degrees", ["", ",", " "], ids=["empty", "comma", "space"])
def test_degree_list_without_a_degree_exits_two(capsys, command, degrees):
    # without --degrees, check-identity and lift-action exit 1 on this ring
    argv = [command, "--ring", fixture_path("f2_identity_false.json")]
    if command == "lift-action":
        argv += _FLAG_ARGS["--lift"]
    code, out, err = run(capsys, *argv, "--degrees", degrees)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--degrees" in errors[0]


@pytest.mark.parametrize("command", sorted(_READS))
def test_every_subcommand_takes_json_and_threads(capsys, command):
    # the benchmark passes both to every subcommand
    ring = "f2_identity_false.json" if command == "lift-action" else "f2_ci_x2_y2.json"
    argv = [command, "--ring", fixture_path(ring), "--json", "--threads", "2"]
    if command == "lift-action":
        argv += _FLAG_ARGS["--lift"]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1)
    assert out and err == ""


def test_parser_reused_across_calls(capsys):
    # one parser per process: after a successful call, bad flags and
    # unknown subcommands still exit 2, and consecutive subcommands print
    # what they print in fresh interpreters
    assert cli._build_parser() is cli._build_parser()
    ring = fixture_path("f2_ci_x2_y2.json")
    calls = [["homology", "--ring", ring, "--json"],
             ["betti", "--ring", ring, "--slow", "--threads", "2"],
             ["order", "--ring", ring]]
    assert run(capsys, *calls[0])[0] == 0
    for argv in (["betti", "--ring", ring, "--threads", "0"],
                 ["no-such-command", "--ring", ring]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert capsys.readouterr().out == ""
    in_process = [run(capsys, *argv) for argv in calls]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for argv, (code, out, err) in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "koszulalg.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 0 and out


# ------------------------------------------------------- lift-file fuzzing

# ring fixture -> (number of generators, cycles, other summands): a cycle
# is a valid perturbation of any e_i; the others are non-cycles, terms
# with an index out of range and coefficients the ring cannot parse
_FUZZ_RINGS = {
    "f2_ci_x2_y2.json": (
        2, ["x*e1", "y*e2", "x*y*e1", "(x)*e1", "x^2*e2"],
        ["x*e2", "y*e1", "e2", "x*e3", "z*e1", "t^3*e2"]),
    "f2_semigroup_6_10_14_15.json": (
        4, ["t^16*e3 + t^15*e4", "t^10*e1 + t^6*e2", "t^14*e1 + (t^6)*e3",
            "t^15*e1 - t^6*e4"],
        ["t^16*e3", "t^6*e1", "t^7*e2", "x*e1", "t^6*e5"]),
}
_FUZZ_NOISE = st.text(alphabet="e12345+-*^()xyt ->#0", max_size=24)


def _rare(draw):
    # not 0: hypothesis favours the ends of a range
    return draw(st.integers(0, 19)) == 7


@st.composite
def lift_files(draw):
    """A ring fixture and lift-file text, malformed or not, for it."""
    name = draw(st.sampled_from(sorted(_FUZZ_RINGS)))
    n, cycles, others = _FUZZ_RINGS[name]
    summands = 3 * cycles + others
    lines = []
    for i in range(1, n + 1):
        if _rare(draw):
            continue  # generator left unassigned
        if _rare(draw):
            lines.append(draw(_FUZZ_NOISE))
            continue
        lhs = draw(st.integers(0, n + 1)) if _rare(draw) else i
        rhs = "e%d" % i
        for _ in range(draw(st.integers(0, 2))):
            sign = draw(st.sampled_from([" + ", " - "]))
            rhs += sign + draw(st.sampled_from(summands))
        lines.append("e%d -> %s" % (lhs, rhs))
    if _rare(draw):
        lines.insert(draw(st.integers(0, len(lines))), draw(_FUZZ_NOISE))
    return name, "\n".join(lines) + "\n"


@given(lift_files())
@settings(max_examples=40, deadline=None)
def test_lift_action_exit_codes_on_fuzzed_lift_files(case):
    name, text = case
    ring = fixture_path(name)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lift.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["lift-action", "--ring", ring, "--lift", path])
        K = KoszulComplex(load_ring_spec(ring))
        try:
            load_lift_spec(path, K)
            valid = True
        except ValueError:
            valid = False
    assert "Traceback" not in err.getvalue()
    if valid:
        assert code in (0, 1), err.getvalue()
        assert out.getvalue()
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


# ------------------------------------------------------- ring-spec fuzzing

_SPEC_FIXTURES = sorted(
    name for name in os.listdir(FIXTURES)
    if name.endswith(".json") and name != "f2_big_x98.json")
_SPEC_KEYS = ("field", "presentation", "type", "variables", "ideal", "weights",
              "generators")
# JSON values of every type; the strings include non-ASCII digits, a newline
# and characters the polynomial grammar has no use for
_SPEC_TEXT = st.text(alphabet="xyzt_F2Q0 ^*+-/\n\u0663\u00b2\u00e9'", max_size=5)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12), st.floats(0, 3), _SPEC_TEXT,
    st.lists(st.one_of(st.integers(-1, 12), _SPEC_TEXT, st.booleans()), max_size=5),
    st.dictionaries(_SPEC_TEXT, st.integers(0, 3), max_size=2))
# fragments of polynomial text; a filter below keeps every exponent to one
# digit, so a mutated ideal stays small
_POLY_TOKENS = ["x", "y", "z", "w", "u", "v", "t", "q", "^2", "^3", "*", " + ",
                " - ", "2", "3", "1/2*", "1/3*", "1/0*", "(", "\u0663", "^\u00b2"]


@st.composite
def _polynomial_texts(draw):
    text = "".join(draw(st.lists(st.sampled_from(_POLY_TOKENS), min_size=1,
                                 max_size=7)))
    assume(not re.search(r"\d\d", text))
    return text


def _mutate_spec(draw, spec):
    """One random edit of a parsed spec: a key, a name or a polynomial."""
    pres = spec["presentation"]
    kind = draw(st.sampled_from(["retype", "delete", "variables", "ideal",
                                 "field", "numbers"]))
    key = draw(st.sampled_from(_SPEC_KEYS))
    owner = spec if key in ("field", "presentation") else pres
    if kind == "retype":
        owner[key] = draw(_JSON_VALUES)
    elif kind == "delete":
        owner.pop(key, None)
    elif kind == "variables" and isinstance(pres.get("variables"), list):
        names = pres["variables"]
        pres["variables"] = draw(st.sampled_from([
            [], names + names[:1], names + [""], [""] + names[1:],
            names[:-1] + [draw(_SPEC_TEXT)]]))
    elif kind == "ideal" and isinstance(pres.get("ideal"), list) and pres["ideal"]:
        ideal = pres["ideal"]
        ideal[draw(st.integers(0, len(ideal) - 1))] = draw(_polynomial_texts())
    elif kind == "field":
        spec["field"] = draw(st.sampled_from(
            ["F2", "F3", "F5", "Q", "F4", "F", "f2", "F\u0663", "F 2"]))
    elif kind == "numbers":
        numbers = st.lists(st.integers(1, 12), min_size=1, max_size=5)
        pres["generators" if pres.get("type") == "semigroup" else "weights"] = (
            draw(numbers))


@st.composite
def ring_specs(draw):
    """A fixture ring spec with one or two random edits."""
    with open(fixture_path(draw(st.sampled_from(_SPEC_FIXTURES))),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    for _ in range(draw(st.integers(1, 2))):
        if isinstance(spec.get("presentation"), dict):
            _mutate_spec(draw, spec)
    return spec


@given(ring_specs())
@settings(max_examples=80, deadline=None)
def test_order_exit_codes_on_fuzzed_ring_specs(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["order", "--ring", path])
        try:
            load_ring_spec(path)
            valid = True
        except ValueError:
            valid = False
    assert "Traceback" not in err.getvalue()
    if valid:
        assert code == 0, err.getvalue()
        assert out.getvalue()
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()


@pytest.mark.parametrize("command, exits", [
    ("suite", {0}), ("check-identity", {0, 1}), ("products", {0})])
@given(spec=ring_specs())
@settings(max_examples=80, deadline=None)
def test_decision_exit_codes_on_fuzzed_ring_specs(command, exits, spec):
    # exit 3 is allowed only as a resource failure
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--ring", path])
        try:
            R = load_ring_spec(path)
            valid = True
        except ValueError:
            valid = False
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert valid and err.getvalue().startswith("error: resource limit"), err.getvalue()
        assert out.getvalue() == ""
    elif valid and command == "products":
        # one line per pair 1 <= i <= j <= codepth with i + j <= edim; with
        # none (k[t], k[x]/(x^a): edim 1) one line that says so
        assert code in exits, err.getvalue()
        c = R.codepth
        pairs = sum(i + j <= R.ngens for i in range(1, c + 1) for j in range(i, c + 1))
        lines = out.getvalue().splitlines()
        assert sum(line.startswith("H(") for line in lines) == pairs, out.getvalue()
        if not pairs:
            assert lines == [
                "no products: no pair 1 <= i <= j <= codepth %d with i + j <= edim %d"
                % (c, R.ngens)], out.getvalue()
    elif valid:
        assert code in exits, err.getvalue()
        assert out.getvalue()
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()
