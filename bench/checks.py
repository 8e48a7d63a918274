"""Output checks for benchmark operations.

Fixture operations must reproduce the canonical ``--json`` stdout and exit
code recorded in golden_fixtures.json byte for byte.  Seeded rings are
checked against facts that hold by construction and do not rely on the
result under test: beta_0 is 1 in degree 0, beta_1 sits exactly in the
degrees of the minimal ideal generators, ord(R) is the lowest of those
degrees (standard grading), and sampled lifts form an abelian group of
exponent p.  The Euler characteristic is no check on the rank-only path,
where it telescopes to a tautology.

Every check returns None when the output passes, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_fixtures.json")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden():
    with open(GOLDEN_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def betti_problem(table, facts):
    rows = table.get("rows", {})
    if rows.get("0", [0])[0] != 1:
        return "beta_0 is not 1 in degree 0"
    if any(ranks and ranks[0] for j, ranks in rows.items() if j != "0"):
        return "beta_0 has entries outside degree 0"
    beta1 = []
    for j, ranks in rows.items():
        if len(ranks) > 1:
            beta1 += [int(j) + 1] * ranks[1]
    if sorted(beta1) != facts["generator_degrees"]:
        return "beta_1 degrees %s, generators have %s" % (
            sorted(beta1), facts["generator_degrees"])
    return None


def _order_problem(value, facts):
    if value != facts["order"]:
        return "order %r, lowest generator degree is %d" % (value, facts["order"])
    return None


def _small_suite_problem(report, facts):
    problem = betti_problem(report["betti"], facts) or _order_problem(
        report["order"], facts)
    if problem:
        return problem
    if report["group_law"] is not True or report["abelian"] is not True:
        return "sampled lifts break the group law or commutativity"
    expected_exponent = None if facts["field"] == "Q" else True
    if report["exponent_p"] is not expected_exponent:
        return "exponent_p is %r" % report["exponent_p"]
    return None


def _identity_exit_problem(code, holds, witnesses):
    if code not in (0, 1):
        return "exit %d" % code
    if (code == 0) != bool(holds):
        return "exit %d disagrees with identity=%r" % (code, holds)
    if not holds and not witnesses:
        return "identity false without a witness"
    return None


def _small_problem(cmd, code, out, facts):
    if cmd in ("check-identity", "lift-action"):
        if cmd == "check-identity":
            return _identity_exit_problem(
                code, out["overall"], out["witnesses"])
        h0 = out["degrees"].get("0")
        if h0 is not None and h0["matrix"] != [["1"]]:
            return "H_0 of a lift is not the identity"
        return _identity_exit_problem(
            code, out["identity"], [d for d in out["degrees"].values()
                                    if not d["identity"]])
    if code != 0:
        return "exit %d" % code
    ngens = len(facts["generator_degrees"])
    if cmd == "betti":
        return betti_problem(out, facts)
    if cmd == "homology":
        if out["dims"].get("0") != 1 or out["dims"].get("1") != ngens:
            return "dims %r, expected H_0 = 1 and H_1 = %d" % (out["dims"], ngens)
        return None
    if cmd == "products":
        if bool(out["witnesses"]) == all(out["vanishing"].values()):
            return "product witnesses disagree with the vanishing table"
        return None
    if cmd == "order":
        return _order_problem(out["order"], facts)
    if cmd == "gr":
        h1 = sum(v for key, v in out["dims"].items() if key.split(",")[0] == "1")
        if h1 != ngens:
            return "gr H_1 has dim %d, expected %d" % (h1, ngens)
        return None
    if cmd == "suite":
        return _small_suite_problem(out, facts)
    return "no check for %s" % cmd


def problem(op, code, stdout, stderr, golden):
    """None if the operation's output passes its check, else the reason."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if op.kind == "golden":
        want = golden[op.expect["key"]]
        if code != want["exit"]:
            return "exit %d, canonical exit %d" % (code, want["exit"])
        if digest(stdout) != want["sha256"]:
            return "stdout differs from the canonical output"
        return None
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON (exit %d)" % code
    try:
        if op.kind.startswith("small-"):
            return _small_problem(op.kind[len("small-"):], code, out, op.expect)
        if code != 0:
            return "exit %d" % code
        if op.kind == "family-suite":
            return (betti_problem(out["betti"], op.expect)
                    or _order_problem(out["order"], op.expect))
        if op.kind == "family-betti":
            return betti_problem(out, op.expect)
    except (KeyError, TypeError, AttributeError, IndexError) as e:
        return "malformed output: %r" % e
    return "no check for %s" % op.kind
