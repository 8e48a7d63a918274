"""Command-line front end.

Rings come from JSON spec files, lifts from small text files, and each
subcommand prints either a human-readable report or canonical JSON.
Exit codes are pipeline-friendly: 0 means the computation succeeded and
any decided property holds, 1 means the property is false, 2 an input
problem, 3 a resource or truncation failure.

Ring spec format:

    {"field": "F2", "presentation": {"type": "quotient",
     "variables": ["x", "y"], "weights": [2, 3],
     "ideal": ["x^3 + y^2", "y^3"]}}

    {"field": "Q", "presentation": {"type": "semigroup",
     "generators": [6, 10, 14, 15]}}

Lift file format, one line per exterior generator:

    e1 -> e1 + t^16*e3 + t^15*e4
    e2 -> e2
    ...

Each right-hand term carries exactly one e_j factor; coefficients use
the polynomial grammar of the ring (parenthesized coefficients, as the
tool itself prints them, are also accepted).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from koszulalg.exactalg import field_by_name
from koszulalg.polyring import PolyContext, PolyParseError
from koszulalg.gring import (
    ArtinianQuotient,
    RingConstructionError,
    make_artinian_quotient,
    make_semigroup_ring,
)
from koszulalg.koszul import (
    KoszulComplex,
    KoszulElement,
    NotACycleError,
    TruncationError,
    betti_table,
    homology_basis,
    homology_product,  # noqa: F401 -- bench/tracing.py wraps this binding
    product_witness,
)
from koszulalg.dgmap import LiftError, induced_map, make_lift
from koszulalg import analyze


class SpecError(ValueError):
    """Malformed ring or lift specification file."""


# ------------------------------------------------------------------- loading

def load_ring_spec(path):
    """Build the graded ring described by a JSON spec file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise SpecError("cannot read ring spec: %s" % e)
    except json.JSONDecodeError as e:
        raise SpecError("ring spec is not valid JSON: %s" % e)
    if not isinstance(raw, dict):
        raise SpecError("ring spec must be a JSON object")
    try:
        field = field_by_name(raw["field"])
        pres = raw["presentation"]
        kind = pres["type"]
    except (KeyError, TypeError) as e:
        raise SpecError("ring spec missing key: %s" % e)
    except ValueError as e:
        raise SpecError("bad field name: %s" % e)
    if kind == "quotient":
        variables = pres.get("variables")
        ideal = pres.get("ideal")
        if not isinstance(variables, list) or not all(
                isinstance(v, str) for v in variables):
            raise SpecError("quotient spec needs a list of variable names")
        if not isinstance(ideal, list) or not all(
                isinstance(g, str) for g in ideal):
            raise SpecError("quotient spec needs a list of ideal generators "
                            "given as strings")
        weights = pres.get("weights")
        if weights is not None and (
                not isinstance(weights, list)
                or len(weights) != len(variables)
                or not all(_positive_int(w) for w in weights)):
            raise SpecError("weights must be positive integers, one per variable")
        try:
            ctx = PolyContext(field, variables, weights)
        except ValueError as e:
            raise SpecError("bad quotient variables: %s" % e)
        return make_artinian_quotient(ctx, ideal)
    if kind == "semigroup":
        gens = pres.get("generators")
        if not isinstance(gens, list) or not all(_positive_int(g) for g in gens):
            raise SpecError("semigroup spec needs positive integer generators")
        return make_semigroup_ring(field, gens)
    raise SpecError("unknown presentation type %r" % kind)


def _positive_int(value):
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


_WEDGE_RE = re.compile(r"(?:e[0-9]+)+$")
_EIDX_RE = re.compile(r"e([0-9]+)")


def _split_terms(text):
    """Split a sum at top-level +/－ signs, respecting parentheses."""
    terms = []
    depth = 0
    cur = ""
    sign = 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecError("unbalanced parentheses in %r" % text)
        if depth == 0 and ch in "+-" and cur.strip():
            terms.append((sign, cur.strip()))
            cur = ""
            sign = 1 if ch == "+" else -1
            continue
        if depth == 0 and ch in "+-" and not cur.strip():
            # leading sign of the whole expression or after another sign
            sign = sign if ch == "+" else -sign
            continue
        cur += ch
    if depth != 0:
        raise SpecError("unbalanced parentheses in %r" % text)
    if cur.strip():
        terms.append((sign, cur.strip()))
    return terms


def _parse_wedge_term(ring, term):
    """One summand 'coeff*e1e3' -> (subset tuple, RingElement)."""
    m = _WEDGE_RE.search(term)
    if m is None:
        # no exterior factor: a homological-degree-0 term such as '(1)'
        idxs = []
        coeff_text = term.strip()
    else:
        idxs = [int(t) - 1 for t in _EIDX_RE.findall(m.group(0))]
        if any(i < 0 or i >= ring.ngens for i in idxs):
            raise SpecError("generator index out of range in %r" % term)
        if len(set(idxs)) != len(idxs) or idxs != sorted(idxs):
            raise SpecError(
                "exterior factors must be distinct and increasing in %r" % term)
        coeff_text = term[: m.start()].strip()
        if not coeff_text:
            # a bare wedge such as 'e1e3' has coefficient 1
            return tuple(idxs), ring.one()
    if coeff_text.endswith("*"):
        coeff_text = coeff_text[:-1].strip()
    if (coeff_text.startswith("(") and coeff_text.endswith(")")
            and "(" not in coeff_text[1:-1] and ")" not in coeff_text[1:-1]):
        coeff_text = coeff_text[1:-1]
    try:
        coeff = ring.parse_element(coeff_text)
    except (PolyParseError, ValueError) as e:
        raise SpecError("bad coefficient %r: %s" % (coeff_text, e))
    return tuple(idxs), coeff


def parse_chain(K, text):
    """Parse a sum of coeff*wedge terms into a KoszulElement.

    Accepts both the bare fixture style 't^16*e3 + t^15*e4' and the
    parenthesized style this tool prints, '(t^16)*e3 + (t^15)*e4'.
    """
    text = text.strip()
    if text == "0" or not text:
        return K.zero_element()
    out = K.zero_element()
    for sign, term in _split_terms(text):
        S, coeff = _parse_wedge_term(K.ring, term)
        if sign < 0:
            coeff = -coeff
        out = out + KoszulElement(K, {S: coeff})
    return out


def load_lift_spec(path, K):
    """Read a lift file; every generator must appear exactly once on the left."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise SpecError("cannot read lift spec: %s" % e)
    images = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "->" not in stripped:
            raise SpecError("line %d: expected 'ei -> ...'" % lineno)
        lhs, rhs = stripped.split("->", 1)
        m = re.fullmatch(r"e([0-9]+)", lhs.strip())
        if m is None:
            raise SpecError("line %d: left side must be a single ei" % lineno)
        i = int(m.group(1)) - 1
        if i < 0 or i >= K.n:
            raise SpecError("line %d: generator index out of range" % lineno)
        if i in images:
            raise SpecError("line %d: e%d assigned twice" % (lineno, i + 1))
        img = parse_chain(K, rhs)
        if not img.is_zero() and img.homological_degree() != 1:
            raise SpecError("line %d: image must be degree-1" % lineno)
        images[i] = img
    missing = [i + 1 for i in range(K.n) if i not in images]
    if missing:
        raise SpecError(
            "lift file does not assign e%s" % ", e".join(map(str, missing)))
    entries = []
    ring = K.ring
    for j in range(K.n):
        entries.append([
            images[i].data.get((j,), ring.zero()) for i in range(K.n)])
    return make_lift(K, entries)


def format_lift(phi):
    """Lift back in the file grammar; re-parses to an equal lift."""
    lines = []
    for i in range(phi.complex.n):
        lines.append("e%d -> %s" % (i + 1, phi.image_of_generator(i)))
    return "\n".join(lines)


# ------------------------------------------------------------------- output

def _emit_json(obj):
    sys.stdout.write(
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _matrix_json(m):
    return [[str(e) for e in row] for row in m.rows]


def _parse_degrees(text, K):
    try:
        degrees = sorted({int(t) for t in text.split(",") if t.strip()})
    except ValueError:
        raise SpecError("--degrees expects a comma-separated integer list")
    if not degrees:
        raise SpecError("--degrees lists no degree")
    for i in degrees:
        if i < 0 or i > K.n:
            raise SpecError("degree %d outside 0..%d" % (i, K.n))
    return degrees


# --------------------------------------------------------------- subcommands

def cmd_betti(K, args):
    table = betti_table(K, rank_only=args.slow, threads=args.threads)
    if args.json:
        _emit_json(table.to_json())
    else:
        print(table)
    return 0


def cmd_homology(K, args):
    c = K.ring.codepth
    degrees = _parse_degrees(args.degrees, K) if args.degrees is not None else range(c + 1)
    out = {"dims": {}, "classes": {}}
    for i in degrees:
        basis = homology_basis(K, i)
        out["dims"][str(i)] = basis.dim
        out["classes"][str(i)] = [
            {
                "label": cls.label,
                "degree": cls.degree,
                "representative": str(cls.element),
            }
            for cls in basis.classes
        ]
    if args.json:
        _emit_json(out)
        return 0
    for i in degrees:
        print("H_%d: dim %s" % (i, out["dims"][str(i)]))
        for cls in out["classes"][str(i)]:
            print("  %s (degree %d): %s"
                  % (cls["label"], cls["degree"], cls["representative"]))
    return 0


def cmd_products(K, args):
    c = K.ring.codepth
    table = {}
    witnesses = []
    for i in range(1, c + 1):
        for j in range(i, c + 1):
            if i + j > K.n:
                continue
            witness = product_witness(K, i, j)
            table["(%d,%d)" % (i, j)] = witness is None
            if witness is not None:
                a, b, prod = witness
                witnesses.append({
                    "pair": "(%d,%d)" % (i, j),
                    "left": homology_basis(K, i).classes[a].label,
                    "right": homology_basis(K, j).classes[b].label,
                    "product": [str(x) for x in prod],
                })
    out = {"vanishing": table, "witnesses": witnesses}
    if args.json:
        _emit_json(out)
        return 0
    if not table:
        print("no products: no pair 1 <= i <= j <= codepth %d with i + j <= edim %d"
              % (c, K.n))
    for key in sorted(table):
        print("H%s product vanishes: %s" % (key, str(table[key]).lower()))
    for w in witnesses:
        print("witness %s: %s * %s != 0" % (w["pair"], w["left"], w["right"]))
    return 0


def cmd_check_identity(K, args):
    degrees = _parse_degrees(args.degrees, K) if args.degrees is not None else None
    verdict = analyze.check_identity_all(K, degrees)
    if args.json:
        _emit_json(verdict.to_json())
    else:
        print("identity: %s" % str(verdict.overall).lower())
        for w in verdict.witnesses:
            print("witness: e%d -> e%d + %s fails on H_%d"
                  % (w["generator"] + 1, w["generator"] + 1,
                     w["class_label"], w["degree"]))
    return 0 if verdict.overall else 1


def cmd_lift_action(K, args):
    if not args.lift:
        raise SpecError("lift-action requires --lift FILE")
    phi = load_lift_spec(args.lift, K)
    c = K.ring.codepth
    degrees = _parse_degrees(args.degrees, K) if args.degrees is not None else range(c + 1)
    maps = {i: induced_map(phi, i) for i in sorted({*degrees, *range(c + 1)})}
    out = {"lift": format_lift(phi), "degrees": {}, "identity": True}
    for i in degrees:
        m = maps[i]
        out["degrees"][str(i)] = {
            "matrix": _matrix_json(m.matrix),
            "identity": m.is_identity,
        }
        if not m.is_identity:
            out["identity"] = False
    gr_ok, gr_report = analyze.gr_induced_identity(
        K, {i: maps[i].difference_columns() for i in range(c + 1)})
    out["gr_identity"] = gr_ok
    shift = gr_report["min_shift"]
    out["min_level_shift"] = "infinity" if shift is None else shift
    if args.json:
        _emit_json(out)
    else:
        print(out["lift"])
        for i in degrees:
            info = out["degrees"][str(i)]
            print("H_%d(phi) identity: %s" % (i, str(info["identity"]).lower()))
        print("identity: %s" % str(out["identity"]).lower())
        print("gr-identity: %s" % str(gr_ok).lower())
        print("min level shift: %s" % out["min_level_shift"])
    return 0 if out["identity"] else 1


def cmd_order(K, args):
    order = analyze.ring_order(K)
    value = "infinity" if order == math.inf else order
    if args.json:
        _emit_json({"order": value})
    else:
        print("order: %s" % value)
    return 0


def cmd_gr(K, args):
    gr = analyze.gr_homology(K)
    vanish = gr.positive_products_vanish()
    out = gr.to_json()
    out["positive_products_vanish"] = vanish
    if args.json:
        _emit_json(out)
        return 0
    c = K.ring.codepth
    for i in range(c + 1):
        levels = gr.levels(i)
        desc = ", ".join("%d: %d" % (l, gr.dim(i, l)) for l in levels)
        print("gr H_%d levels: {%s}" % (i, desc))
    print("positive gr products vanish: %s" % str(vanish).lower())
    return 0


def cmd_suite(K, args):
    if args.slow:
        try:
            report = analyze.slow_suite(K)
        except ValueError as e:
            raise SpecError(str(e))
    else:
        report = analyze.run_suite(K)
    if args.json:
        _emit_json(report)
    else:
        print(json.dumps(report, sort_keys=True, indent=1))
    return 0


_COMMANDS = {
    "betti": cmd_betti,
    "homology": cmd_homology,
    "products": cmd_products,
    "check-identity": cmd_check_identity,
    "lift-action": cmd_lift_action,
    "order": cmd_order,
    "gr": cmd_gr,
    "suite": cmd_suite,
}


def _thread_count(text):
    """argparse type of --threads: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            "expected an integer of at least 1, got %r" % text)
    return n


# The flags each subcommand reads besides --ring, --json and --threads;
# any other flag is refused (exit 2) rather than silently ignored.
_COMMAND_FLAGS = {
    "betti": ("--slow",),
    "homology": ("--degrees",),
    "products": (),
    "check-identity": ("--degrees",),
    "lift-action": ("--lift", "--degrees"),
    "order": (),
    "gr": (),
    "suite": ("--slow",),
}

_FLAG_OPTIONS = {
    "--lift": dict(metavar="FILE", help="lift file"),
    "--degrees": dict(metavar="LIST", help="comma-separated homological degrees"),
    "--slow": dict(action="store_true", help="rank-only large-scale path"),
}


@functools.cache
def _build_parser():
    """The one parser of the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="koszulalg",
        description="Koszul homology of graded local rings: Betti tables, "
                    "homology algebra, and the lift-identity decision.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--ring", required=True, metavar="FILE",
                       help="JSON ring spec file")
        p.add_argument("--json", action="store_true",
                       help="canonical JSON output")
        p.add_argument("--threads", type=_thread_count, default=1, metavar="N",
                       help="upper bound on worker threads; strands run "
                            "serially, which meets every bound")
        for flag in _COMMAND_FLAGS[name]:
            p.add_argument(flag, **_FLAG_OPTIONS[flag])
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        ring = load_ring_spec(args.ring)
        K = KoszulComplex(ring)
        return _COMMANDS[args.command](K, args)
    except (SpecError, RingConstructionError, PolyParseError, LiftError,
            NotACycleError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except TruncationError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as e:
        print("error: resource limit: %r" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
