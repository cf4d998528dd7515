"""Command-line front end: parse a polynomial, dispatch one verb, print
text or JSON.  Exit codes: 0 success (including "not applicable"
verdicts), 1 usage error, 2 unsupported input, 3 resource cap."""

import argparse
import json
import sys
import time
from fractions import Fraction

from .errors import ResourceCapError, UnsupportedError
from .hodge import (epsilon_f, hodge_ideal_spectrum, monotonicity_scan,
                    prop1_check, prop2_witness, theorem1_check,
                    theorem2_check, theorem3_witness, tjurina_subspectrum)
from .localalg import (milnor_algebra, set_truncation_start,
                       steenbrink_spectrum, tjurina_number)
from .newton import convenientize, is_nondegenerate, newton_polyhedron
from .polycore import Polynomial, Spectrum, parse_polynomial

STATEMENTS = ("thm1", "thm2", "thm3", "prop1", "prop2")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        sys.exit(1)


def _build_parser():
    parser = _Parser(prog="singspec",
                     description="Exact invariants of isolated hypersurface "
                                 "singularities.")
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    verbs = ["spectrum", "hi-spectrum", "tj-spectrum", "milnor", "tjurina",
             "newton", "nondegenerate", "convenientize", "epsilon", "check",
             "scan-monotonicity", "report"]
    for verb in verbs:
        sp = sub.add_parser(verb, add_help=True)
        if verb == "check":
            sp.add_argument("statement", choices=STATEMENTS)
        sp.add_argument("polynomial", nargs="?", default=None)
        sp.add_argument("--file", default=None,
                        help="read the polynomial from this file")
        sp.add_argument("--vars", default=None,
                        help="comma-separated variable names")
        sp.add_argument("--weights", default=None,
                        help="comma-separated rational weights")
        sp.add_argument("--trunc", type=int, default=None,
                        help="starting truncation degree")
        sp.add_argument("--max-p", dest="max_p", type=int, default=None,
                        help="cutoff for the Hodge-ideal index p (no "
                        "effect on tj-spectrum)")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--time", dest="timing", action="store_true")
        sp.add_argument("--out", default=None,
                        help="write the output to this file")
    return parser


def _read_input(args):
    if args.polynomial is not None and args.file is not None:
        raise UsageError("give the polynomial either inline or via --file")
    text = args.polynomial
    if args.file is not None:
        with open(args.file) as handle:
            text = handle.read().strip()
    if text is None:
        raise UsageError("no polynomial given")
    if args.vars:
        variables = [v.strip() for v in args.vars.split(",")]
    else:
        variables = sorted({ch for ch in text if ch.isalpha()})
        if not variables:
            raise UsageError("cannot infer variables from %r" % text)
    f = parse_polynomial(text, variables)
    hint = None
    if args.weights:
        try:
            hint = [Fraction(w.strip()) for w in args.weights.split(",")]
        except ZeroDivisionError:
            raise UsageError("zero denominator in --weights %s"
                             % args.weights) from None
        if len(hint) != len(variables):
            raise UsageError("got %d weights for %d variables"
                             % (len(hint), len(variables)))
    return text, variables, f, hint


class UsageError(Exception):
    pass


def _rat(x):
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def _spectrum_json(sp):
    return [{"num": a.numerator, "den": a.denominator, "mult": m}
            for a, m in sp.sorted_items()]


def _jsonable(value, variables):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return _rat(value)
    if isinstance(value, Polynomial):
        return value.to_string(variables)
    if isinstance(value, Spectrum):
        return _spectrum_json(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, variables) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v, variables) for k, v in value.items()}
    return str(value)


def _format_value(value, variables):
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, Polynomial):
        return value.to_string(variables)
    if isinstance(value, (list, tuple)):
        return " ".join(_format_value(v, variables) for v in value)
    return str(value)


def _spectrum_lines(name, sp):
    lines = ["%s (%d exponents):" % (name, sp.total())]
    for a, m in sp.sorted_items():
        lines.append("  %s %d" % (a, m))
    return lines


def _report_lines(title, report, variables):
    lines = ["%s:" % title]
    for key, value in report.items():
        lines.append("  %s: %s" % (key, _format_value(value, variables)))
    return lines


def _statement(stmt, f, hint):
    """The report of one statement, as check and report print it; a
    witness search becomes {witness, degree_cap or note, found}."""
    searches = {"thm3": (theorem3_witness, "degree_cap"),
                "prop2": (prop2_witness, "note")}
    if stmt in searches:
        search, key = searches[stmt]
        witness, info = search(f, hint)
        return {"witness": witness, key: info, "found": witness is not None}
    checks = {"thm1": theorem1_check, "thm2": theorem2_check,
              "prop1": prop1_check}
    return checks[stmt](f, hint)


def emit_report(f, hint, variables, text, args):
    report = {
        "input": text,
        "variables": list(variables),
        "mu": milnor_algebra(f).mu,
        "tau": tjurina_number(f),
    }
    sp = steenbrink_spectrum(f, hint)
    hi = hodge_ideal_spectrum(f, hint, args.max_p)
    tj = tjurina_subspectrum(f, hint)
    gamma_f, eps = epsilon_f(f, hint)
    report.update({
        "spectrum": sp,
        "hi_spectrum": hi,
        "tj_spectrum": tj,
        "gamma_f": gamma_f,
        "epsilon_f": eps,
        "checks": {stmt: _statement(stmt, f, hint)
                   for stmt in STATEMENTS},
        "caps": {"trunc": milnor_algebra(f).N,
                 "max_p": args.max_p if args.max_p is not None
                 else f.n + 1},
    })
    return report


def _dispatch(args):
    text, variables, f, hint = _read_input(args)
    verb = args.verb
    lines = []
    payload = None
    if verb == "milnor":
        mu = milnor_algebra(f).mu
        lines = ["mu = %d" % mu]
        payload = {"mu": mu}
    elif verb == "tjurina":
        tau = tjurina_number(f)
        lines = ["tau = %d" % tau]
        payload = {"tau": tau}
    elif verb in ("spectrum", "hi-spectrum", "tj-spectrum"):
        if verb == "spectrum":
            sp = steenbrink_spectrum(f, hint)
        elif verb == "hi-spectrum":
            sp = hodge_ideal_spectrum(f, hint, args.max_p)
        else:
            sp = tjurina_subspectrum(f, hint)
        lines = _spectrum_lines(verb, sp)
        payload = {verb.replace("-", "_"): _spectrum_json(sp)}
    elif verb == "newton":
        NP = newton_polyhedron(f)
        lines = ["convenient: %s" % NP.convenient,
                 "vertices: " + " ".join(str(v) for v in NP.vertices)]
        for fc in NP.facets:
            lines.append("facet: coeffs=%s constant=%s positivity=%s"
                         % (tuple(str(c) for c in fc.coeffs), fc.constant,
                            fc.positivity))
        payload = {
            "convenient": NP.convenient,
            "vertices": [list(v) for v in NP.vertices],
            "facets": [{"coeffs": [_rat(c) for c in fc.coeffs],
                        "constant": _rat(fc.constant),
                        "positivity": fc.positivity}
                       for fc in NP.facets],
        }
    elif verb == "nondegenerate":
        verdict = is_nondegenerate(f)
        lines = ["verdict: %s" % verdict.status]
        if verdict.face is not None:
            lines.append("face: " + " ".join(
                str(pt) for pt in sorted(verdict.face.points)))
        if verdict.reason:
            lines.append("reason: %s" % verdict.reason)
        payload = {
            "verdict": verdict.status,
            "face": [list(pt) for pt in sorted(verdict.face.points)]
            if verdict.face is not None else None,
            "reason": verdict.reason,
        }
    elif verb == "convenientize":
        exponents, builder = convenientize(f, f.degree() + 1)
        augmented = builder(1)
        lines = ["exponents: " + " ".join(str(a) for a in exponents),
                 "augmented: " + augmented.to_string(variables)]
        payload = {"exponents": list(exponents),
                   "augmented": augmented.to_string(variables)}
    elif verb == "epsilon":
        gamma_f, eps = epsilon_f(f, hint)
        lines = ["gamma_f = %s" % gamma_f, "epsilon_f = %s" % eps]
        payload = {"gamma_f": _rat(gamma_f), "epsilon_f": _rat(eps)}
    elif verb == "check":
        stmt = args.statement
        report = _statement(stmt, f, hint)
        lines = _report_lines(stmt, report, variables)
        payload = {stmt: _jsonable(report, variables)}
    elif verb == "scan-monotonicity":
        p = args.max_p if args.max_p is not None else 2
        violations = monotonicity_scan(f, hint, p)
        lines = ["violations: %d" % len(violations)]
        for a, a_hi, g in violations:
            lines.append("  alpha in (%s, %s] witness %s"
                         % (a, a_hi, g.to_string(variables)))
        payload = {"violations": [
            {"alpha_low": _rat(a), "alpha_high": _rat(a_hi),
             "witness": g.to_string(variables)}
            for a, a_hi, g in violations]}
    elif verb == "report":
        report = emit_report(f, hint, variables, text, args)
        for key in ("input", "variables", "mu", "tau"):
            lines.append("%s: %s" % (key,
                                     _format_value(report[key], variables)))
        for key in ("spectrum", "hi_spectrum", "tj_spectrum"):
            lines.extend(_spectrum_lines(key, report[key]))
        lines.append("gamma_f: %s" % report["gamma_f"])
        lines.append("epsilon_f: %s" % report["epsilon_f"])
        for name, check in report["checks"].items():
            lines.extend(_report_lines(name, check, variables))
        payload = _jsonable(report, variables)
    else:
        raise UsageError("missing verb")
    if args.json:
        output = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    else:
        output = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb is None:
        parser.print_usage(sys.stderr)
        return 1
    start = time.time()
    if args.trunc is not None:
        prev_trunc = set_truncation_start(args.trunc)
    try:
        code = _dispatch(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print("resource cap: %s" % exc, file=sys.stderr)
        return 3
    except UnsupportedError as exc:
        print("unsupported: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if args.trunc is not None:
            set_truncation_start(prev_trunc)
    if args.timing:
        print("elapsed: %.3f s" % (time.time() - start), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
