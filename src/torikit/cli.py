"""Command-line interface: torikit <subcommand> <fanfile> [options].

``main`` is the one path of every subcommand: it reads and parses the
file, prints the parser's warnings on stderr, requires a valid fan
(``validate`` reports the verdict instead), runs the subcommand and prints
its result.  A subcommand maps the fan and the parsed arguments to
``(payload, lines, exit_code)``: the JSON payload, the text lines, and the
exit code.

Exit codes: 0 success, 1 validation or mathematical-precondition failure,
2 input/parse error.  Output is deterministic; --format json emits the
schema documented in the README, as exactly the text of
``json.dumps(payload, sort_keys=True, indent=2)``: ASCII with ``\\u``
escapes, a 2-space indent and one scalar per line.  ``_dumps`` writes that
text without the standard library's pure-Python encoder, which ``indent``
selects.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import rings, stratification
from .picard import picard as compute_picard
from .errors import ParseError, ToricError
from .fan import (
    Fan,
    is_complete,
    is_smooth_fan,
    orbit_table,
    parse_fan,
    require_valid,
)

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_INPUT = 2

# Every subcommand that reads --max-degree emits one entry per degree, so
# the degree is bounded like any other input size.
MAX_DEGREE = 100_000

Result = tuple[dict, list[str], int]


def cmd_validate(fan: Fan, args: argparse.Namespace) -> Result:
    report = fan.validation
    smooth = is_smooth_fan(fan) if report.valid else None
    complete = is_complete(fan) if report.valid else None
    payload = {
        "command": "validate",
        "valid": report.valid,
        "violations": [
            {"kind": k, "message": m} for k, m in report.violations
        ],
        "smooth": smooth,
        "complete": complete,
    }
    if report.valid:
        flags = ["valid"]
        flags.append("smooth" if smooth else "not smooth")
        flags.append("complete" if complete else "not complete")
        lines = [", ".join(flags)]
    else:
        lines = ["invalid:"] + [f"  [{k}] {m}" for k, m in report.violations]
    return payload, lines, EXIT_OK if report.valid else EXIT_PRECONDITION


def cmd_orbits(fan: Fan, args: argparse.Namespace) -> Result:
    table = orbit_table(fan)
    entries = []
    lines = [f"{len(table)} orbits"]
    for e in table:
        entries.append(
            {
                "cone": list(e.rayset),
                "codim": e.codim,
                "stabilizer": {"rank": e.codim, "torsion": []},
                "divisors": list(e.divisors),
            }
        )
        lines.append(
            f"  orbit of cone {list(e.rayset)}: codim {e.codim}, "
            f"stabilizer character rank {e.codim}, "
            f"in divisors {list(e.divisors)}"
        )
    return {"command": "orbits", "orbits": entries}, lines, EXIT_OK


def cmd_betti(fan: Fan, args: argparse.Namespace) -> Result:
    if args.ordinary:
        poly = stratification.ordinary_poincare_polynomial(fan)
        coeffs = poly + [0] * (2 * fan.n + 1 - len(poly))
        payload = {"command": "betti", "kind": "ordinary", "coefficients": coeffs}
    else:
        series = stratification.equivariant_poincare_series(fan)
        coeffs = series.coefficients(args.max_degree)
        payload = {
            "command": "betti",
            "kind": "equivariant",
            "numerator": list(series.numerator),
            "denominator_exponent": series.denominator_exponent,
            "coefficients": coeffs,
        }
    return payload, [", ".join(str(c) for c in coeffs)], EXIT_OK


def cmd_ring(fan: Fan, args: argparse.Namespace) -> Result:
    pres = rings.sr_presentation(fan)
    pieces = rings.ordinary_cohomology(fan, args.max_degree)
    payload = {
        "command": "ring",
        "generators": pres.num_generators,
        "relations": [list(r) for r in pres.relations],
        "cohomology": [
            {
                "degree": p.degree,
                "rank": p.rank,
                "torsion": list(p.torsion),
                "basis": [list(b) for b in p.basis],
            }
            for p in pieces
        ],
    }
    lines = [
        f"Z[x_0..x_{pres.num_generators - 1}] modulo "
        + (
            ", ".join(
                "*".join(f"x_{v}" for v in r) for r in pres.relations
            )
            or "(no relations)"
        )
    ]
    for p in pieces:
        tors = f", torsion {list(p.torsion)}" if p.torsion else ""
        lines.append(f"  H^{p.degree}: rank {p.rank}{tors}")
    return payload, lines, EXIT_OK


def cmd_picard(fan: Fan, args: argparse.Namespace) -> Result:
    rep = compute_picard(fan)
    payload = {
        "command": "picard",
        "equivariant": {
            "rank": rep.equivariant_rank,
            "torsion": list(rep.equivariant_torsion),
            "basis": [
                [list(chi) for chi in fam.chars]
                for fam in rep.equivariant_basis
            ],
        },
        "ordinary": {
            "rank": rep.ordinary_rank,
            "torsion": list(rep.ordinary_torsion or ()),
        },
        "maximal_cones": [list(c) for c in fan.maximal_cones],
    }
    tors = (
        "none"
        if not rep.ordinary_torsion
        else str(list(rep.ordinary_torsion))
    )
    lines = [
        f"Pic rank {rep.ordinary_rank}, torsion {tors}; "
        f"Pic_T rank {rep.equivariant_rank}"
    ]
    return payload, lines, EXIT_OK


def cmd_hilbert(fan: Fan, args: argparse.Namespace) -> Result:
    cones = fan.cones
    if args.cone is not None:
        if args.cone < 0 or args.cone >= len(cones):
            raise ToricError(
                f"--cone {args.cone} out of range (fan has {len(cones)} cones)"
            )
        cones = (cones[args.cone],)
    entries = []
    lines = []
    for c in cones:
        try:
            basis = fan.cone(c).hilbert_basis()
        except ToricError as exc:
            raise ToricError(f"Hilbert basis of cone {c}: {exc}") from exc
        rows = [list(h) for h in basis]
        entries.append({"cone": list(c), "hilbert_basis": rows})
        lines.append(f"cone {list(c)}: {rows}")
    return {"command": "hilbert", "cones": entries}, lines, EXIT_OK


def cmd_certify(fan: Fan, args: argparse.Namespace) -> Result:
    strat = stratification.stratify(fan)
    perfection = stratification.certify_perfection(strat)
    injectivity = rings.check_restriction_injectivity(fan, args.max_degree)
    injective = all(e.injective for e in injectivity)
    payload = {
        "command": "certify",
        "perfection": {
            "certified": perfection.certified,
            "failures": [
                {"cone": list(c), "weight": list(w)}
                for c, w in perfection.failures
            ],
        },
        "injectivity": {
            "all_injective": injective,
            "degrees": [
                {
                    "degree": e.degree,
                    "domain_rank": e.domain_rank,
                    "image_rank": e.image_rank,
                }
                for e in injectivity
            ],
        },
    }
    lines = [
        "perfection: " + ("certified" if perfection.certified else "FAILED"),
        "restriction injectivity: "
        + ("holds" if injective else "FAILED")
        + f" in all degrees <= {args.max_degree}",
    ]
    ok = perfection.certified and injective
    return payload, lines, EXIT_OK if ok else EXIT_PRECONDITION


def _dumps(x, nl: str = "\n") -> str:
    """``json.dumps(x, sort_keys=True, indent=2)`` for the values payloads
    hold: dicts with str keys, lists, str, int, bool and None; any other
    type raises ``TypeError``.  ``nl`` is the newline and indent of the
    line ``x`` starts on.  A flat list of ints, and a list of int lists of
    one length (characters, Hilbert basis vectors, cones), are each
    rendered by one C-level join or ``%`` format."""
    t = type(x)
    if t is list:
        if not x:
            return "[]"
        nl1 = nl + "  "
        kinds = set(map(type, x))
        if kinds == {int}:
            return "[" + nl1 + ("," + nl1).join(map(int.__repr__, x)) + nl + "]"
        if kinds == {list} and len(set(map(len, x))) == 1 and x[0]:
            flat = tuple(chain.from_iterable(x))
            if set(map(type, flat)) == {int}:
                nl2 = nl1 + "  "
                row = "[" + nl2 + ("," + nl2).join(["%d"] * len(x[0])) + nl1 + "]"
                return ("[" + nl1 + ("," + nl1).join([row] * len(x)) + nl + "]") % flat
        return "[" + nl1 + ("," + nl1).join([_dumps(v, nl1) for v in x]) + nl + "]"
    if t is dict:
        if not x:
            return "{}"
        if set(map(type, x)) != {str}:
            raise TypeError("JSON object keys must be str")
        nl1 = nl + "  "
        return "{" + nl1 + ("," + nl1).join(
            [encode_basestring_ascii(k) + ": " + _dumps(x[k], nl1) for k in sorted(x)]
        ) + nl + "}"
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    raise TypeError(f"Object of type {t.__name__} is not emitted as JSON")


COMMANDS = {
    "validate": cmd_validate,
    "orbits": cmd_orbits,
    "betti": cmd_betti,
    "ring": cmd_ring,
    "picard": cmd_picard,
    "hilbert": cmd_hilbert,
    "certify": cmd_certify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls of
    ``main`` (each ``parse_args`` starts from a fresh namespace)."""
    parser = argparse.ArgumentParser(
        prog="torikit",
        description="Invariants of toric varieties from rational polyhedral fans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("fanfile")
        p.add_argument("--max-degree", type=int, default=20)
        p.add_argument(
            "--format", choices=["text", "json"], default="text"
        )
        p.add_argument("-v", "--verbose", action="store_true")
        if name == "betti":
            group = p.add_mutually_exclusive_group()
            group.add_argument("--ordinary", action="store_true")
            group.add_argument(
                "--equivariant",
                action="store_true",
                help="equivariant series coefficients (the default)",
            )
        if name == "hilbert":
            p.add_argument("--cone", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_degree < 0 or args.max_degree % 2 != 0:
        print("error: --max-degree must be even and >= 0", file=sys.stderr)
        return EXIT_INPUT
    if args.max_degree > MAX_DEGREE:
        print(f"error: --max-degree must be at most {MAX_DEGREE}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with open(args.fanfile, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{args.fanfile}: not UTF-8 text ({exc.reason})") from exc
        fan = parse_fan(text)
        for w in fan.warnings:
            print(f"warning: {w}", file=sys.stderr)
        if args.command != "validate":
            require_valid(fan)
        payload, lines, code = COMMANDS[args.command](fan, args)
        if args.format == "json":
            print(_dumps(payload))
        else:
            for line in lines:
                print(line)
        return code
    except ValueError as exc:
        # int -> str refuses more than sys.get_int_max_str_digits() digits
        if "integer string conversion" not in str(exc):
            raise
        print(
            "error: an output integer has more digits than Python converts to text; "
            f"Python's limit is {sys.get_int_max_str_digits()}",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
