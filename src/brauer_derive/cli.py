"""Command-line interface.

Subcommands cover the pipeline end to end: validate, quiver, algebra,
cartan, tilt-shrink, tilt-enlarge, reduce, verify, classify, and the builders
omega and an.  Output is plain text by default or JSON with --json; identical
inputs and flags give byte-identical output.  Exit codes: 0 success, 1
validation or parse error, 2 engine not stabilized, 3 certificate failure,
4 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .algebra import (
    CartanMismatch,
    CompositionMismatch,
    FactorMismatch,
    InhomogeneousRelation,
    NotStabilized,
    QuiverMismatch,
    a_n_presentation,
    omega_relations,
    presentations_equal_on_basis,
    quotient_basis,
    socle_quotient,
)
from .graph import (
    DomainError,
    MalformedInput,
    ValidationError,
    edge_count,
    loop_star,
    parse_graph,
    serialize_graph,
    _canonical_obj,
)
from .homological import ChainMapFailure, NotAComplex
from .linalg import FieldMismatch, NotIntegral, parse_field
from .quiver import UnknownCamp, build_quiver, quiver_to_dot
from .reduction import certify_trace, classify, load_trace, reduce_to_normal_form
from .rewriting import InclusionAmbiguity, NonBinomialRelation, NotAdmissible
from .tilting import (
    CertificateFailure,
    EmptyTree,
    NonUniqueHom,
    RelationFailure,
    check_tilting,
    enlarge_complex,
    enlarge_data,
    shrink_complex,
    verify_end_generators,
)

SCHEMA = "brauer-derive/1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_STABILIZED = 2
EXIT_CERTIFICATE = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None


def _algebra(p, args):
    """The algebra of presentation p under the --cap, --margin and --field flags."""
    return quotient_basis(p, cap=args.cap, margin=args.margin, field=parse_field(args.field))


def _build(g, args):
    return _algebra(omega_relations(build_quiver(g)), args)


def _star_presentation(kind, n):
    """omega_relations of loop_star(n) for kind "omega", a_n_presentation(n) for "an"."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if kind == "omega":
        return omega_relations(build_quiver(loop_star(n)))
    return a_n_presentation(n)


def _dumps(payload):
    """``json.dumps(payload, indent=2)``, byte for byte.

    ``indent`` makes ``json`` fall back to its pure-Python encoder; this
    writer produces the same text with less work: strings go through the C
    string encoder, and a list of ints is joined in one step.  Every
    payload has string keys; the string encoder raises ``TypeError`` on
    any other key.
    """
    out = []
    put = out.append

    def walk(value, indent):
        if isinstance(value, str):
            put(encode_basestring_ascii(value))
        elif isinstance(value, dict):
            if not value:
                put("{}")
                return
            inner = indent + "  "
            sep = "{\n" + inner
            for key, item in value.items():
                put(sep + encode_basestring_ascii(key) + ": ")
                walk(item, inner)
                sep = ",\n" + inner
            put("\n" + indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                put("[]")
                return
            inner = indent + "  "
            if all(type(v) is int for v in value):
                put("[\n" + inner + (",\n" + inner).join(map(int.__repr__, value)))
            else:
                sep = "[\n" + inner
                for item in value:
                    put(sep)
                    walk(item, inner)
                    sep = ",\n" + inner
            put("\n" + indent + "]")
        else:
            put(json.dumps(value))

    walk(payload, "")
    return "".join(out)


def _emit(args, payload_json, text_lines):
    """Print the JSON payload under --json, else the text; ``text_lines``
    returns the text's lines and is called only without --json."""
    if getattr(args, "json", False):
        print(_dumps({"schema": SCHEMA, **payload_json}))
    else:
        print("\n".join(text_lines()))


def _presentation_lines(p):
    return [f"  {rel}" for rel in p.relations]


def _cartan_lines(c):
    lines = [f"cartan (order {' '.join(c.order)}):"]
    lines += ["  " + row for row in str(c).splitlines()]
    lines.append(f"dim: {c.dim}")
    lines.append(f"det: {c.det()}")
    return lines


def cmd_validate(args):
    g = parse_graph(_read_text(args.file))
    _emit(
        args,
        {"valid": True, "edges": edge_count(g), "graph": _canonical_obj(g)},
        lambda: [f"valid one-loop Brauer graph with {edge_count(g)} edges"],
    )
    return EXIT_OK


def cmd_quiver(args):
    g = parse_graph(_read_text(args.file))
    q = build_quiver(g)
    if args.json:
        payload = {
            "vertices": list(q.vertices),
            "arrows": [
                {"name": a.name, "source": a.source, "target": a.target, "camp": a.camp}
                for a in q.arrows
            ],
            "dot": quiver_to_dot(q),
        }
        _emit(args, payload, lambda: [])
    else:
        print(quiver_to_dot(q), end="")
    return EXIT_OK


def cmd_algebra(args):
    g = parse_graph(_read_text(args.file))
    A = _build(g, args)
    p = A.presentation
    c = A.cartan()
    payload = {
        "relations": [str(r) for r in p.relations],
        "dim": A.dim,
        "cartan": c.to_json(),
        "basis": A.basis_table().splitlines(),
    }

    def text():
        lines = ["relations:"] + _presentation_lines(p)
        lines.append(f"dim: {A.dim}")
        lines += _cartan_lines(c)
        lines.append("basis:")
        lines += ["  " + ln for ln in A.basis_table().splitlines()]
        return lines

    _emit(args, payload, text)
    return EXIT_OK


def _cartan_target(args):
    given = [bool(args.file), args.omega is not None, args.an is not None]
    if sum(given) != 1:
        raise UsageError("cartan needs exactly one of FILE, --omega N, --an N")
    if args.file:
        return _build(parse_graph(_read_text(args.file)), args)
    if args.omega is not None:
        return _algebra(_star_presentation("omega", args.omega), args)
    return _algebra(_star_presentation("an", args.an), args)


def cmd_cartan(args):
    A = _cartan_target(args)
    c = A.cartan()
    _emit(args, c.to_json(), lambda: _cartan_lines(c))
    return EXIT_OK


def cmd_tilt_shrink(args):
    g = parse_graph(_read_text(args.file))
    A = _build(g, args)
    Q = shrink_complex(A, g)
    cert = check_tilting(Q)
    verify_end_generators(Q)
    payload = {
        "ordering": list(Q.ordering),
        "certificate": cert.to_json(),
        "endGenerators": "ok",
    }

    def text():
        lines = [f"shrink tilting complex, ordering: {' '.join(Q.ordering)}"]
        for z in Q.ordering:
            lines.append(f"Q({z}):")
            lines += ["  " + ln for ln in Q.summands[z].dump().splitlines()]
        lines.append(f"hom vanishing: {cert.hom_vanishing}")
        lines += _cartan_lines(cert.end_cartan)
        lines.append(f"|det| source/end: {abs(cert.det_source)} {abs(cert.det_end)}")
        return lines

    _emit(args, payload, text)
    return EXIT_OK


def cmd_tilt_enlarge(args):
    g = parse_graph(_read_text(args.file))
    A = _build(g, args)
    d = enlarge_data(g, args.at)
    Q = enlarge_complex(A, g, d)
    cert = check_tilting(Q)
    verify_end_generators(Q)
    payload = {
        "at": d.at,
        "successor": d.succ,
        "betaFan": list(d.beta_fan),
        "certificate": cert.to_json(),
        "endGenerators": "ok",
    }

    def text():
        lines = [f"enlarge tilting complex at {d.at} (successor {d.succ})"]
        lines.append(f"Q'({d.succ}):")
        lines += ["  " + ln for ln in Q.summands[d.succ].dump().splitlines()]
        lines.append(f"hom vanishing: {cert.hom_vanishing}")
        lines += _cartan_lines(cert.end_cartan)
        return lines

    _emit(args, payload, text)
    return EXIT_OK


def cmd_reduce(args):
    g = parse_graph(_read_text(args.file))
    trace = reduce_to_normal_form(
        g, certify=args.certify, cap=args.cap, margin=args.margin,
        field=parse_field(args.field),
    )

    def text():
        lines = [f"n: {trace.n}", f"steps: {len(trace.steps)}"]
        for i, s in enumerate(trace.steps):
            mark = " [certified]" if s.certificate else ""
            lines.append(f"  step {i}: move successor of {s.at} onto the cycle{mark}")
        lines.append(f"normal form: {serialize_graph(trace.normal_form)}")
        return lines

    _emit(args, trace.to_json(), text)
    return EXIT_OK


def cmd_verify(args):
    try:
        payload = json.loads(_read_text(args.file))
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise MalformedInput(f"not a {SCHEMA} document")
    trace = load_trace(payload)
    certify_trace(trace, cap=args.cap, margin=args.margin, field=parse_field(args.field))
    _emit(
        args,
        {"verified": True, "n": trace.n, "steps": len(trace.steps)},
        lambda: ["verified", f"n: {trace.n}", f"steps: {len(trace.steps)}"],
    )
    return EXIT_OK


def cmd_classify(args):
    g = parse_graph(_read_text(args.file))
    n = classify(g)
    _emit(args, {"n": n}, lambda: [str(n)])
    return EXIT_OK


def _builder_report(args, kind):
    n = args.n
    p = _star_presentation(kind, n)
    A = _algebra(p, args)
    c = A.cartan()
    payload = {
        "kind": kind,
        "n": n,
        "relations": [str(r) for r in p.relations],
        "dim": A.dim,
        "cartan": c.to_json(),
    }
    if args.compare_socle:
        other = _algebra(_star_presentation("an" if kind == "omega" else "omega", n), args)
        equal = presentations_equal_on_basis(socle_quotient(A), socle_quotient(other))
        payload["socleQuotientsEqual"] = equal

    def text():
        lines = [f"{kind}({n})", "relations:"] + _presentation_lines(p)
        lines.append(f"dim: {A.dim}")
        lines += _cartan_lines(c)
        if args.compare_socle:
            lines.append(f"socle quotients equal: {str(equal).lower()}")
        return lines

    _emit(args, payload, text)
    return EXIT_OK


def cmd_omega(args):
    return _builder_report(args, "omega")


def cmd_an(args):
    return _builder_report(args, "an")


def _cap(text):
    """argparse type of --cap: an int of at least 1, as no smaller length
    bound can certify a basis."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(f"argument --cap: expected an int of at least 1, got {text!r}")
    return cap


_FILE = (("file",), {})
_ALGEBRA = (
    (("--cap",), {"type": _cap, "default": None, "help": "path length bound (>= 1)"}),
    (("--margin",), {"type": int, "default": None, "help": "length slack"}),
    (("--field",), {"default": None, "help": "rationals (default) or a prime"}),
)
_BUILDER = (
    (("n",), {"type": int}),
    (("--compare-socle",), {"action": "store_true"}),
    *_ALGEBRA,
)

# name -> (handler, help, arguments after --json as (flags, keywords) pairs)
COMMANDS = {
    "validate": (cmd_validate, "check a graph file", (_FILE,)),
    "quiver": (cmd_quiver, "DOT export of the Brauer quiver", (_FILE,)),
    "algebra": (cmd_algebra, "relations, dimension, basis", (_FILE, *_ALGEBRA)),
    "cartan": (cmd_cartan, "Cartan matrix of a graph algebra", (
        (("file",), {"nargs": "?", "default": None}),
        (("--omega",), {"type": int, "default": None, "metavar": "N"}),
        (("--an",), {"type": int, "default": None, "metavar": "N"}),
        *_ALGEBRA,
    )),
    "tilt-shrink": (
        cmd_tilt_shrink, "shrinking tilting complex + certificate", (_FILE, *_ALGEBRA),
    ),
    "tilt-enlarge": (cmd_tilt_enlarge, "enlarging tilting complex + certificate", (
        _FILE,
        (("--at",), {"required": True, "help": "cycle edge with a non-empty tree"}),
        *_ALGEBRA,
    )),
    "reduce": (cmd_reduce, "reduce to the loop-star normal form", (
        _FILE,
        (("--certify",), {"action": "store_true", "help": "attach per-step certificates"}),
        *_ALGEBRA,
    )),
    "verify": (
        cmd_verify, "re-check a stored reduce --certify --json trace", (_FILE, *_ALGEBRA),
    ),
    "classify": (cmd_classify, "derived-equivalence class index n", (_FILE,)),
    "omega": (cmd_omega, "the normal-form algebra on n edges", _BUILDER),
    "an": (cmd_an, "the socle-deformed comparison algebra", _BUILDER),
}


def build_parser(argv=None):
    """The argument parser.  When ``argv`` starts with a command name only
    that command's subparser is added, which parses ``argv`` the same way;
    otherwise (no argv, --help, --version, an unknown command) every one is."""
    parser = _Parser(prog="brauer-derive", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", metavar="command")
    names = [argv[0]] if argv and argv[0] in COMMANDS else COMMANDS
    for name in names:
        fn, help_text, arguments = COMMANDS[name]
        s = subs.add_parser(name, help=help_text)
        s.set_defaults(fn=fn)
        s.add_argument("--json", action="store_true", help="JSON output")
        for flags, keywords in arguments:
            s.add_argument(*flags, **keywords)
    return parser


def run(argv) -> int:
    try:
        args = build_parser(argv).parse_args(argv)
        if not getattr(args, "fn", None):
            raise UsageError("missing command")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedInput, ValidationError, DomainError, EmptyTree, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotStabilized as exc:
        print(f"NotStabilized: {exc}", file=sys.stderr)
        return EXIT_NOT_STABILIZED
    except (
        CertificateFailure,
        RelationFailure,
        NonUniqueHom,
        NotAComplex,
        ChainMapFailure,
        CompositionMismatch,
        QuiverMismatch,
        CartanMismatch,
        FieldMismatch,
        NotIntegral,
        NotAdmissible,
        InclusionAmbiguity,
        NonBinomialRelation,
        FactorMismatch,
        InhomogeneousRelation,
        UnknownCamp,
    ) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
