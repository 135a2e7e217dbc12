"""Command-line surface.

Subcommands are thin drivers over the library: classify, decompose,
witness, hadamard, spectrum, clique, sample.  Instances arrive as JSON
files; reports leave as JSON with sorted keys, two-space indent, and a
trailing newline, with big integers as decimal strings so nothing is
clipped to a native number range.  classify --verify-certificate checks a
report by rebuilding it for the instance and comparing the two.

Exit codes: 0 success, 1 malformed input, 2 violated precondition
(including a report that differs from the rebuilt one, and an option
value outside its domain), 3 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from .classify import ProblemInstance, classify, leading_triple
from .errors import InternalError, ParseError, PreconditionError
from .evidence import chaos_game, completeness_defect, max_orthogonal_clique
from .fourier import _vanishing_factors, construct_witness
from .hadamard import candidate_spectrum
from .linalg import IntMatrix, IntVector, RatVector


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


_INT_SYNTAX = re.compile(r"[+-]?[0-9]+")


def _to_int(x):
    # decimal strings are accepted so arbitrary-precision entries survive
    # editors and JSON implementations that clip large numbers: ASCII digits
    # with an optional sign, not int()'s underscores, surrounding whitespace
    # or non-ASCII digits
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _INT_SYNTAX.fullmatch(x):
        try:
            return int(x, 10)
        except ValueError:  # well formed, so past the digit limit
            raise ParseError(f"expected an integer, got a string of more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
    shown = repr(x)  # a prefix of a long entry, and its length
    shown = shown if len(shown) <= 40 else f"{shown[:40]}... ({len(shown)} characters)"
    raise ParseError(f"expected an integer, got {shown}")


def _read_json(path: str, what: str):
    """One JSON file; unreadable or unparsable, including nesting past the
    recursion limit and integers past the digit limit, is exit 1."""
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {what} {path}: {e}") from None
    except (ValueError, RecursionError) as e:
        raise ParseError(f"invalid JSON in {what} {path}: {e}") from None


def load_instance(path: str) -> ProblemInstance:
    """Read {"matrix": ..., "v": ..., "q": ...} and validate it.

    Shape problems raise ParseError (exit 1); domain problems such as a
    non-expanding matrix raise the library's preconditions (exit 2).
    """
    data = _read_json(path, "instance file")
    if not isinstance(data, dict):
        raise ParseError("instance file must be a JSON object")
    for key in ("matrix", "v", "q"):
        if key not in data:
            raise ParseError(f"instance file is missing {key!r}")
    rows = data["matrix"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix must be a non-empty list of rows")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParseError("matrix must be square")
    if not isinstance(data["v"], list) or len(data["v"]) != n:
        raise ParseError("v must be a list matching the matrix dimension")
    m = IntMatrix([[_to_int(x) for x in r] for r in rows])
    v = IntVector([_to_int(x) for x in data["v"]])
    return ProblemInstance(m, v, _to_int(data["q"]))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _decimal(x) -> str:
    """An int or Fraction leaf of a result as its decimal string; a whole
    Fraction prints as the int it equals."""
    try:
        return str(x)
    except ValueError:
        # an integer past the interpreter's digit limit has no str()
        raise PreconditionError(f"a result has an integer of more than "
                                f"{sys.get_int_max_str_digits()} decimal digits") from None


def _write_file(path: str, what: str, chunks):
    """Write text chunks to a file; one that cannot be written is exit 1."""
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise ParseError(f"cannot write {what} {path}: {e}") from None


def _emit(args, obj, human_lines):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if getattr(args, "report", None):
        _write_file(args.report, "report", [text])
    if args.json:
        sys.stdout.write(text)
    else:
        sys.stdout.write("\n".join(human_lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# results as JSON
# ---------------------------------------------------------------------------


def _triple_json(triple):
    return {
        "matrix": [list(map(_decimal, row)) for row in triple.m.rows],
        "digits": [list(map(_decimal, d)) for d in triple.digits],
        "duals": [list(map(_decimal, s)) for s in triple.duals],
    }


def _witness_json(w):
    return {
        "alpha": list(map(_decimal, w.alpha)),
        "ell": w.ell,
        "phase": _decimal(w.phase),
        "image": list(map(_decimal, w.image)),
    }


def _clique_json(rep):
    return {
        "lattice_denominator": rep.lattice_denominator,
        "box_radius": rep.box_radius,
        "max_clique_size": rep.max_clique_size,
        "witness_set": [list(map(_decimal, p)) for p in rep.witness_set],
        "certified": rep.certified,
    }


def _certificate_json(cert):
    if cert.kind == "hadamard":
        block = cert.triple.block
        if block is not None:
            block = {"b": [list(map(_decimal, row)) for row in block.b.rows], "r": block.r}
        return {
            "type": "hadamard",
            **_triple_json(cert.triple),
            "block": block,
            "reverified": bool(cert.triple.verified),
        }
    if cert.kind == "witness":
        w = cert.witness
        return {"type": "witness", **_witness_json(w), "reverified": bool(w.verified)}
    return {"type": "condition-only", "note": cert.note, "reverified": None}


def _report_json(classification):
    """The part of a classify report that the instance determines: what
    classify writes and what --verify-certificate rebuilds."""
    cond = classification.conditions
    return {
        "verdict": classification.verdict.value,
        "conditions": {
            "r": cond.r,
            "det_m1": _decimal(cond.det_m1),
            "gcd": _decimal(cond.gcd_q_detm1),
            "q_divides": cond.q_divides_detm1,
            "pure_power_c": None if cond.pure_power_c is None else _decimal(cond.pure_power_c),
        },
        "certificate": _certificate_json(classification.certificate),
        "theorems_applied": classification.reasons,
    }


def _verify_report(inst: ProblemInstance, report) -> str:
    """Check a report by rebuilding it: it is valid for inst exactly when
    its fields equal _report_json(classify(inst)), which carries a
    certificate classify has verified exactly.  Keys that it lacks
    (evidence, timings_ms) are ignored.  A missing field or another JSON
    type exits 1, another list length or value exits 2, each naming the
    first such field in sorted key order."""
    if not isinstance(report, dict):
        raise ParseError("report must be a JSON object")
    want = _report_json(classify(inst))
    _match(want, report, "")
    kind = want["certificate"]["type"]
    if kind == "condition-only":
        return "no constructive certificate to verify"
    return f"{kind} certificate re-verified"


def _match(want, got, path):
    if type(got) is not type(want):
        raise ParseError(f"report field {path} is missing or not of its JSON type")
    if isinstance(want, dict):
        for key in sorted(want):
            # Ellipsis is no JSON value, so a missing key fails the type test
            _match(want[key], got.get(key, ...), f"{path}.{key}" if path else key)
    elif isinstance(want, list):
        if len(got) != len(want):
            raise PreconditionError(f"report field {path} has length {len(got)}, not {len(want)}")
        for i, (w, g) in enumerate(zip(want, got)):
            _match(w, g, f"{path}[{i}]")
    elif got != want:
        raise PreconditionError(f"report field {path} does not match the instance")


# ---------------------------------------------------------------------------
# evidence runs attached to classify
# ---------------------------------------------------------------------------

_PROBE_DENOMS = (20, 28, 36, 44)  # per-axis denominators for default probes


def _default_probes(n: int):
    dens = [_PROBE_DENOMS[i % len(_PROBE_DENOMS)] for i in range(n)]
    return [RatVector([Fraction(t, d) for d in dens]) for t in range(10)]


def _evidence_json(args, inst, classification):
    if args.evidence == "none":
        return None
    if args.evidence == "clique":
        rep = max_orthogonal_clique(inst, args.lattice_den, args.box, args.jmax)
        return {"kind": "clique", **_clique_json(rep)}
    # completeness needs a candidate spectrum, hence a hadamard verdict
    cert = classification.certificate
    if cert is None or cert.kind != "hadamard":
        raise PreconditionError("completeness evidence requires a spectral verdict")
    spectrum = candidate_spectrum(cert.triple, args.depth)
    rep = completeness_defect(inst, spectrum, _default_probes(inst.m.n), args.tail_eps)
    return {
        "kind": "completeness",
        "depth": rep.depth,
        "tail_eps": rep.tail_eps,
        "probes": [list(map(_decimal, p)) for p in rep.probes],
        "defects": rep.defects,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    inst = load_instance(args.input)
    if args.verify_certificate:
        report = _read_json(args.verify_certificate, "report")
        sys.stdout.write(_verify_report(inst, report) + "\n")
        return 0
    start = time.perf_counter()
    classification = classify(inst)
    elapsed = (time.perf_counter() - start) * 1000.0
    cond = classification.conditions
    report = {
        **_report_json(classification),
        "evidence": _evidence_json(args, inst, classification),
        "timings_ms": {"classify": round(elapsed, 3)},
    }
    human = [
        f"verdict: {report['verdict']}",
        f"r: {cond.r}",
        f"det_m1: {cond.det_m1}",
        f"gcd(q, |det_m1|): {cond.gcd_q_detm1}",
        f"q divides |det_m1|: {str(cond.q_divides_detm1).lower()}",
        f"pure power constant: {cond.pure_power_c}",
        f"theorems applied: {', '.join(classification.reasons) or '(none)'}",
        f"certificate: {_describe_cert(report['certificate'])}",
    ]
    if report["evidence"] is not None:
        human.append(f"evidence: {report['evidence']['kind']} attached")
    return _emit(args, report, human)


def _describe_cert(cert_json) -> str:
    if cert_json["type"] == "condition-only":
        return f"condition-only ({cert_json['note']})"
    return f"{cert_json['type']} (verified: {str(cert_json['reverified']).lower()})"


def cmd_decompose(args) -> int:
    inst = load_instance(args.input)
    r, decomp = inst.leading.r, inst.leading.decomp
    if decomp is None:
        conj = inst.leading.companion()
        obj = {
            "branch": "companion",
            "r": r,
            **{k: [list(map(_decimal, row)) for row in getattr(conj, k).rows]
               for k in ("b", "m_tilde")},
            "v_tilde": list(map(_decimal, conj.v_tilde)),
        }
        human = [
            "companion branch (Krylov vectors span the whole space)",
            f"r: {r}",
            f"b: {conj.b.rows}",
            f"companion form: {conj.m_tilde.rows}",
        ]
        return _emit(args, obj, human)
    obj = {
        "branch": "block",
        "r": r,
        **{k: [list(map(_decimal, row)) for row in getattr(decomp, k).rows]
           for k in ("b", "m1", "c", "m2")},
        "x": list(map(_decimal, decomp.x)),
    }
    human = [
        "block branch (proper invariant subspace)",
        f"r: {r}",
        f"b: {decomp.b.rows}",
        f"m1: {decomp.m1.rows}",
        f"c: {decomp.c.rows}",
        f"m2: {decomp.m2.rows}",
        f"x: {tuple(decomp.x)}",
    ]
    return _emit(args, obj, human)


def cmd_witness(args) -> int:
    inst = load_instance(args.input)
    w = construct_witness(inst)
    ok = w.verified
    obj = {**_witness_json(w), "verified": ok}
    human = [
        f"alpha: ({', '.join(map(_decimal, w.alpha))})",
        f"ell: {w.ell}",
        f"phase: {w.phase}",
        f"image: ({', '.join(map(_decimal, w.image))})",
        f"verified: {str(ok).lower()}",
    ]
    return _emit(args, obj, human)


def cmd_hadamard(args) -> int:
    inst = load_instance(args.input)
    triple = leading_triple(inst)
    ok = triple.verified
    obj = {"reduced_to_rank": inst.leading.r, **_triple_json(triple), "verified": ok}
    human = [
        f"companion matrix: {triple.m.rows}",
        f"digits: {[tuple(d) for d in triple.digits]}",
        f"duals: {[tuple(s) for s in triple.duals]}",
        f"verified: {str(ok).lower()}",
    ]
    return _emit(args, obj, human)


def cmd_spectrum(args) -> int:
    inst = load_instance(args.input)
    spectrum = candidate_spectrum(leading_triple(inst), args.depth)
    nonzero = [idx for idx, a in enumerate(spectrum.numerators) if any(a)]
    # one lockstep pass certifies every 0 - lambda = -a / den; j and the
    # reduced phase read only its rational value, not the denominator
    hits = _vanishing_factors(inst, [tuple(-x for x in spectrum.numerators[idx]) for idx in nonzero],
                              spectrum.denominator, args.jmax)
    certificates = [
        {
            "frequency_index": idx,
            "j": None if hit is None else hit[0],
            "phase": None if hit is None else _decimal(Fraction(*hit[1:])),
        }
        for idx, hit in zip(nonzero, hits)
    ]
    den = spectrum.denominator
    frequencies = [[_decimal(Fraction(x, den)) for x in a] for a in spectrum.numerators]
    obj = {
        "depth": spectrum.depth,
        "count": len(frequencies),
        "frequencies": frequencies,
        "certificates_against_zero": certificates,
    }
    human = [f"depth: {spectrum.depth}", f"count: {len(frequencies)}"]
    for idx, f in enumerate(frequencies):
        human.append(f"  lambda[{idx}] = ({', '.join(f)})")
    certified = sum(1 for c in certificates if c["j"] is not None)
    human.append(f"certified against 0: {certified}/{len(certificates)}")
    return _emit(args, obj, human)


def cmd_clique(args) -> int:
    inst = load_instance(args.input)
    rep = max_orthogonal_clique(inst, args.lattice_den, args.box, args.jmax)
    obj = _clique_json(rep)
    human = [
        f"lattice denominator: {rep.lattice_denominator}",
        f"box radius: {rep.box_radius}",
        f"max clique size: {rep.max_clique_size}",
        f"witness set: {[tuple(str(x) for x in p) for p in rep.witness_set]}",
        f"all pairs certified: {str(rep.certified).lower()}",
    ]
    return _emit(args, obj, human)


def cmd_sample(args) -> int:
    inst = load_instance(args.input)
    sample = chaos_game(inst, args.iters, args.seed)
    header = ",".join(f"x{i + 1}" for i in range(inst.m.n)) + "\n"
    lines = itertools.chain([header], (",".join(f"{x:.12g}" for x in row) + "\n" for row in sample.points))
    if args.output:
        _write_file(args.output, "output", lines)
    else:
        sys.stdout.writelines(lines)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_JMAX_HELP = ("deepest factor searched for a certificate (default: 3n plus the bit length "
              "of the difference); an upper limit, as the search ends once a decay "
              "bound shows that no later factor can vanish")


def _add_common(p, report=False, evidence=False, depth=False, clique=False):
    p.add_argument("--input", required=True, help="instance JSON file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable output")
    fmt.add_argument("--human", action="store_true", help="aligned text output (default)")
    if report:
        p.add_argument("--report", help="also write the JSON report to this file")
    if evidence:
        p.add_argument(
            "--evidence",
            choices=("none", "clique", "completeness"),
            default="none",
            help="attach a brute-force evidence section",
        )
    if depth:
        p.add_argument("--depth", type=int, default=3, help="spectrum truncation depth")
        p.add_argument("--tail-eps", type=float, default=1e-9, dest="tail_eps")
    if clique:
        p.add_argument("--lattice-den", type=int, default=1, dest="lattice_den")
        p.add_argument("--box", type=int, default=10)
        p.add_argument("--jmax", type=int, default=None, help=_JMAX_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinespectra",
        description="Classify spectrality of self-affine measures with "
        "consecutive collinear digit sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the decision tree and emit a report")
    _add_common(p, report=True, evidence=True, depth=True, clique=True)
    p.add_argument(
        "--verify-certificate",
        metavar="REPORT",
        help="check a report file against the report rebuilt for the instance "
        "(verdict, conditions, certificate, theorems_applied) and exit",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="print the Krylov block decomposition")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("witness", help="construct an orthogonality witness")
    _add_common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("hadamard", help="construct and verify the dual digit set")
    _add_common(p)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("spectrum", help="candidate spectrum truncation")
    _add_common(p, depth=True)
    p.add_argument("--jmax", type=int, default=None, help=_JMAX_HELP)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("clique", help="maximum orthogonal clique on a lattice box")
    _add_common(p, clique=True)
    p.set_defaults(func=cmd_clique)

    p = sub.add_parser("sample", help="chaos-game point cloud as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--iters", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="CSV file (default: stdout)")
    p.set_defaults(func=cmd_sample, json=False, human=True)

    return parser


# the domain of each numeric option, checked wherever a subcommand has it
_OPTION_DOMAINS = {
    "lattice_den": (lambda x: x >= 1, "--lattice-den must be at least 1"),
    "box": (lambda x: x >= 0, "--box must be at least 0"),
    "jmax": (lambda x: x >= 1, "--jmax must be at least 1"),
    "depth": (lambda x: x >= 1, "--depth must be at least 1"),
    "tail_eps": (lambda x: 0 < x < math.inf, "--tail-eps must be finite and positive"),
    "iters": (lambda x: x >= 0, "--iters must be at least 0"),
}


def _check_options(args):
    """A well-formed option value outside its domain is a violated
    precondition (exit 2), reported before any work starts."""
    for name, (ok, message) in _OPTION_DOMAINS.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise PreconditionError(f"{message}, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError as e:
        # the reader of stdout has gone: point stdout at the null device,
        # so that the interpreter's final flush of what is left is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
