"""Command-line surface.

Subcommands are thin drivers over the library: classify, decompose,
witness, hadamard, spectrum, clique, sample.  Instances arrive as JSON
files; reports leave as JSON with sorted keys, two-space indent, and a
trailing newline, with big integers as decimal strings so nothing is
clipped to a native number range.

Exit codes: 0 success, 1 malformed input, 2 violated precondition
(including a certificate that fails re-verification, and an option value
outside its domain), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from .classify import ProblemInstance, classify, leading_triple
from .conjugation import map_spectrum
from .errors import InternalError, ParseError, PreconditionError
from .evidence import chaos_game, completeness_defect, max_orthogonal_clique
from .fourier import Witness, certify_orthogonal, construct_witness, verify_witness
from .hadamard import candidate_spectrum, verify_hadamard
from .linalg import IntMatrix, IntVector, RatVector


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def _to_int(x):
    # decimal strings are accepted so arbitrary-precision entries survive
    # editors and JSON implementations that clip large numbers
    if isinstance(x, bool):
        raise ParseError(f"expected an integer, got {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError:
            raise ParseError(f"expected an integer, got {x!r}") from None
    raise ParseError(f"expected an integer, got {x!r}")


def load_instance(path: str) -> ProblemInstance:
    """Read {"matrix": ..., "v": ..., "q": ...} and validate it.

    Shape problems raise ParseError (exit 1); domain problems such as a
    non-expanding matrix raise the library's preconditions (exit 2).
    """
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {path}: {e}") from None
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


def _ser_int(x) -> str:
    return str(int(x))


def _ser_frac(x) -> str:
    return str(Fraction(x))


def _ser_ivec(v):
    return [_ser_int(x) for x in v]


def _ser_rvec(v):
    return [_ser_frac(x) for x in v]


def _ser_imat(m):
    return [[_ser_int(x) for x in row] for row in m.rows]


def _parse_rvec(entries) -> RatVector:
    try:
        return RatVector([Fraction(e) for e in entries])
    except (ValueError, ZeroDivisionError, TypeError):
        raise ParseError(f"bad rational vector {entries!r}") from None


def _parse_ivecs(entries):
    return [_parse_rvec(e).to_int() for e in entries]


def _parse_imat(rows) -> IntMatrix:
    return IntMatrix([[_to_int(x) for x in row] for row in rows])


def _emit(args, obj, human_lines):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            fh.write(text)
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
        "matrix": _ser_imat(triple.m),
        "digits": [_ser_ivec(d) for d in triple.digits],
        "duals": [_ser_ivec(s) for s in triple.duals],
    }


def _witness_json(w):
    return {
        "alpha": _ser_rvec(w.alpha),
        "ell": w.ell,
        "phase": _ser_frac(w.phase),
        "image": _ser_rvec(w.image),
    }


def _clique_json(rep):
    return {
        "lattice_denominator": rep.lattice_denominator,
        "box_radius": rep.box_radius,
        "max_clique_size": rep.max_clique_size,
        "witness_set": [_ser_rvec(p) for p in rep.witness_set],
        "certified": rep.certified,
    }


def _certificate_json(cert):
    if cert is None:
        return None
    if cert.kind == "hadamard":
        block = None
        if cert.block is not None:
            block = {"b": _ser_imat(cert.block.b), "r": cert.block.r}
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


def _cert_field(cert, key, parse):
    """One certificate field through its parser; a missing or ill-typed
    field is a schema error (exit 1), never a traceback."""
    if key not in cert:
        raise ParseError(f"certificate is missing {key!r}")
    try:
        return parse(cert[key])
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParseError(f"certificate field {key!r} is malformed") from None


def _reverify_certificate(inst: ProblemInstance, cert) -> str:
    """Re-check a report's certificate from its own serialized data.

    Raises PreconditionError when the data does not verify, so a tampered
    report exits with code 2, and ParseError when it is malformed."""
    if cert is None:
        return "no certificate present"
    if not isinstance(cert, dict):
        raise ParseError("certificate must be a JSON object or null")
    kind = cert.get("type")
    if kind == "hadamard":
        m = _cert_field(cert, "matrix", _parse_imat)
        digits = _cert_field(cert, "digits", _parse_ivecs)
        duals = _cert_field(cert, "duals", _parse_ivecs)
        if len(digits) != inst.q or len(duals) != inst.q:
            raise PreconditionError("certificate digit count does not match q")
        if m.nrows != m.ncols or any(len(x) != m.nrows for x in digits + duals):
            raise ParseError("certificate matrix and vectors disagree in dimension")
        if not verify_hadamard(m, digits, duals):
            raise PreconditionError("hadamard certificate failed exact unitarity")
        return "hadamard certificate re-verified"
    if kind == "witness":
        w = Witness(
            alpha=_cert_field(cert, "alpha", _parse_rvec),
            ell=_cert_field(cert, "ell", _to_int),
            phase=_cert_field(cert, "phase", Fraction),
            image=_cert_field(cert, "image", _parse_rvec),
        )
        if not verify_witness(inst, w):
            raise PreconditionError("witness certificate failed exact verification")
        return "witness certificate re-verified"
    if kind == "condition-only":
        return "no constructive certificate to verify"
    raise ParseError(f"unknown certificate type {kind!r}")


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
    spectrum = _spectrum_in_original_coords(inst, cert.triple, args.depth)
    rep = completeness_defect(inst, spectrum, _default_probes(inst.m.n), args.tail_eps)
    return {
        "kind": "completeness",
        "depth": rep.depth,
        "tail_eps": rep.tail_eps,
        "probes": [_ser_rvec(p) for p in rep.probes],
        "defects": rep.defects,
    }


def _spectrum_in_original_coords(inst: ProblemInstance, triple, depth: int):
    """Candidate spectrum of the verified leading-block triple, expressed
    in the instance's own coordinates.

    Full Krylov rank: the companion frame's mapping is built into
    candidate_spectrum.  Reduced rank: frequencies of the leading block
    are padded with zeros and pushed through the block change of basis,
    which preserves every pairwise orthogonality certificate exactly.
    """
    n = inst.m.n
    r, decomp = inst.leading.r, inst.leading.decomp
    small = candidate_spectrum(triple, depth)
    if decomp is None:
        return small
    padded = [RatVector(list(f) + [Fraction(0)] * (n - r)) for f in small.frequencies]
    small.frequencies = map_spectrum(decomp.b, padded, "forward")
    return small


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    inst = load_instance(args.input)
    if args.verify_certificate:
        try:
            with open(args.verify_certificate, "rb") as fh:
                report = json.load(fh)
        except OSError as e:
            raise ParseError(f"cannot read report: {e}") from None
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid report JSON: {e}") from None
        if not isinstance(report, dict):
            raise ParseError("report must be a JSON object")
        status = _reverify_certificate(inst, report.get("certificate"))
        sys.stdout.write(status + "\n")
        return 0
    start = time.perf_counter()
    classification = classify(inst)
    elapsed = (time.perf_counter() - start) * 1000.0
    cond = classification.conditions
    report = {
        "verdict": classification.verdict.value,
        "conditions": {
            "r": cond.r,
            "det_m1": _ser_int(cond.det_m1),
            "gcd": _ser_int(cond.gcd_q_detm1),
            "q_divides": cond.q_divides_detm1,
            "pure_power_c": None if cond.pure_power_c is None else _ser_int(cond.pure_power_c),
        },
        "certificate": _certificate_json(classification.certificate),
        "theorems_applied": classification.reasons,
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
    if cert_json is None:
        return "(none)"
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
            "b": _ser_imat(conj.b),
            "m_tilde": _ser_imat(conj.m_tilde),
            "v_tilde": _ser_ivec(conj.v_tilde),
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
        "b": _ser_imat(decomp.b),
        "m1": _ser_imat(decomp.m1),
        "c": _ser_imat(decomp.c),
        "m2": _ser_imat(decomp.m2),
        "x": _ser_ivec(decomp.x),
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
        f"alpha: ({', '.join(_ser_rvec(w.alpha))})",
        f"ell: {w.ell}",
        f"phase: {w.phase}",
        f"image: ({', '.join(_ser_rvec(w.image))})",
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
    spectrum = _spectrum_in_original_coords(inst, leading_triple(inst), args.depth)
    zero = RatVector([0] * inst.m.n)
    certificates = []
    for idx, lam in enumerate(spectrum.frequencies):
        if lam.is_zero():
            continue
        cert = certify_orthogonal(inst, zero, lam, args.jmax)
        certificates.append(
            {
                "frequency_index": idx,
                "j": None if cert is None else cert.j,
                "phase": None if cert is None else _ser_frac(cert.phase),
            }
        )
    obj = {
        "depth": spectrum.depth,
        "count": len(spectrum.frequencies),
        "frequencies": [_ser_rvec(f) for f in spectrum.frequencies],
        "certificates_against_zero": certificates,
    }
    human = [f"depth: {spectrum.depth}", f"count: {len(spectrum.frequencies)}"]
    for idx, f in enumerate(spectrum.frequencies):
        human.append(f"  lambda[{idx}] = ({', '.join(_ser_rvec(f))})")
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
    n = inst.m.n
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        out.write(",".join(f"x{i + 1}" for i in range(n)) + "\n")
        for row in sample.points:
            out.write(",".join(f"{x:.12g}" for x in row) + "\n")
    finally:
        if args.output:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


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
        p.add_argument("--jmax", type=int, default=None)


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
        help="re-verify the certificate in an existing report file and exit",
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
    p.add_argument("--jmax", type=int, default=None)
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
        return args.func(args)
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
