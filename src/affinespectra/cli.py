"""Command-line surface.

The parser declares each option once, with its domain, and refuses a
malformed command line or a value outside a domain with one error line.
main is the one driver: it parses the command line, loads the instance
file and maps exceptions to exit codes.  The subcommands (classify,
decompose, witness, hadamard, spectrum, clique, sample) only build their
output over the library and write it.  Instances arrive as JSON files;
reports leave as JSON with sorted keys, two-space indent, and a trailing
newline, with big integers as decimal strings so nothing is clipped to a
native number range.  That text is made only for --json or --report: human
mode makes none.  classify --verify-certificate checks a report by
rebuilding it for the instance and comparing the two.

Exit codes: 0 success, 1 malformed input, 2 violated precondition
(including a report that differs from the rebuilt one, a malformed command
line, and an option value outside its domain), 3 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import stat
import sys
import time
from fractions import Fraction

from .classify import ProblemInstance, classify, leading_triple
from .errors import InternalError, ParseError, PreconditionError
from .evidence import chaos_game, completeness_defect, max_orthogonal_clique
from .fourier import _vanishing_factors, construct_witness
from .hadamard import _progression, candidate_spectrum
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


def _decimals(xs) -> list:
    return list(map(_decimal, xs))


def _rows(rows) -> list:
    """Rows of a matrix, or a list of vectors, as lists of decimal strings."""
    return [_decimals(row) for row in rows]


def _write_file(path: str, what: str, make_chunks):
    """Write make_chunks()'s text to a file opened first: an unwritable one is
    exit 1 before any work, and a refusal in make_chunks keeps an existing
    file's bytes and removes a file that this call created."""
    created = not os.path.lexists(path)
    try:
        with open(path, "a") as fh:
            chunks = make_chunks()
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
            fh.writelines(chunks)
    except OSError as e:
        raise ParseError(f"cannot write {what} {path}: {e}") from None
    except BaseException:
        if created:
            os.remove(path)
        raise


def _emit(args, obj, human_lines):
    report = getattr(args, "report", None)
    if report or args.json:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if report:
        _write_file(report, "report", lambda: [text])
    if args.json:
        sys.stdout.write(text)
    else:
        sys.stdout.write("\n".join(human_lines) + "\n")


# ---------------------------------------------------------------------------
# results as JSON
# ---------------------------------------------------------------------------


def _triple_json(triple):
    return {
        "matrix": _rows(triple.m.rows),
        "digits": _rows(_progression(triple.w.entries, triple.q)),
        "duals": _rows(_progression(triple.u.entries, triple.q)),
    }


def _witness_json(w):
    return {
        "alpha": _decimals(w.alpha),
        "ell": w.ell,
        "phase": _decimal(w.phase),
        "image": _decimals(w.image),
    }


def _clique_json(rep):
    return {
        "lattice_denominator": rep.lattice_denominator,
        "box_radius": rep.box_radius,
        "max_clique_size": rep.max_clique_size,
        "witness_set": _rows(rep.witness_set),
        "certified": rep.certified,
    }


def _certificate_json(cert):
    if cert.kind == "hadamard":
        block = cert.triple.block
        if block is not None:
            block = {"b": _rows(block.b.rows), "r": block.r}
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
    if cert.kind != "hadamard":
        raise PreconditionError("completeness evidence requires a spectral verdict")
    spectrum = candidate_spectrum(cert.triple, args.depth)
    rep = completeness_defect(inst, spectrum, _default_probes(inst.m.n), args.tail_eps)
    return {
        "kind": "completeness",
        "depth": rep.depth,
        "tail_eps": rep.tail_eps,
        "probes": _rows(rep.probes),
        "defects": rep.defects,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args, inst):
    # an option given to a mode that never reads it is refused, not dropped;
    # one not given takes its default here (build_parser leaves it None)
    for flag, spec in _OPTIONS.items():
        dest, kind = flag[2:].replace("-", "_"), spec.get("evidence")
        if kind and getattr(args, dest) is None:
            setattr(args, dest, spec.get("default"))
        elif kind and (args.verify_certificate or args.evidence != kind):
            raise PreconditionError(f"{flag} is read only with --evidence {kind}")
    if args.verify_certificate:
        # it prints one status line, and would drop a report, evidence or JSON
        if args.json or args.report or args.evidence != "none":
            raise PreconditionError("--verify-certificate reads only --input and the report "
                                    "file: it takes no --json, --report or --evidence")
        report = _read_json(args.verify_certificate, "report")
        sys.stdout.write(_verify_report(inst, report) + "\n")
        return
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
    _emit(args, report, human)


def _describe_cert(cert_json) -> str:
    if cert_json["type"] == "condition-only":
        return f"condition-only ({cert_json['note']})"
    return f"{cert_json['type']} (verified: {str(cert_json['reverified']).lower()})"


def cmd_decompose(args, inst):
    leading = inst.leading
    if leading.decomp is None:
        branch, note, record = "companion", "Krylov vectors span the whole space", leading.companion()
        labels, vector = {"b": "b", "m_tilde": "companion form"}, "v_tilde"
    else:
        branch, note, record = "block", "proper invariant subspace", leading.decomp
        labels, vector = {k: k for k in ("b", "m1", "c", "m2")}, "x"
    obj = {
        "branch": branch,
        "r": leading.r,
        **{k: _rows(getattr(record, k).rows) for k in labels},
        vector: _decimals(getattr(record, vector)),
    }
    human = [f"{branch} branch ({note})", f"r: {leading.r}"]
    human += [f"{label}: {getattr(record, k).rows}" for k, label in labels.items()]
    if branch == "block":
        human.append(f"x: {tuple(record.x)}")
    _emit(args, obj, human)


def cmd_witness(args, inst):
    w = construct_witness(inst)
    obj = {**_witness_json(w), "verified": w.verified}
    human = [
        f"alpha: ({', '.join(map(_decimal, w.alpha))})",
        f"ell: {w.ell}",
        f"phase: {w.phase}",
        f"image: ({', '.join(map(_decimal, w.image))})",
        f"verified: {str(w.verified).lower()}",
    ]
    _emit(args, obj, human)


def cmd_hadamard(args, inst):
    triple = leading_triple(inst)
    obj = {"reduced_to_rank": inst.leading.r, **_triple_json(triple), "verified": triple.verified}
    human = [
        f"companion matrix: {triple.m.rows}",
        f"digits: {list(_progression(triple.w.entries, triple.q))}",
        f"duals: {list(_progression(triple.u.entries, triple.q))}",
        f"verified: {str(triple.verified).lower()}",
    ]
    _emit(args, obj, human)


def cmd_spectrum(args, inst):
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
    _emit(args, obj, human)


def cmd_clique(args, inst):
    rep = max_orthogonal_clique(inst, args.lattice_den, args.box, args.jmax)
    human = [
        f"lattice denominator: {rep.lattice_denominator}",
        f"box radius: {rep.box_radius}",
        f"max clique size: {rep.max_clique_size}",
        f"witness set: {[tuple(str(x) for x in p) for p in rep.witness_set]}",
        f"all pairs certified: {str(rep.certified).lower()}",
    ]
    _emit(args, _clique_json(rep), human)


def cmd_sample(args, inst):
    def lines():
        sample = chaos_game(inst, args.iters, args.seed)
        header = ",".join(f"x{i + 1}" for i in range(inst.m.n)) + "\n"
        return itertools.chain([header], (",".join(f"{x:.12g}" for x in row) + "\n" for row in sample.points))

    if args.output:
        _write_file(args.output, "output", lines)
    else:
        sys.stdout.writelines(lines())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_JMAX_HELP = ("deepest factor searched for a certificate (default: 3n plus the bit length "
              "of the difference); an upper limit, as the search ends once a decay "
              "bound shows that no later factor can vanish")


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a violated precondition: one error line
    and exit 2 from main, not usage text.  Subparsers are of this class."""

    def error(self, message):
        raise PreconditionError(f"{self.prog}: {message}")


def _bounded(flag, convert, ok, domain):
    """The type= of a numeric option: a malformed value keeps argparse's
    "invalid int value" wording, and one outside the domain is a violated
    precondition, which argparse passes through as it is."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise PreconditionError(f"{flag} must be {domain}, got {value}")
        return value

    parse.__name__ = convert.__name__
    return parse


# every option once, with add_argument's keywords; the type of a bounded
# number is made by _bounded from its domain, a test and its wording, and
# "evidence" names the one --evidence kind of classify that reads it
_OPTIONS = {
    "--report": {"help": "also write the JSON report to this file"},
    "--evidence": {"choices": ("none", "clique", "completeness"), "default": "none",
                   "help": "attach a brute-force evidence section"},
    "--depth": {"type": int, "domain": (lambda x: x >= 1, "at least 1"), "default": 3,
                "help": "spectrum truncation depth", "evidence": "completeness"},
    "--tail-eps": {"type": float, "domain": (lambda x: 0 < x < math.inf, "finite and positive"), "default": 1e-9,
                   "evidence": "completeness"},
    "--lattice-den": {"type": int, "domain": (lambda x: x >= 1, "at least 1"), "default": 1, "evidence": "clique"},
    "--box": {"type": int, "domain": (lambda x: x >= 0, "at least 0"), "default": 10, "evidence": "clique"},
    "--jmax": {"type": int, "domain": (lambda x: x >= 1, "at least 1"), "help": _JMAX_HELP, "evidence": "clique"},
    "--verify-certificate": {
        "metavar": "REPORT",
        "help": "check a report file against the report rebuilt for the instance "
        "(verdict, conditions, certificate, theorems_applied) and exit",
    },
    "--iters": {"type": int, "domain": (lambda x: x >= 0, "at least 0"), "default": 100000},
    "--seed": {"type": int, "default": 0},
    "--output": {"help": "CSV file (default: stdout)"},
}

# each subcommand's function, help and the options it reads besides --input
_COMMANDS = {
    "classify": (cmd_classify, "run the decision tree and emit a report",
                 ("--report", "--evidence", "--depth", "--tail-eps", "--lattice-den", "--box", "--jmax",
                  "--verify-certificate")),
    "decompose": (cmd_decompose, "print the Krylov block decomposition", ()),
    "witness": (cmd_witness, "construct an orthogonality witness", ()),
    "hadamard": (cmd_hadamard, "construct and verify the dual digit set", ()),
    "spectrum": (cmd_spectrum, "candidate spectrum truncation", ("--depth", "--jmax")),
    "clique": (cmd_clique, "maximum orthogonal clique on a lattice box", ("--lattice-den", "--box", "--jmax")),
    "sample": (cmd_sample, "chaos-game point cloud as CSV", ("--iters", "--seed", "--output")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="affinespectra",
        description="Classify spectrality of self-affine measures with "
        "consecutive collinear digit sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--input", required=True, help="instance JSON file")
        if name != "sample":  # which writes CSV only
            fmt = p.add_mutually_exclusive_group()
            fmt.add_argument("--json", action="store_true", help="machine-readable output")
            fmt.add_argument("--human", action="store_true", help="aligned text output (default)")
        for flag in flags:
            kwargs = dict(_OPTIONS[flag])
            if "domain" in kwargs:
                kwargs["type"] = _bounded(flag, kwargs["type"], *kwargs.pop("domain"))
            if kwargs.pop("evidence", None) and name == "classify":
                kwargs["default"] = None  # so that cmd_classify sees whether it was given
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args, load_instance(args.input))
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return 0
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
