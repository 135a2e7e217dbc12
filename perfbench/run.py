"""Benchmark of the affinespectra package.

    python3 perfbench/run.py --workload q-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``,
nothing needs installing.  A run generates the workload's inputs from the
seed, sets up, runs one untimed warm-up round and then whole rounds of the
same operations until ``--seconds`` have passed.  Every output is checked
against the oracles in ``oracle.py``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced.  Their
times are in reference units: each is divided by the time of a fixed
piece of the benchmark's own work run beside it, and scaled to
REFERENCE_S, because the shared hosts this runs on have slow phases from
seconds to minutes long that move every wall time together.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds (per round, wall clock), plus the
tracing overhead: traced minus untraced rounds.  Spans are written to
``.perfbench_work/<workload>-s<seed>-t1/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LAYERS = ("linalg", "conjugation", "hadamard", "fourier", "evidence", "classify", "cli")
SETUP_REPEATS = 5
PROBE_REPEATS = 5
SUBPROCESS_TIMEOUT = 120
KINDS = ("classify", "verify", "completeness", "clique", "sample", "cli_classify", "cli_verify")

# End-to-end times are reported at the speed at which _reference() takes
# this long: about its median on the host the README's figures come from.
REFERENCE_S = 0.006
_REFERENCE_MATRIX = [[3, 1, 4, 1, 5, 9], [2, 6, 5, 3, 5, 8], [9, 7, 9, 3, 2, 3],
                     [8, 4, 6, 2, 6, 4], [3, 3, 8, 3, 2, 7], [9, 5, 0, 2, 8, 8]]
_REFERENCE_STEP = np.array([[0.5, 0.1], [0.2, 0.3]])

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("classify_per_s", "instances/s"),
    ("classify_p50_ms", "ms"),
    ("verify_per_s", "certificates/s"),
    ("completeness_s", "s"),
    ("clique_s", "s"),
    ("sample_s", "s"),
    ("cli_classify_ms", "ms"),
    ("cli_verify_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (  # name, unit; values are per traced round
    ("linalg.char_poly.calls", "count"),
    ("linalg.char_poly.ms", "ms"),
    ("linalg.det.calls", "count"),
    ("linalg.det.ms", "ms"),
    ("linalg.krylov.calls", "count"),
    ("linalg.krylov.ms", "ms"),
    ("linalg.rank.ms", "ms"),
    ("linalg.inverse.calls", "count"),
    ("linalg.inverse.ms", "ms"),
    ("linalg.hnf_unimodular.ms", "ms"),
    ("linalg.is_expanding.ms", "ms"),
    ("linalg.self_ms", "ms"),
    ("conjugation.companion_conjugate.calls", "count"),
    ("conjugation.companion_conjugate.ms", "ms"),
    ("conjugation.block_decompose.calls", "count"),
    ("conjugation.block_decompose.ms", "ms"),
    ("conjugation.map_spectrum.ms", "ms"),
    ("conjugation.self_ms", "ms"),
    ("hadamard.construct_dual_digits.ms", "ms"),
    ("hadamard.verify_hadamard.calls", "count"),
    ("hadamard.verify_hadamard.ms", "ms"),
    ("hadamard.phase_matrix.ms", "ms"),
    ("hadamard.candidate_spectrum.ms", "ms"),
    ("hadamard.self_ms", "ms"),
    ("fourier.construct_witness.calls", "count"),
    ("fourier.construct_witness.ms", "ms"),
    ("fourier.witness_ell", "count"),
    ("fourier.verify_witness.ms", "ms"),
    ("fourier.mu_hat.calls", "count"),
    ("fourier.mu_hat.ms", "ms"),
    ("fourier.mu_hat.factors", "count"),
    ("fourier.certify_orthogonal.calls", "count"),
    ("fourier.certify_orthogonal.ms", "ms"),
    ("fourier.self_ms", "ms"),
    ("evidence.completeness_defect.ms", "ms"),
    ("evidence.max_orthogonal_clique.ms", "ms"),
    ("evidence.chaos_game.ms", "ms"),
    ("evidence.chaos_game.points", "count"),
    ("evidence.self_ms", "ms"),
    ("classify.classify.calls", "count"),
    ("classify.ProblemInstance.ms", "ms"),
    ("classify.self_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.load_instance.ms", "ms"),
    ("cli.main.ms", "ms"),
    ("cli.report_bytes", "bytes"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def _reference():
    """Seconds taken by a fixed piece of work of the benchmark's own: an
    exact Fraction inverse and a run of small numpy products, the two kinds
    of work the package does.  Nothing in it calls the package."""
    start = time.perf_counter()
    oracle.inverse(_REFERENCE_MATRIX)
    y = np.zeros(2)
    for _ in range(1000):
        y = _REFERENCE_STEP @ (y + 1.0)
    return time.perf_counter() - start


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(argv):
    return subprocess.run(argv, cwd=ROOT, env=_subprocess_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)


def _instance_json(case):
    return {"matrix": [list(row) for row in case.matrix], "v": list(case.v), "q": case.q}


def _one_line_error(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and "Traceback" not in err and lines[0].startswith(("error:", "internal error:"))


class Bench:
    """One workload's inputs turned into program objects, and its rounds."""

    def __init__(self, workload, workdir, in_process_cli):
        self.w = workload
        self.workdir = workdir
        self.in_process_cli = in_process_cli
        self.pkg = importlib.import_module("affinespectra")
        self.mod = {name: importlib.import_module(f"affinespectra.{name}") for name in LAYERS}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.faults = {}
        self.report_bytes = 0
        linalg = self.mod["linalg"]
        self.objects = {c: (linalg.IntMatrix(c.matrix), linalg.IntVector(c.v)) for c in workload.cases()}
        self.triples = {t: self._classify(t.case).certificate.triple for t in workload.completeness}
        self.sample_exact = {t: [self.mod["fourier"].mu_hat(self._instance(t.case), xi).value
                                 for xi in t.probes] for t in workload.sample}
        self.sample_radius = {t: oracle.attractor_bound(t.case) for t in workload.sample}
        self.cli_files = []
        for i, case in enumerate(workload.cli):
            inst_path = workdir / f"instance-{i}.json"
            inst_path.write_text(json.dumps(_instance_json(case)))
            library = self._classify(case).verdict.value
            self.cli_files.append((case, str(inst_path), str(workdir / f"report-{i}.json"), library))
        self.rejections = self._rejection_cases() if workload.rejections else []

    def _instance(self, case):
        m, v = self.objects[case]
        return self.mod["classify"].ProblemInstance(m, v, case.q)

    def _classify(self, case):
        return self.mod["classify"].classify(self._instance(case))

    def _check(self, problem):
        if problem is not None and problem not in self.errors and len(self.errors) < 20:
            self.errors.append(problem)

    # -- the command line ---------------------------------------------------

    def cli(self, argv):
        """(exit code, stdout, stderr) of one command-line call."""
        if not self.in_process_cli:
            proc = _run([sys.executable, "-m", "affinespectra.cli", *argv])
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.mod["cli"].main(argv)
            except Exception:
                # what the interpreter does with an uncaught exception
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def _rejection_cases(self):
        """Reports that --verify-certificate must reject, from fixed inputs.

        Each entry: name, argv, expected exit code, the fault it exposes."""
        d = self.workdir
        inputs = {
            "one6": {"matrix": [[6]], "v": [1], "q": 6},
            "one6q4": {"matrix": [[6]], "v": [1], "q": 4},
            "three": {"matrix": [[3]], "v": [1], "q": 2},
            "cube6": _instance_json(workloads.CUBE_FIXTURE),
        }
        for name, obj in inputs.items():
            (d / f"fixed-{name}.json").write_text(json.dumps(obj))
        reports = {}
        for name in ("one6", "one6q4", "three"):
            path = d / f"fixed-{name}-report.json"
            code, _, err = self.cli(["classify", "--input", str(d / f"fixed-{name}.json"),
                                     "--report", str(path)])
            if code != 0:
                raise RuntimeError(f"cannot write the {name} report: {err.strip()}")
            reports[name] = json.loads(path.read_text())

        def write(name, obj):
            path = d / f"tampered-{name}.json"
            path.write_text(json.dumps(obj))
            return str(path)

        witness = reports["one6q4"]
        witness["certificate"]["image"] = [str(int(x) + 1) for x in witness["certificate"]["image"]]
        witness["certificate"]["phase"] = "0"
        switched = reports["three"]
        switched["verdict"] = "spectral"
        no_duals = reports["one6"]
        del no_duals["certificate"]["duals"]
        plain = str(d / "fixed-one6-report.json")

        def verify(instance, report):
            return ["classify", "--input", str(d / f"fixed-{instance}.json"), "--verify-certificate", report]

        return [
            ("cross-instance-certificate", verify("cube6", plain), 2,
             "cli._reverify_certificate does not tie the certificate to the instance: "
             "the [[6]] q=6 Hadamard certificate is accepted for the cubic fixture"),
            ("witness-image-phase", verify("one6q4", write("witness", witness)), 2,
             "fourier.verify_witness ignores the image and phase fields of a witness"),
            ("verdict-switch", verify("three", write("verdict", switched)), 2,
             "--verify-certificate never compares the report's verdict with the instance's"),
            ("report-not-object", verify("one6", write("list", [1, 2])), 1,
             "a report that is a JSON list ends in an AttributeError traceback"),
            ("missing-certificate-key", verify("one6", write("no-duals", no_duals)), 1,
             "a certificate without 'duals' ends in a KeyError traceback"),
        ]

    # -- one round ------------------------------------------------------------

    def round(self):
        """Run every operation of the workload once.

        Returns, by kind, one (seconds, reference seconds) pair per timed
        operation.  The reference is the mean of two ``_reference()`` runs
        just before and just after the operation; the many short classify
        and verify calls share one pair around each of their two blocks."""
        rec = {k: [] for k in KINDS}
        cls, fourier, hadamard, evidence = (self.mod[k] for k in ("classify", "fourier", "hadamard", "evidence"))

        def paired(kind, fn):
            before = _reference()
            start = time.perf_counter()
            out = fn()
            secs = time.perf_counter() - start
            rec[kind].append((secs, (before + _reference()) / 2))
            return out

        def block(kind, times, before):
            ref = (before + _reference()) / 2
            rec[kind] = [(t, ref) for t in times]

        before, times, results = _reference(), [], []
        for case in self.w.classify:
            m, v = self.objects[case]
            start = time.perf_counter()
            inst = cls.ProblemInstance(m, v, case.q)
            c = cls.classify(inst)
            times.append(time.perf_counter() - start)
            self.attempted += 1
            results.append((case, inst, c))
            self._check_classification(case, c)
        block("classify", times, before)

        before, times = _reference(), []
        for case, inst, c in results:
            cert = c.certificate
            if cert.kind == "hadamard":
                t = cert.triple
                start = time.perf_counter()
                ok = hadamard.verify_hadamard(t.m, t.digits, t.duals)
                times.append(time.perf_counter() - start)
                self._check(None if ok is True else f"{case.label}: hadamard certificate did not re-verify")
                self._check(oracle.check_hadamard(case, t.m.rows, [d.entries for d in t.digits],
                                                  [s.entries for s in t.duals]))
            elif cert.kind == "witness":
                wit = cert.witness
                start = time.perf_counter()
                ok = fourier.verify_witness(inst, wit)
                times.append(time.perf_counter() - start)
                self._check(None if ok is True else f"{case.label}: witness did not re-verify")
                self._check(oracle.check_witness(case, wit.alpha.entries, wit.ell, wit.phase,
                                                 wit.image.entries))
            else:
                continue
            self.attempted += 1
        block("verify", times, before)

        for task in self.w.completeness:
            inst = self._instance(task.case)

            def defects():
                spectrum = hadamard.candidate_spectrum(self.triples[task], task.depth)
                return evidence.completeness_defect(inst, spectrum, list(task.probes)).defects

            self.attempted += 1
            if task.fault is None:
                self._check(oracle.check_defects(task, paired("completeness", defects)))
                continue
            problem = oracle.check_defects(task, defects())
            if problem is not None:
                self.failed += 1
                self.faults[task.case.label] = f"{task.fault} ({problem})"

        for task in self.w.clique:
            inst = self._instance(task.case)
            rep = paired("clique", lambda: evidence.max_orthogonal_clique(inst, task.lattice_den, task.box))
            self.attempted += 1
            self._check(oracle.check_clique(task, rep.max_clique_size,
                                            [p.entries for p in rep.witness_set], rep.certified))

        for task in self.w.sample:
            inst = self._instance(task.case)
            s = paired("sample", lambda: evidence.chaos_game(inst, task.iterations, task.chaos_seed))
            self.attempted += 1
            self._check(oracle.check_sample(task, s.points, self.sample_radius[task],
                                            self.sample_exact[task]))

        for case, inst_path, report_path, library in self.cli_files:
            code, _, err = paired("cli_classify", lambda: self.cli(
                ["classify", "--input", inst_path, "--report", report_path]))
            self.attempted += 1
            self._check_report(case, code, err, report_path, library)
            code, out, err = paired("cli_verify", lambda: self.cli(
                ["classify", "--input", inst_path, "--verify-certificate", report_path]))
            self.attempted += 1
            want = {"hadamard": "hadamard certificate re-verified",
                    "witness": "witness certificate re-verified",
                    "condition-only": "no constructive certificate to verify"}
            status = want[oracle.CERTIFICATE_OF[oracle.expected_verdict(case)]]
            self._check(None if code == 0 and out.strip() == status
                        else f"{case.label}: --verify-certificate exit {code}: {(out + err).strip()[:200]}")

        for name, argv, want_code, fault in self.rejections:
            code, _, err = self.cli(argv)
            self.attempted += 1
            if code != want_code or not _one_line_error(err):
                self.failed += 1
                how = "a traceback" if "Traceback" in err else f"exit {code}"
                self.faults[name] = f"{fault} (expected exit {want_code} with one line, got {how})"
        return rec

    def _check_classification(self, case, c):
        want = oracle.expected_verdict(case)
        if c.verdict.value != want:
            self._check(f"{case.label}: verdict {c.verdict.value}, expected {want}")
            return
        k = c.conditions
        self._check(oracle.check_conditions(case, k.r, k.det_m1, k.gcd_q_detm1,
                                            k.q_divides_detm1, k.pure_power_c))
        if c.certificate.kind != oracle.CERTIFICATE_OF[want]:
            self._check(f"{case.label}: {c.certificate.kind} certificate for a {want} verdict")

    def _check_report(self, case, code, err, report_path, library):
        if code != 0:
            self._check(f"{case.label}: classify --report exit {code}: {err.strip()[:200]}")
            return
        text = Path(report_path).read_text()
        self.report_bytes += len(text.encode())
        report = json.loads(text)
        want = oracle.expected_verdict(case)
        if report["verdict"] != library or report["verdict"] != want:
            self._check(f"{case.label}: report verdict {report['verdict']}, library {library}, expected {want}")
            return
        k = report["conditions"]
        pure = None if k["pure_power_c"] is None else int(k["pure_power_c"])
        self._check(oracle.check_conditions(case, k["r"], int(k["det_m1"]), int(k["gcd"]),
                                            k["q_divides"], pure))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def setup_probe(name, seed):
    """What a fresh process pays before its first measured operation:
    package import, input generation and validation, one warm-up call."""
    import affinespectra.cli  # noqa: F401  (the command line is part of set-up)
    from affinespectra.classify import ProblemInstance, classify
    from affinespectra.linalg import IntMatrix, IntVector

    cases = workloads.build(name, seed).cases()
    insts = [ProblemInstance(IntMatrix(c.matrix), IntVector(c.v), c.q) for c in cases]
    classify(insts[0])
    # the process's own speed, for the parent to put its wall time in
    # reference units
    print(statistics.median(_reference() for _ in range(3)))


def measure_setup(name, seed):
    """Median wall time of fresh set-up processes, in reference units."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = _run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", name, "--seed", str(seed)])
        secs = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-400:]}")
        times.append(secs * REFERENCE_S / float(proc.stdout))
    return statistics.median(times)


def measure_interpreter():
    """Bare interpreter start-up and fresh-interpreter import of the CLI, ms."""
    bare, imports = [], []
    code = ("import time; t = time.perf_counter(); import affinespectra.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _run([sys.executable, "-c", "pass"])
        bare.append((time.perf_counter() - start) * 1e3)
        imports.append(float(_run([sys.executable, "-c", code]).stdout) * 1e3)
    return statistics.median(bare), statistics.median(imports)


def end_to_end(rounds, setup_s):
    """Every round runs the same operations in the same order, so the i-th
    entry of a kind is the same operation in every round.  Its figure is
    the median over the rounds of its time divided by its reference time,
    scaled to REFERENCE_S.  CLI calls cost about the same whatever the
    instance, so their latency is the median over every call."""
    op = {k: [statistics.median(t / r for t, r in pairs) * REFERENCE_S
              for pairs in zip(*(rec[k] for rec in rounds))] for k in KINDS}
    call = {k: statistics.median(t / r for rec in rounds for t, r in rec[k]) * REFERENCE_S
            for k in ("cli_classify", "cli_verify")}
    values = {
        "setup_s": setup_s,
        "classify_per_s": len(op["classify"]) / sum(op["classify"]),
        "classify_p50_ms": statistics.median(op["classify"]) * 1e3,
        "verify_per_s": len(op["verify"]) / sum(op["verify"]),
        "completeness_s": sum(op["completeness"]),
        "clique_s": sum(op["clique"]),
        "sample_s": sum(op["sample"]),
        "cli_classify_ms": call["cli_classify"] * 1e3,
        "cli_verify_ms": call["cli_verify"] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_untraced(bench, seconds):
    bench.round()  # warm-up: fills the program's caches and the CLI's bytecode
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        rounds.append(bench.round())
    return rounds


def _mean_reference(rec):
    return statistics.mean(r for pairs in rec.values() for _, r in pairs)


def run_traced(bench, seconds, spans_path):
    interpreter_ms, import_ms = measure_interpreter()
    t = tracer.Tracer(bench.pkg, bench.mod)
    bench.round()
    plain, traced, totals, kept = [], [], {}, []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        start = time.perf_counter()
        rec = bench.round()
        plain.append((time.perf_counter() - start, _mean_reference(rec)))
        bench.report_bytes = 0
        t.install()
        start = time.perf_counter()
        try:
            rec = bench.round()
        finally:
            t.uninstall()
        traced.append((time.perf_counter() - start, _mean_reference(rec)))
        spans, counters = t.take()
        kept.append((len(traced), spans))
        for key, value in {**tracer.summary(spans), **counters,
                           "cli.report_bytes": bench.report_bytes}.items():
            totals[key] = totals.get(key, 0) + value
    tracer.write_spans(spans_path, kept)
    k = len(traced)
    values = {key: value / k for key, value in totals.items()}
    # rounds compared in reference units, as the end-to-end figures are
    ratio = (statistics.median(w / r for w, r in traced)
             / statistics.median(w / r for w, r in plain))
    values.update({
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_ms": (ratio - 1) * statistics.median(w for w, _ in plain) * 1e3,
        "trace.overhead_pct": (ratio - 1) * 100,
    })
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "affinespectra" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'affinespectra'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    bench = Bench(workloads.build(args.workload, args.seed), workdir, in_process_cli=bool(args.trace))
    if args.trace:
        metrics = run_traced(bench, args.seconds, workdir / "spans.jsonl")
    else:
        metrics = end_to_end(run_untraced(bench, args.seconds), setup_s)

    for problem in bench.errors:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, fault in sorted(bench.faults.items()):
        print(f"failed operation {name}: {fault}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not bench.errors, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
