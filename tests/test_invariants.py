"""Internal checks that must survive ``python -O``, and the one-pass
leading-block analysis that every consumer reads."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from affinespectra import conjugation, fourier, hadamard, linalg
from affinespectra.classify import ProblemInstance, classify, leading_triple
from affinespectra.cli import main
from affinespectra.errors import InternalError, InternalRankError, PreconditionError
from affinespectra.hadamard import candidate_spectrum, phase_matrix, verify_hadamard
from affinespectra.linalg import IntMatrix, IntVector, RatMatrix, char_poly, det

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "affinespectra"

CUBE = {"matrix": [[2, 6, 4], [-1, 2, 2], [-1, -1, -4]], "v": [0, 0, 1], "q": 6}


# ---------------------------------------------------------------------------
# no assert statements in the package
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_assert_statements(path):
    # python -O strips assert statements; invariants must be explicit raises
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


# ---------------------------------------------------------------------------
# a failed internal check under python -O
# ---------------------------------------------------------------------------

_REJECT_EVERY_WITNESS = """
import sys
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
from affinespectra import fourier
fourier.verify_witness = lambda inst, w: False
"""


def _run_optimized(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", _REJECT_EVERY_WITNESS + script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_unverified_witness_raises_under_optimize():
    proc = _run_optimized(
        "from affinespectra.classify import ProblemInstance\n"
        "from affinespectra.errors import InternalError\n"
        "from affinespectra.linalg import IntMatrix, IntVector\n"
        "try:\n"
        "    fourier.construct_witness(ProblemInstance(IntMatrix([[6]]), IntVector([1]), 4))\n"
        "except InternalError as e:\n"
        "    print('InternalError:', e)\n"
        "else:\n"
        "    sys.exit('construct_witness returned an unverified witness')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InternalError: constructed witness failed verification")


def test_unverified_witness_exits_3_without_report_under_optimize(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"matrix": [[6]], "v": [1], "q": 4}))
    report = tmp_path / "report.json"
    proc = _run_optimized(
        "from affinespectra.cli import main\n"
        "sys.exit(main(['classify', '--input', sys.argv[1], '--report', sys.argv[2]]))\n",
        str(inst), str(report),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "internal error: constructed witness failed verification"
    ]
    assert not report.exists()


# ---------------------------------------------------------------------------
# the leading block, computed once
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name through every package namespace that
    binds it, the way the package's own modules reach it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("affinespectra"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_leading_block_full_rank():
    inst = ProblemInstance(IntMatrix(CUBE["matrix"]), IntVector(CUBE["v"]), 6)
    lead = inst.leading
    assert lead is inst.leading
    assert (lead.r, lead.decomp, lead.m1, lead.v1) == (3, None, inst.m, inst.v)
    assert lead.char_poly == char_poly(inst.m)
    assert lead.det_m1 == det(inst.m) == -36


def test_leading_block_reduced():
    inst = ProblemInstance(IntMatrix([[4, 0], [0, 5]]), IntVector([1, 0]), 6)
    lead = inst.leading
    assert lead.r == 1 and lead.decomp is not None
    assert lead.m1 == lead.decomp.m1 == IntMatrix([[4]])
    assert lead.v1 == lead.decomp.x
    assert lead.det_m1 == det(lead.m1) == 4


def test_leading_triple_is_verified():
    inst = ProblemInstance(IntMatrix([[4, 0], [0, 5]]), IntVector([1, 0]), 4)
    triple = leading_triple(inst)
    assert triple.verified and triple.q == 4 and triple.m == IntMatrix([[4]])


def test_classify_decomposes_a_reduced_witness_instance_once(monkeypatch):
    # every decomposition, block_decompose's included, runs _block_decompose
    calls = _count_calls(monkeypatch, conjugation, "_block_decompose")
    inst = ProblemInstance(IntMatrix([[4, 0], [0, 5]]), IntVector([1, 0]), 6)
    c = classify(inst)
    assert c.verdict.value == "not_spectral_infinite_orthogonals"
    assert c.certificate.kind == "witness"
    assert len(calls) == 1


RANK_ONE = {"matrix": [[1, -3, 3], [3, -5, 3], [6, -6, 4]], "v": [1, 1, 2], "q": 4}
RANK_TWO = {"matrix": [[4, 0, 0, 0], [0, 3, 0, 1], [0, 0, 5, 0], [0, 0, 0, 7]],
            "v": [1, 1, 0, 0], "q": 8}


@pytest.mark.parametrize("inst, verdict, decompositions", [
    (RANK_ONE, "spectral", 0),
    ({**RANK_TWO, "q": 12}, "spectral", 0),
    ({**RANK_ONE, "q": 3}, "not_spectral_finitely_many", 0),
    ({**RANK_TWO, "q": 5}, "unknown", 0),
    ({**RANK_ONE, "q": 8}, "not_spectral_infinite_orthogonals", 1),
    (RANK_TWO, "infinite_orthogonals_spectrality_unknown", 1),
], ids=["hadamard-1", "hadamard-2", "finitely-many", "unknown", "witness-1", "witness-2"])
def test_classify_builds_the_decomposition_only_for_a_witness(monkeypatch, inst, verdict, decompositions):
    # at r < n the Hadamard and condition-only verdicts read r, f and det m1
    # alone; the witness reads m1, c, m2 and b, and builds them once
    blocks = _count_calls(monkeypatch, conjugation, "_block_decompose")
    hnfs = _count_calls(monkeypatch, linalg, "_hnf_unimodular")
    c = classify(ProblemInstance(IntMatrix(inst["matrix"]), IntVector(inst["v"]), inst["q"]))
    assert c.verdict.value == verdict and "rank-reduction" in c.reasons
    assert (len(blocks), len(hnfs)) == (decompositions, decompositions)


def test_classify_report_builds_the_decomposition_once(monkeypatch, tmp_path, capsys):
    # the report's certificate carries block.b: one decomposition, read by
    # both the report and the human summary
    path, report = tmp_path / "rank-one.json", tmp_path / "report.json"
    path.write_text(json.dumps(RANK_ONE))
    blocks = _count_calls(monkeypatch, conjugation, "_block_decompose")
    hnfs = _count_calls(monkeypatch, linalg, "_hnf_unimodular")
    assert main(["classify", "--input", str(path), "--report", str(report)]) == 0
    capsys.readouterr()
    assert json.loads(report.read_text())["certificate"]["block"]["r"] == 1
    assert (len(blocks), len(hnfs)) == (1, 1)


@pytest.mark.parametrize("inst, verdict, char_polys, krylovs, relations", [
    # full rank: the Krylov elimination gives r and the char poly of M,
    # which decides the expanding test (1 char poly and 1 krylov before)
    (CUBE, "spectral", 0, 0, 1),
    # rank 1: the same elimination, continued by the chains of unit
    # vectors, gives r, the char poly of m1 and that of the trailing block
    # (2 char polys and 2 krylovs before, then Faddeev on m2 only)
    (RANK_ONE, "spectral", 0, 0, 1),
], ids=["full-rank", "rank-1"])
def test_classify_computes_each_char_poly_and_krylov_basis_once(
    monkeypatch, inst, verdict, char_polys, krylovs, relations
):
    char_poly_calls = _count_calls(monkeypatch, linalg, "char_poly")
    krylov_calls = _count_calls(monkeypatch, linalg, "krylov")
    relation_calls = _count_calls(monkeypatch, linalg, "_krylov_chains")
    c = classify(ProblemInstance(IntMatrix(inst["matrix"]), IntVector(inst["v"]), inst["q"]))
    assert c.verdict.value == verdict and c.certificate.triple.verified
    counts = (len(char_poly_calls), len(krylov_calls), len(relation_calls))
    assert counts == (char_polys, krylovs, relations)




@pytest.mark.parametrize("inst, verdict", [
    (RANK_ONE, "spectral"),
    ({**RANK_ONE, "q": 8}, "not_spectral_infinite_orthogonals"),
    (RANK_TWO, "infinite_orthogonals_spectrality_unknown"),
    ({"matrix": [[4, 0], [0, 5]], "v": [1, 0], "q": 6}, "not_spectral_infinite_orthogonals"),
], ids=["rank-1-spectral", "rank-1-witness", "rank-2-witness", "diagonal"])
def test_rank_deficient_instance_computes_two_determinants(monkeypatch, inst, verdict):
    # the witness builds the decomposition, which checks det M and det m2
    # against the chain polynomials; det m1 is (-1)^r f(0) (4 before).  The
    # Hadamard verdict builds no decomposition, so it takes no determinant
    det_calls = _count_calls(monkeypatch, linalg, "det")
    c = classify(ProblemInstance(IntMatrix(inst["matrix"]), IntVector(inst["v"]), inst["q"]))
    assert c.verdict.value == verdict and "rank-reduction" in c.reasons
    assert len(det_calls) <= 2
    n = len(inst["matrix"])
    want = [] if c.certificate.kind == "hadamard" else [n, n - c.conditions.r]
    assert sorted(len(args[0].rows) for args in det_calls) == sorted(want)


@pytest.mark.parametrize("inst", [
    RANK_TWO,
    {"matrix": [[4, 0], [0, 5]], "v": [1, 0], "q": 6},
], ids=["rank-2", "diagonal"])
def test_reduced_witness_solves_only_on_the_blocks(monkeypatch, inst):
    # m1^{-ell} v1 and (m1^{-T})^ell z step by solves on m1 and m1^T, and
    # B^{-T} by solves on m1^T and m2^T: no adjugate, no n x n solve
    problem = ProblemInstance(IntMatrix(inst["matrix"]), IntVector(inst["v"]), inst["q"])
    n, r = problem.m.n, problem.leading.r
    adjugates = _count_calls(monkeypatch, linalg, "_adjugate")
    inverses = _count_calls(monkeypatch, linalg, "_inverse_parts")
    solves = _count_calls(monkeypatch, linalg, "_solve_parts")
    w = fourier.construct_witness(problem)
    assert w.verified and problem.leading.decomp is not None
    assert adjugates == inverses == []
    assert solves and {args[0].n for args in solves} == {r, n - r}


def test_block_determinant_check_still_fires(monkeypatch):
    # det M == det m1 * det m2 is still checked, with det m1 read off f,
    # when the decomposition is built: on its first read
    original = linalg.det
    monkeypatch.setattr(conjugation, "det", lambda m: original(m) + 1)
    inst = ProblemInstance(IntMatrix(RANK_ONE["matrix"]), IntVector(RANK_ONE["v"]), RANK_ONE["q"])
    with pytest.raises(InternalError, match="block determinants"):
        inst.leading.decomp


def test_hnf_checks_fire_on_corrupted_fields(monkeypatch):
    a = IntMatrix([[3, 1], [5, 2], [7, 4]])
    with pytest.raises(InternalError, match="outgrew its packed width"):
        linalg._unpack([1 << 64], 1, 8)
    unpack = linalg._unpack

    def corrupt(edit):
        # edit the unpacked rows of b and the unpacked columns of b^-1
        monkeypatch.setattr(linalg, "_unpack", lambda *args: edit(unpack(*args)))

    # P b and b^-1 P^T for the reversal P: still inverse to each other,
    # but no longer the b that reduces a to h
    corrupt(lambda rows: rows[::-1])
    with pytest.raises(InternalError, match="do not reproduce the echelon form"):
        linalg._hnf_unimodular(a)
    # b[0][0] and b^-1[0][0] one off: b b^-1 = I fails
    corrupt(lambda rows: ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:])
    with pytest.raises(InternalError, match="must stay unimodular"):
        linalg._hnf_unimodular(a)


@pytest.mark.parametrize("n", [3, 8], ids=["plain", "packed"])
def test_block_checks_fire_on_corrupted_products(monkeypatch, n):
    # diag(2, ..., n + 1) with v = e_0 + e_1: rank 2 for n = 3 (plain block
    # product) and n = 8 (packed)
    m = IntMatrix([[(i + 2) * (i == j) for j in range(n)] for i in range(n)])
    v = IntVector([1, 1] + [0] * (n - 2))
    vecs, r, f, trailing = linalg._krylov_chains(m, v)
    assert r == 2
    w = IntVector([1, 1, 1] + [0] * (n - 3))  # off the span of the iterates of v
    with pytest.raises(InternalRankError, match="nonzero trailing entries"):
        conjugation._block_decompose(m, w, vecs, r, f, trailing)
    conjugate = linalg._conjugate

    def corner_off(*args):
        rows = conjugate(*args)
        return rows[:-1] + ((rows[-1][0] + 1,) + rows[-1][1:],)

    monkeypatch.setattr(conjugation, "_conjugate", corner_off)
    with pytest.raises(InternalRankError, match="lower-left block"):
        conjugation._block_decompose(m, v, vecs, r, f, trailing)


@pytest.mark.parametrize("part, i, j", [("m1", 0, 1), ("c", 1, 1), ("m2", 1, 1)])
def test_reduced_witness_fails_verification_on_a_corrupted_block(part, i, j):
    # the witness solves read m1, c and m2 of the decomposition; one entry
    # off by one gives a frequency that verify_witness refuses (an entry
    # that the solves of this instance never meet would not)
    problem = ProblemInstance(IntMatrix(RANK_TWO["matrix"]), IntVector(RANK_TWO["v"]), RANK_TWO["q"])
    decomp = problem.leading.decomp
    block = getattr(decomp, part)
    setattr(decomp, part, block + IntMatrix([[int((k, l) == (i, j)) for l in range(block.ncols)]
                                             for k in range(block.nrows)]))
    with pytest.raises(InternalError, match="constructed witness failed verification"):
        fourier.construct_witness(problem)


@pytest.mark.parametrize("inst", [CUBE, RANK_ONE], ids=["full-rank", "rank-1"])
def test_classify_runs_no_faddeev_on_m_and_no_inverse(monkeypatch, inst):
    m = IntMatrix(inst["matrix"])
    char_poly_args = _count_calls(monkeypatch, linalg, "char_poly")

    def refuse(*args):
        raise AssertionError("inverse computed on the classify path")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("affinespectra") and hasattr(mod, "inverse"):
            monkeypatch.setattr(mod, "inverse", refuse)
    c = classify(ProblemInstance(m, IntVector(inst["v"]), inst["q"]))
    assert c.certificate.triple.verified
    assert all(args[0] != m for args in char_poly_args)


def test_reduced_pair_must_satisfy_the_minimal_polynomial(monkeypatch):
    # a leading block that is not the restriction of M fails f(m1) x = 0
    decompose = conjugation._block_decompose

    def shifted(*args):
        d = decompose(*args)
        d.m1 = d.m1 + IntMatrix.identity(d.r)
        return d

    monkeypatch.setattr(conjugation, "_block_decompose", shifted)
    inst = ProblemInstance(IntMatrix(RANK_ONE["matrix"]), IntVector(RANK_ONE["v"]), RANK_ONE["q"])
    with pytest.raises(InternalRankError, match="minimal polynomial"):
        inst.leading.decomp


def test_completeness_evidence_verifies_the_triple_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(CUBE))
    # the classifier decides its own triple by HadamardTriple.verify, the
    # closed form on the two progressions, and never by the list path
    calls = []
    original = hadamard.HadamardTriple.verify
    monkeypatch.setattr(hadamard.HadamardTriple, "verify", lambda t: calls.append(t) or original(t))
    list_calls = _count_calls(monkeypatch, hadamard, "verify_hadamard")
    code = main(["classify", "--input", str(path), "--evidence", "completeness",
                 "--depth", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["evidence"]["kind"] == "completeness"
    assert report["certificate"]["reverified"] is True
    assert len(calls) == 1
    assert list_calls == []


# ---------------------------------------------------------------------------
# spectra and phases travel as integers over one denominator
# ---------------------------------------------------------------------------


def test_spectra_and_phases_make_no_rational_matrix(monkeypatch, tmp_path, capsys):
    cube = ProblemInstance(IntMatrix(CUBE["matrix"]), IntVector(CUBE["v"]), CUBE["q"])
    diag = ProblemInstance(IntMatrix(RANK_ONE["matrix"]), IntVector(RANK_ONE["v"]), RANK_ONE["q"])
    path = tmp_path / "rank-one.json"
    path.write_text(json.dumps(RANK_ONE))

    def refuse(*args):
        raise AssertionError("rational matrix built on a spectrum or phase path")

    monkeypatch.setattr(RatMatrix, "__mul__", refuse)
    monkeypatch.setattr(RatMatrix, "__pow__", refuse)
    for module in (linalg, conjugation, hadamard, fourier):
        monkeypatch.setattr(module, "inverse", refuse, raising=False)
    # the companion frame maps the cube's spectrum back by b^{-T}
    spectrum = candidate_spectrum(leading_triple(cube), 3)
    assert len(spectrum.frequencies) == 216 and spectrum.frequencies[0].is_zero()
    # rank 1 at q = 4: b^{-T} out of the companion frame, then b^T out of the block
    spectrum = candidate_spectrum(leading_triple(diag), 2)
    assert len(spectrum.frequencies) == 16 and all(len(lam) == 3 for lam in spectrum.frequencies)
    assert main(["spectrum", "--input", str(path), "--depth", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 16
    # the phases come from the integer adjugate; a digit set that is not
    # consecutive multiples of one vector is refused, not decided
    square = [IntVector([0, 0]), IntVector([1, 0]), IntVector([0, 1]), IntVector([1, 1])]
    theta = phase_matrix(IntMatrix([[2, 0], [0, 2]]), square, square)
    assert theta[3] == (0, Fraction(1, 2), Fraction(1, 2), 0)
    with pytest.raises(PreconditionError):
        verify_hadamard(IntMatrix([[2, 0], [0, 2]]), square, square)
