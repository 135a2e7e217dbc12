import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from affinespectra.classify import WitnessCertificate
from affinespectra.cli import _certificate_json, main
from affinespectra.fourier import Witness
from affinespectra.linalg import IntVector, RatVector

CUBE = {"matrix": [[2, 6, 4], [-1, 2, 2], [-1, -1, -4]], "v": [0, 0, 1], "q": 6}
DIAG = {"matrix": [[1, -3, 3], [3, -5, 3], [6, -6, 4]], "v": [1, 1, 2], "q": 6}
M4 = {"matrix": [[4]], "v": [1], "q": 2}


@pytest.fixture
def write(tmp_path):
    def _write(obj, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes ---------------------------------------------------------------


def test_classify_reduced_instance(write, capsys):
    code, out, _ = _run(capsys, "classify", "--input", write(DIAG), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "not_spectral_infinite_orthogonals"
    assert report["conditions"]["r"] == 1
    assert report["conditions"]["det_m1"] == "4"
    assert report["certificate"]["type"] == "witness"


def test_identity_matrix_exits_2_naming_precondition(write, capsys):
    inst = {"matrix": [[1, 0], [0, 1]], "v": [1, 0], "q": 2}
    code, _, err = _run(capsys, "classify", "--input", write(inst))
    assert code == 2
    assert "not expanding" in err


def test_truncated_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"matrix": [[2,')
    code, _, err = _run(capsys, "classify", "--input", str(path))
    assert code == 1


def test_zero_vector_exits_2(write, capsys):
    code, _, _ = _run(capsys, "decompose", "--input", write({**M4, "v": [0]}))
    assert code == 2


def test_bad_q_exits_2(write, capsys):
    code, _, _ = _run(capsys, "classify", "--input", write({**M4, "q": 1}))
    assert code == 2


def test_shape_mismatch_exits_1(write, capsys):
    code, _, _ = _run(capsys, "classify", "--input", write({**M4, "v": [1, 0]}))
    assert code == 1
    code, _, _ = _run(
        capsys, "classify", "--input", write({"matrix": [[1, 2]], "v": [1], "q": 2})
    )
    assert code == 1


def test_missing_file_exits_1(capsys):
    code, _, _ = _run(capsys, "classify", "--input", "/nonexistent/inst.json")
    assert code == 1


def test_string_integers_accepted(write, capsys):
    inst = {"matrix": [["4"]], "v": ["1"], "q": "2"}
    code, out, _ = _run(capsys, "classify", "--input", write(inst), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "spectral"


# -- report files -------------------------------------------------------------


def test_report_schema_and_decimal_strings(write, capsys, tmp_path):
    report_path = str(tmp_path / "report.json")
    code, _, _ = _run(
        capsys, "classify", "--input", write(CUBE), "--report", report_path
    )
    assert code == 0
    report = json.loads(open(report_path).read())
    assert set(report) == {
        "verdict",
        "conditions",
        "certificate",
        "theorems_applied",
        "evidence",
        "timings_ms",
    }
    assert report["verdict"] == "spectral"
    cond = report["conditions"]
    assert cond["r"] == 3
    assert cond["det_m1"] == "-36"
    assert cond["gcd"] == "6"
    assert cond["q_divides"] is True
    assert cond["pure_power_c"] == "36"
    assert report["theorems_applied"] == ["divisibility-sufficiency"]
    assert report["certificate"]["reverified"] is True
    assert isinstance(report["timings_ms"]["classify"], float)
    # file ends with exactly one newline
    raw = open(report_path).read()
    assert raw.endswith("}\n") and not raw.endswith("\n\n")


def test_json_output_deterministic_modulo_timings(write, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "classify", "--input", write(CUBE), "--json")
        assert code == 0
        report = json.loads(out)
        report.pop("timings_ms")
        outs.append(json.dumps(report, sort_keys=True))
    assert outs[0] == outs[1]


def test_verify_certificate_round_trip(write, capsys, tmp_path):
    report_path = str(tmp_path / "report.json")
    instance = write(CUBE)
    _run(capsys, "classify", "--input", instance, "--report", report_path)
    code, out, _ = _run(
        capsys, "classify", "--input", instance, "--verify-certificate", report_path
    )
    assert code == 0
    assert "re-verified" in out


def test_verify_witness_certificate_round_trip(write, capsys, tmp_path):
    report_path = str(tmp_path / "report.json")
    instance = write(DIAG)
    _run(capsys, "classify", "--input", instance, "--report", report_path)
    code, out, _ = _run(
        capsys, "classify", "--input", instance, "--verify-certificate", report_path
    )
    assert code == 0
    assert "witness certificate re-verified" in out


def test_tampered_certificate_exits_2(write, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    instance = write(CUBE)
    _run(capsys, "classify", "--input", instance, "--report", str(report_path))
    report = json.loads(report_path.read_text())
    report["certificate"]["duals"][1] = ["-5", "0", "0"]
    report_path.write_text(json.dumps(report))
    code, _, err = _run(
        capsys, "classify", "--input", instance, "--verify-certificate", str(report_path)
    )
    assert code == 2
    assert "unitarity" in err


def test_tampered_witness_exits_2(write, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    instance = write(DIAG)
    _run(capsys, "classify", "--input", instance, "--report", str(report_path))
    report = json.loads(report_path.read_text())
    report["certificate"]["alpha"] = ["1/3", "0", "0"]
    report_path.write_text(json.dumps(report))
    code, _, _ = _run(
        capsys, "classify", "--input", instance, "--verify-certificate", str(report_path)
    )
    assert code == 2


def test_condition_only_certificate_verifies_trivially(write, capsys, tmp_path):
    inst = {"matrix": [[3]], "v": [1], "q": 2}
    report_path = str(tmp_path / "report.json")
    instance = write(inst)
    _run(capsys, "classify", "--input", instance, "--report", report_path)
    code, out, _ = _run(
        capsys, "classify", "--input", instance, "--verify-certificate", report_path
    )
    assert code == 0
    assert "no constructive certificate" in out


def _reverify_edited(write, capsys, tmp_path, inst, edit):
    """--verify-certificate on inst's own report after edit(report)."""
    report_path = tmp_path / "report.json"
    instance = write(inst)
    _run(capsys, "classify", "--input", instance, "--report", str(report_path))
    report = edit(json.loads(report_path.read_text()))
    report_path.write_text(json.dumps(report))
    return _run(capsys, "classify", "--input", instance, "--verify-certificate", str(report_path))


def _drop(key):
    def edit(report):
        del report["certificate"][key]
        return report

    return edit


def _set(key, value):
    def edit(report):
        report["certificate"][key] = value
        return report

    return edit


@pytest.mark.parametrize(
    "inst, edit",
    [
        (CUBE, lambda report: [1, 2]),
        (CUBE, lambda report: {**report, "certificate": ["hadamard"]}),
        *[(CUBE, _drop(key)) for key in ("type", "matrix", "digits", "duals")],
        *[(DIAG, _drop(key)) for key in ("type", "alpha", "ell", "phase", "image")],
        (DIAG, _set("ell", 1.5)),
        (DIAG, _set("ell", "one")),
        (DIAG, _set("ell", None)),
        (DIAG, _set("phase", [1])),
        (CUBE, _set("matrix", 5)),
        (CUBE, _set("matrix", [[1, 2], [3, 4]])),
        (CUBE, _set("digits", [["1/2", "0", "0"]] * 6)),
    ],
    ids=[
        "list-report", "list-certificate",
        "hadamard-no-type", "no-matrix", "no-digits", "no-duals",
        "witness-no-type", "no-alpha", "no-ell", "no-phase", "no-image",
        "float-ell", "string-ell", "null-ell", "list-phase",
        "int-matrix", "matrix-dimension", "rational-digits",
    ],
)
def test_malformed_report_exits_1_with_one_line(write, capsys, tmp_path, inst, edit):
    code, _, err = _reverify_edited(write, capsys, tmp_path, inst, edit)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def _singular_matrix(collinear):
    def edit(report):
        cert = report["certificate"]
        cert["matrix"] = [["1", "2", "3"], ["2", "4", "6"], ["0", "0", "1"]]
        if not collinear:
            cert["digits"][1] = ["1", "0", "0"]
        return report

    return edit


@pytest.mark.parametrize("collinear", [True, False], ids=["closed-form", "cyclotomic"])
def test_singular_certificate_matrix_exits_2(write, capsys, tmp_path, collinear):
    code, _, err = _reverify_edited(write, capsys, tmp_path, CUBE, _singular_matrix(collinear))
    assert code == 2
    assert err == "error: matrix is singular\n"


def test_witness_at_any_depth_reverifies_quickly(write, capsys, tmp_path):
    # a witness stays valid at every larger depth; the integrality check
    # powers the matrix modulo the denominator, in about log2(ell) steps
    code, out, _ = _reverify_edited(write, capsys, tmp_path, DIAG, _set("ell", 10**100))
    assert code == 0
    assert "witness certificate re-verified" in out


def test_tampered_witness_at_huge_depth_exits_2(write, capsys, tmp_path):
    def edit(report):
        # the mask still vanishes at this alpha; only integrality fails
        report["certificate"].update(alpha=["1/3", "0", "0"], ell=str(10**100))
        return report

    code, _, err = _reverify_edited(write, capsys, tmp_path, DIAG, edit)
    assert code == 2
    assert "witness certificate failed" in err


def test_large_q_report_reverifies(write, capsys, tmp_path):
    inst = {"matrix": [[10**4]], "v": [1], "q": 200}
    code, out, _ = _run(capsys, "classify", "--input", write(inst), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "spectral"
    code, out, _ = _reverify_edited(write, capsys, tmp_path, inst, lambda report: report)
    assert code == 0
    assert "hadamard certificate re-verified" in out


def _swap_digits(report):
    digits = report["certificate"]["digits"]
    digits[1], digits[2] = digits[2], digits[1]
    return report


def test_report_with_swapped_digits_reverifies(write, capsys, tmp_path):
    # the digit set, not its order, decides unitarity
    inst = {"matrix": [[10**4]], "v": [1], "q": 40}
    code, out, _ = _reverify_edited(write, capsys, tmp_path, inst, _swap_digits)
    assert code == 0
    assert "hadamard certificate re-verified" in out

    def corrupt(report):
        report["certificate"]["duals"][3] = [str(int(report["certificate"]["duals"][3][0]) + 1)]
        return _swap_digits(report)

    code, _, err = _reverify_edited(write, capsys, tmp_path, inst, corrupt)
    assert code == 2
    assert "hadamard certificate failed exact unitarity" in err


def test_cli_import_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, affinespectra.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_witness_certificate_reports_its_verification():
    unchecked = Witness(RatVector([Fraction(1, 2)]), 1, Fraction(1, 2), IntVector([2]))
    assert _certificate_json(WitnessCertificate(unchecked))["reverified"] is False
    unchecked.verified = True
    assert _certificate_json(WitnessCertificate(unchecked))["reverified"] is True


# -- decompose ----------------------------------------------------------------


def test_decompose_block_branch(write, capsys):
    code, out, _ = _run(capsys, "decompose", "--input", write(DIAG), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["branch"] == "block"
    assert obj["r"] == 1
    assert obj["m1"] == [["4"]]
    assert obj["m2"] == [["-2", "0"], ["0", "-2"]]


def test_decompose_companion_branch(write, capsys):
    code, out, _ = _run(capsys, "decompose", "--input", write(CUBE), "--human")
    assert code == 0
    assert "companion branch" in out
    code, out, _ = _run(capsys, "decompose", "--input", write(CUBE), "--json")
    obj = json.loads(out)
    assert obj["branch"] == "companion"
    assert obj["m_tilde"][2] == ["-36", "0", "0"]


# -- thin drivers -------------------------------------------------------------


def test_witness_command(write, capsys):
    code, out, _ = _run(capsys, "witness", "--input", write(CUBE), "--human")
    assert code == 0
    assert "verified: true" in out
    assert "ell: 1" in out


def test_witness_command_gcd_one_exits_2(write, capsys):
    code, _, _ = _run(capsys, "witness", "--input", write({**CUBE, "q": 5}))
    assert code == 2


def test_hadamard_command(write, capsys):
    code, out, _ = _run(capsys, "hadamard", "--input", write(CUBE), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["duals"][1] == ["-6", "0", "0"]


def test_hadamard_not_divisible_exits_2(write, capsys):
    code, _, _ = _run(capsys, "hadamard", "--input", write({**CUBE, "q": 5}))
    assert code == 2


def test_spectrum_lists_known_frequencies(write, capsys):
    code, out, _ = _run(
        capsys, "spectrum", "--input", write(M4), "--depth", "2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    freqs = {Fraction(f[0]) for f in obj["frequencies"]}
    assert freqs == {0, 2, 8, 10}
    assert all(c["j"] is not None for c in obj["certificates_against_zero"])


def test_spectrum_reduced_instance_certifies(write, capsys):
    # q=4 divides det(M1)=4, so the reduced block carries a spectrum
    code, out, _ = _run(
        capsys, "spectrum", "--input", write({**DIAG, "q": 4}), "--depth", "2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 16
    assert all(c["j"] is not None for c in obj["certificates_against_zero"])


def test_spectrum_without_divisibility_exits_2(write, capsys):
    code, _, _ = _run(capsys, "spectrum", "--input", write(DIAG), "--depth", "2")
    assert code == 2


def test_clique_command(write, capsys):
    code, out, _ = _run(
        capsys, "clique", "--input", write(M4), "--box", "10", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["max_clique_size"] == 4
    assert obj["certified"] is True


def test_clique_too_large_exits_2(write, capsys):
    code, _, _ = _run(
        capsys, "clique", "--input", write(CUBE), "--box", "10", "--lattice-den", "10"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["clique", "--box", "-1"],
        ["clique", "--lattice-den", "0"],
        ["classify", "--evidence", "clique", "--lattice-den", "-2"],
        ["spectrum", "--depth", "0"],
        ["classify", "--evidence", "completeness", "--depth", "0"],
        ["sample", "--iters", "-5"],
        ["classify", "--evidence", "completeness", "--tail-eps", "-1"],
        ["classify", "--evidence", "completeness", "--tail-eps", "nan"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_option_outside_its_domain_exits_2_with_one_line(write, capsys, argv):
    code, out, err = _run(capsys, argv[0], "--input", write(M4), *argv[1:])
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["clique", "spectrum"])
def test_search_depth_below_one_exits_2(write, capsys, command):
    # no factor is searched at --jmax 0, so every pair would be reported
    # uncertified: a vacuous result, refused rather than printed
    code, out, err = _run(capsys, command, "--input", write(M4), "--jmax", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: --jmax must be at least 1")


# -- sample CSV ---------------------------------------------------------------


def test_sample_csv_format(write, capsys, tmp_path):
    out_path = tmp_path / "points.csv"
    code, _, _ = _run(
        capsys,
        "sample",
        "--input",
        write({"matrix": [[2]], "v": [1], "q": 2}),
        "--iters",
        "200",
        "--seed",
        "4",
        "--output",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x1"
    assert len(lines) == 201
    values = [float(s) for s in lines[1:]]
    assert all(0.0 <= x <= 1.0 for x in values)


def test_sample_csv_header_3d(write, capsys):
    code, out, _ = _run(
        capsys, "sample", "--input", write(CUBE), "--iters", "10", "--seed", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 11
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_sample_deterministic(write, capsys):
    argv = ["sample", "--input", write(M4), "--iters", "50", "--seed", "9"]
    _, out1, _ = _run(capsys, *argv)
    _, out2, _ = _run(capsys, *argv)
    assert out1 == out2
