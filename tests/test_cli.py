import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affinespectra import cli
from affinespectra.classify import WitnessCertificate, leading_triple
from affinespectra.cli import _certificate_json, load_instance, main
from affinespectra.fourier import Witness, certify_orthogonal
from affinespectra.linalg import IntVector, RatVector

from oracles import oracle_spectrum

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


@pytest.mark.parametrize("argv, what", [
    (("classify", "--report"), "report"),
    (("sample", "--iters", "20", "--output"), "output"),
], ids=["classify --report", "sample --output"])
def test_unwritable_output_file_exits_1_with_one_line(write, capsys, tmp_path, argv, what):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = _run(capsys, argv[0], "--input", write(M4), *argv[1:], str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {what} {path}: ") and err.count("\n") == 1
    assert not path.parent.exists()


def test_unwritable_sample_output_exits_1_before_sampling(write, capsys, monkeypatch, tmp_path):
    # 5000000 iterations would take about a second; none may run
    monkeypatch.setattr(cli, "chaos_game", lambda *a: pytest.fail("sampled before opening --output"))
    path = tmp_path / "missing" / "pts.csv"
    code, out, err = _run(capsys, "sample", "--input", write(M4), "--iters", "5000000", "--output", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write output {path}: ") and err.count("\n") == 1


def test_refused_sample_keeps_the_output_file_bytes(write, capsys, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"x1\n0.5\n")
    code, out, err = _run(capsys, "sample", "--input", write(M4), "--iters", "5592406", "--output", str(path))
    assert (code, out) == (2, "") and "over the cap" in err
    assert path.read_bytes() == b"x1\n0.5\n"
    # a sample that is drawn replaces them
    code, _, _ = _run(capsys, "sample", "--input", write(M4), "--iters", "3", "--output", str(path))
    assert code == 0 and path.read_text().splitlines()[0] == "x1" and len(path.read_text().splitlines()) == 4


def test_closed_stdout_exits_1_with_one_line(write):
    # the reader of a 200,000-line CSV stops after one line, like `| head -1`
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "affinespectra.cli", "sample", "--input", write(M4), "--iters", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"x1\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err.startswith("error: cannot write standard output: ") and err.count("\n") == 1, err


def test_string_integers_accepted(write, capsys):
    inst = {"matrix": [["4"]], "v": ["1"], "q": "2"}
    code, out, _ = _run(capsys, "classify", "--input", write(inst), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "spectral"


def test_signed_string_integers_accepted(write, capsys):
    # a leading sign is part of the syntax: "+4" is 4 and "-0" is 0
    code, out, _ = _run(capsys, "decompose", "--input", write({"matrix": [["+4", "-0"], ["-0", "5"]],
                                                              "v": ["+1", "-0"], "q": "+2"}), "--json")
    assert code == 0
    assert json.loads(out) == json.loads(_run(capsys, "decompose", "--input", write(
        {"matrix": [[4, 0], [0, 5]], "v": [1, 0], "q": 2}), "--json")[1])


@pytest.mark.parametrize("entry", ["1_000", " 7 ", "7\n", "٣", "+-7", ""],
                         ids=["underscore", "spaces", "newline", "arabic-indic digit", "two signs", "empty"])
def test_int_syntax_past_ascii_digits_exits_1(write, capsys, entry):
    # int() takes the first four, but only ASCII digits with one optional
    # sign are an integer here
    code, out, err = _run(capsys, "classify", "--input", write({**M4, "matrix": [[entry]]}))
    assert (code, out) == (1, "")
    assert err == f"error: expected an integer, got {entry!r}\n"


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


@pytest.mark.parametrize("extra", [["--json"], ["--report", "never.json"], ["--evidence", "clique"]],
                         ids=lambda extra: extra[0])
def test_verify_certificate_refuses_what_it_would_drop(write, capsys, tmp_path, monkeypatch, extra):
    # it prints its status line only: no JSON, no report file, no evidence
    monkeypatch.chdir(tmp_path)
    report_path = str(tmp_path / "report.json")
    instance = write(CUBE)
    _run(capsys, "classify", "--input", instance, "--report", report_path)
    code, out, err = _run(capsys, "classify", "--input", instance, "--verify-certificate", report_path, *extra)
    assert (code, out) == (2, "")
    assert err == ("error: --verify-certificate reads only --input and the report file: "
                   "it takes no --json, --report or --evidence\n")
    assert not (tmp_path / "never.json").exists()


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
    assert err == "error: report field certificate.duals[1][0] does not match the instance\n"


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
    ],
    ids=[
        "list-report", "list-certificate",
        "hadamard-no-type", "no-matrix", "no-digits", "no-duals",
        "witness-no-type", "no-alpha", "no-ell", "no-phase", "no-image",
        "float-ell", "string-ell", "null-ell", "list-phase",
        "int-matrix",
    ],
)
def test_malformed_report_exits_1_with_one_line(write, capsys, tmp_path, inst, edit):
    code, _, err = _reverify_edited(write, capsys, tmp_path, inst, edit)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set("matrix", [[1, 2], [3, 4]]), "certificate.matrix has length 2, not 3"),
        (_set("digits", [["1/2", "0", "0"]] * 6), "certificate.digits[0][0] does not match the instance"),
    ],
    ids=["matrix-dimension", "rational-digits"],
)
def test_report_of_another_size_or_value_exits_2_with_one_line(write, capsys, tmp_path, edit, field):
    # well-formed JSON of the report's shape that is not the cube's report:
    # a list of another length is compared before its entries
    code, _, err = _reverify_edited(write, capsys, tmp_path, CUBE, edit)
    assert (code, err) == (2, f"error: report field {field}\n")


def _singular_matrix(collinear):
    def edit(report):
        cert = report["certificate"]
        cert["matrix"] = [["1", "2", "3"], ["2", "4", "6"], ["0", "0", "1"]]
        if not collinear:
            cert["digits"][1] = ["1", "0", "0"]
        return report

    return edit


@pytest.mark.parametrize("collinear", [True, False], ids=["closed-form", "not-a-progression"])
def test_singular_certificate_matrix_exits_2(write, capsys, tmp_path, collinear):
    # the first field in sorted key order that differs from the rebuilt
    # report is named: digits come before matrix
    code, _, err = _reverify_edited(write, capsys, tmp_path, CUBE, _singular_matrix(collinear))
    field = "matrix[0][0]" if collinear else "digits[1][0]"
    assert (code, err) == (2, f"error: report field certificate.{field} does not match the instance\n")


def test_tampered_witness_at_huge_depth_exits_2(write, capsys, tmp_path):
    def edit(report):
        # the mask still vanishes at this alpha; only integrality fails
        report["certificate"].update(alpha=["1/3", "0", "0"], ell=10**100)
        return report

    start = time.perf_counter()
    code, _, err = _reverify_edited(write, capsys, tmp_path, DIAG, edit)
    assert time.perf_counter() - start < 5
    assert (code, err) == (2, "error: report field certificate.alpha[0] does not match the instance\n")
    # a depth written as a decimal string is a field of another JSON type
    code, _, err = _reverify_edited(write, capsys, tmp_path, DIAG, _set("ell", str(10**100)))
    assert (code, err) == (1, "error: report field certificate.ell is missing or not of its JSON type\n")


def test_large_q_report_reverifies(write, capsys, tmp_path):
    inst = {"matrix": [[10**4]], "v": [1], "q": 200}
    code, out, _ = _run(capsys, "classify", "--input", write(inst), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "spectral"
    code, out, _ = _reverify_edited(write, capsys, tmp_path, inst, lambda report: report)
    assert code == 0
    assert "hadamard certificate re-verified" in out

    def off_progression(report):
        digits = report["certificate"]["digits"]
        digits[1] = [str(int(digits[1][0]) + 1000)]
        return report

    # digits that are not consecutive multiples of one vector are refused
    # in one pass, not decided in time that grows with q
    start = time.perf_counter()
    inst = {"matrix": [[10**6]], "v": [1], "q": 1000}
    code, _, err = _reverify_edited(write, capsys, tmp_path, inst, off_progression)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def _swap_digits(report):
    digits = report["certificate"]["digits"]
    digits[1], digits[2] = digits[2], digits[1]
    return report


def test_report_with_swapped_digits_reverifies(write, capsys, tmp_path):
    # the report as written re-verifies; the same digits in another order
    # are a mathematically valid certificate, but not the report classify
    # writes for this instance
    inst = {"matrix": [[10**4]], "v": [1], "q": 40}
    code, out, _ = _reverify_edited(write, capsys, tmp_path, inst, lambda report: report)
    assert (code, out) == (0, "hadamard certificate re-verified\n")
    code, _, err = _reverify_edited(write, capsys, tmp_path, inst, _swap_digits)
    assert (code, err) == (2, "error: report field certificate.digits[1][0] does not match the instance\n")

    def corrupt(report):
        report["certificate"]["duals"][3] = [str(int(report["certificate"]["duals"][3][0]) + 1)]
        return _swap_digits(report)

    code, _, err = _reverify_edited(write, capsys, tmp_path, inst, corrupt)
    assert (code, err) == (2, "error: report field certificate.digits[1][0] does not match the instance\n")


@pytest.mark.parametrize("kind", ["permute", "digit", "dual", "duplicate", "swap"])
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_hadamard_report_exits_0_or_2_with_one_line(write, capsys, tmp_path, kind, data):
    # one edit of a Hadamard report: exit 0 exactly when the edited
    # certificate is still the one classify writes for the instance
    q = data.draw(st.integers(2, 40))
    inst = data.draw(st.sampled_from([CUBE, {"matrix": [[q * data.draw(st.sampled_from([-2, -1, 1, 2]))]],
                                             "v": [1], "q": q}]))
    i, j = data.draw(st.lists(st.integers(0, inst["q"] - 1), min_size=2, max_size=2, unique=True))
    perm = data.draw(st.permutations(range(inst["q"])))
    vec = data.draw(st.lists(st.integers(-3, 3).map(str), min_size=len(inst["v"]), max_size=len(inst["v"])))
    original = []

    def edit(report):
        original.append(json.loads(json.dumps(report["certificate"])))
        cert = report["certificate"]
        digits, duals = cert["digits"], cert["duals"]
        if kind == "permute":
            cert["digits"] = [digits[k] for k in perm]
        elif kind in ("digit", "dual"):
            (digits if kind == "digit" else duals)[i] = vec
        elif kind == "duplicate":
            digits[i] = digits[j]
        else:
            duals[i], duals[j] = duals[j], duals[i]
        return report

    code, out, err = _reverify_edited(write, capsys, tmp_path, inst, edit)
    cert = json.loads((tmp_path / "report.json").read_text())["certificate"]
    assert code == (0 if cert == original[0] else 2), kind
    assert len((out + err).splitlines()) == 1 and "Traceback" not in err


def _bump_image_zero_phase(report):
    cert = report["certificate"]
    cert["image"] = [str(int(x) + 1) for x in cert["image"]]
    cert["phase"] = "0"
    return report


@pytest.mark.parametrize(
    "written, checked, edit, field",
    [
        ({"matrix": [[6]], "v": [1], "q": 6}, CUBE, lambda report: report,
         "certificate.digits[0] has length 1, not 3"),
        ({"matrix": [[6]], "v": [1], "q": 4}, None, _bump_image_zero_phase,
         "certificate.image[0] does not match the instance"),
        ({"matrix": [[3]], "v": [1], "q": 2}, None, lambda report: {**report, "verdict": "spectral"},
         "verdict does not match the instance"),
    ],
    ids=["cross-instance-certificate", "witness-image-phase", "verdict-switch"],
)
def test_report_not_rebuilt_for_the_instance_exits_2(write, capsys, tmp_path, written, checked, edit, field):
    # a valid certificate of another instance, a witness whose image and
    # phase are not its own, and a verdict the instance does not have
    report_path = tmp_path / "report.json"
    _run(capsys, "classify", "--input", write(written, "written.json"), "--report", str(report_path))
    report_path.write_text(json.dumps(edit(json.loads(report_path.read_text()))))
    instance = write(checked or written, "checked.json")
    code, out, err = _run(capsys, "classify", "--input", instance, "--verify-certificate", str(report_path))
    assert (code, out, err) == (2, "", f"error: report field {field}\n")


_IGNORED = ("evidence", "timings_ms")  # report keys no instance determines
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["0", "1", "-6", "1/2", "spectral", "witness", "hadamard"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "r", "x"]), inner, max_size=2),
    max_leaves=4,
)


def _nearby(old):
    """Values near old: of its JSON type, or of another type that Python
    compares equal to it (True == 1 == 1.0)."""
    if isinstance(old, bool) or old is None:
        return st.sampled_from([True, False, None, 0])
    if isinstance(old, (int, float)):
        return st.sampled_from([old, old + 1, 1 - old, True, float(old)])
    return st.sampled_from([old, old + "0", "0", "1", old.upper()])


def _fields(obj, path=()):
    """Every node below obj by its path, grouped by the path without list
    indices, so that verdict weighs as much as all digits together."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    groups = {}
    for key, value in items:
        sub = path + (key,)
        groups.setdefault(tuple(k for k in sub if isinstance(k, str)), []).append((sub, value))
        for field, nodes in _fields(value, sub).items():
            groups.setdefault(field, []).extend(nodes)
    return groups


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


_EDITABLE = {
    "delete": lambda path, value: isinstance(path[-1], str),
    "swap": lambda path, value: isinstance(value, list) and len(value) > 1,
    "replace": lambda path, value: not isinstance(value, (dict, list)),
}


@pytest.mark.parametrize(
    "inst",
    [CUBE, DIAG, {"matrix": [[3]], "v": [1], "q": 2}, {**DIAG, "q": 4}],
    ids=["cube hadamard", "reduced witness", "condition-only", "reduced hadamard with block"],
)
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_report_mutation_exits_0_1_or_2_with_one_line(write, capsys, tmp_path, inst, data):
    # one edit anywhere in a report: a deleted key or a value of another
    # JSON type exits 1, any other difference exits 2, and an unchanged
    # report, or an edit under a key no instance determines, exits 0
    instance = write(inst)
    code, out, _ = _run(capsys, "classify", "--input", instance, "--json")
    assert code == 0
    report = json.loads(out)
    # the fields each kind of edit can reach, by the field's name
    reach = {kind: {f: [n for n in nodes if ok(*n)] for f, nodes in _fields(report).items()}
             for kind, ok in _EDITABLE.items()}
    reach = {kind: {f: nodes for f, nodes in fields.items() if nodes} for kind, fields in reach.items()}
    kind = data.draw(st.sampled_from(["none"] + [k for k in _EDITABLE if reach[k]]))
    path, expected = None, 0
    if kind != "none":
        field = data.draw(st.sampled_from(sorted(reach[kind])))
        path, old = data.draw(st.sampled_from(reach[kind][field]))
    if kind == "delete":
        del _at(report, path[:-1])[path[-1]]
        expected = 1
    elif kind == "swap":
        i, j = data.draw(st.lists(st.integers(0, len(old) - 1), min_size=2, max_size=2, unique=True))
        old[i], old[j] = old[j], old[i]
        expected = 0 if old[i] == old[j] else 2
    elif kind == "replace":
        new = data.draw(_JSON_VALUES | _nearby(old))
        _at(report, path[:-1])[path[-1]] = new
        expected = 1 if type(new) is not type(old) else 0 if new == old else 2
    if path and path[0] in _IGNORED:
        expected = 0
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    code, out, err = _run(capsys, "classify", "--input", instance, "--verify-certificate", str(report_path))
    assert code == expected, (kind, path)
    assert len((out + err).splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: report field ") if code else err == ""


@pytest.mark.parametrize("as_report", [False, True], ids=["instance", "report"])
def test_json_nested_past_the_recursion_limit_exits_1(write, capsys, tmp_path, as_report):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    argv = ["--input", write(M4), "--verify-certificate", str(deep)] if as_report else ["--input", str(deep)]
    code, out, err = _run(capsys, "classify", *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: invalid JSON in ")


@pytest.mark.parametrize("entry", ["7" * 5000, "7" * 5000 + "x", list(range(3000))],
                         ids=["past the digit limit", "long string", "long list"])
def test_a_long_bad_entry_gives_one_short_line(write, capsys, entry):
    # a 5000-digit string is past the interpreter's digit limit; any other
    # bad entry is named by a 40-character prefix of its repr and its length
    code, out, err = _run(capsys, "classify", "--input", write({**M4, "matrix": [[entry]]}))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and len(err.encode()) < 200
    shown = repr(entry)
    if entry == "7" * 5000:
        assert err == f"error: expected an integer, got a string of more than {sys.get_int_max_str_digits()} digits\n"
    else:
        assert err == f"error: expected an integer, got {shown[:40]}... ({len(shown)} characters)\n"


def test_integer_literal_past_the_digit_limit_exits_1(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"matrix": [[' + "7" * 5000 + ']], "v": [1], "q": 2}')
    code, out, err = _run(capsys, "classify", "--input", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: invalid JSON in instance file")


@pytest.mark.parametrize("argv", [["classify", "--json"], ["spectrum", "--depth", "1"]], ids=lambda a: a[0])
def test_result_past_the_digit_limit_exits_2(write, capsys, argv):
    # each entry has 2200 digits, under the limit; det m1 has 4400
    inst = {"matrix": [["7" * 2200, "1"], ["0", "7" * 2200]], "v": ["0", "1"], "q": 7}
    code, out, err = _run(capsys, argv[0], "--input", write(inst), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: a result has an integer of more than {sys.get_int_max_str_digits()} decimal digits\n"


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


# the n=16 r=9 pure p(0)=6 q=4 instance of the dim-sweep benchmark (seed
# 42): its b^-1 has entries of 234 bits, and its decompose and classify
# reports, less timings_ms, are pinned in tests/data
DIM16 = {
    "matrix": [
        [20777133, 583646377, -2007839560, 556476165, -1372293531, -3172286, 386473099, 222720335, 552403979, 635303003, 897147406, -290982881, 800554502, 717471275, -2616857316, -21227831],
        [-645375984, -1489653872, 532653297, -1904460480, 814284903, -555876489, 187092642, -799071513, 625418868, 467712278, 984842742, -489932181, -466864871, -2191428641, -1119343500, 421888196],
        [-313111354, -810327428, 578950141, -1004946786, 611553885, -267224539, 28393378, -421133978, 210780509, 122275838, 328512554, -188688097, -353731961, -1166826432, -115689856, 206277200],
        [-332642215, -307189639, -1459086145, -547580757, -738553176, -307664687, 435111610, -233042752, 821292161, 806554802, 1332090070, -535762324, 445071638, -606193091, -2915052589, 220521210],
        [83178624, 234884298, -233695176, 286309103, -214626721, 69033305, 8371207, 119525183, -33319029, -6457540, -47520660, 35178006, 125167683, 330505742, -79619545, -53406421],
        [152408336, 232264342, 319426256, 337208351, 105054130, 136008341, -130481432, 141530781, -276081247, -255467417, -443815788, 187837960, -66366139, 382889431, 864418083, -100150044],
        [241832284, 176395679, 1224579250, 355677445, 648926646, 223522436, -347666689, 151140232, -644985894, -639955798, -1042720472, 412343599, -389286441, 383931183, 2334911562, -157903746],
        [437754645, 624546091, 1075824912, 931805671, 413579880, 392388183, -408096314, 395026047, -838144643, -786266470, -1344445316, 559722414, -251853508, 1035866896, 2685649816, -284161809],
        [-1135921824, -818389583, -5796697602, -1669349010, -3093480139, -1053155680, 1649604972, -722960509, 3039181569, 3021548119, 4904566944, -1929782867, 1840100968, -1745538164, -10997591619, 734310341],
        [16380229, -295579815, 1221916620, -257332610, 819088925, 26686171, -249763520, -99063171, -371055709, -416053343, -597143389, 198418638, -474897348, -357632622, 1666870520, -3039193],
        [467728141, 359467069, 2294136398, 708622086, 1211482662, 431162771, -659858575, 304706179, -1225337705, -1213673573, -1974842528, 778701369, -722083297, 747159044, 4403324784, -301700812],
        [996767238, 1321600815, 2829956050, 2026080007, 1194167943, 898216641, -1003079415, 859044410, -2018127960, -1914409341, -3244058923, 1338564697, -724258829, 2248902266, 6631682900, -648670448],
        [1070020194, 1504318695, 2753316872, 2250370963, 1084288679, 966421769, -1023062239, 954575873, -2083002828, -1962503418, -3358336236, 1402543101, -662755998, 2523372325, 6752285134, -703156799],
        [-139010812, -180940924, -414535973, -278418660, -178453998, -126595698, 144161231, -118402356, 286869140, 273522186, 463948543, -192171955, 108430747, -311896538, -954795215, 91855946],
        [157666898, 326478663, 16701066, 429920791, -100615675, 138537817, -75299036, 181825722, -194657127, -162373427, -310912699, 144303272, 56718595, 490949926, 471656252, -103664594],
        [20670832, 54263137, -34155868, 65916777, -39373818, 18639594, -2859561, 27505138, -14934556, -9496874, -26088368, 15751133, 21972990, 81253151, 17102784, -15087719],
    ],
    "v": [-2130, -13212, -5487, -7160, 2024, 3341, 6649, 10523, -29508, 2727, 12672, 24189, 23328, -2891, 2967, 75],
    "q": 4,
}


@pytest.mark.parametrize("command", ["decompose", "classify"])
def test_16_dimensional_reports_are_pinned(write, capsys, command):
    code, out, _ = _run(capsys, command, "--input", write(DIM16), "--json")
    assert code == 0
    out = re.sub(r'  "timings_ms": \{\n(?:    .*\n)*  \},\n', "", out)
    assert out == (Path(__file__).parent / "data" / f"dim16_{command}.json").read_text()


# every subcommand in human and --json mode on CUBE (full rank) and DIAG
# (rank-deficient): argv, with the instance's name for its file, mapped to
# stdout less timings_ms and the exit code
CLI_OUTPUTS = json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text())


@pytest.mark.parametrize("argv", sorted(CLI_OUTPUTS))
def test_subcommand_outputs_are_pinned(write, capsys, argv):
    instances = {"CUBE": CUBE, "DIAG": DIAG}
    real = [write(instances[a], a) if a in instances else a for a in argv.split()]
    code, out, _ = _run(capsys, *real)
    out = re.sub(r'  "timings_ms": \{\n(?:    .*\n)*  \},\n', "", out)
    assert {"exit_code": code, "stdout": out} == CLI_OUTPUTS[argv]


@pytest.mark.parametrize("argv", [["classify"], ["spectrum", "--depth", "2"]], ids=lambda a: a[0])
def test_human_mode_makes_no_json_text(write, capsys, monkeypatch, argv):
    key = " ".join([argv[0], "--input", "CUBE", *argv[1:]])
    path = write(CUBE)  # before the patch: json is one module, shared with write
    monkeypatch.setattr(cli.json, "dumps", lambda *a, **k: pytest.fail("JSON text made in human mode"))
    code, out, _ = _run(capsys, argv[0], "--input", path, *argv[1:])
    assert {"exit_code": code, "stdout": out} == CLI_OUTPUTS[key]


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


def _oracle_spectrum_json(inst, depth, jmax):
    """spectrum --json as the per-frequency loop made it: the spectrum of
    the rational oracle, a reduced one padded and carried by b^T, and one
    certify_orthogonal of 0 against each nonzero frequency."""
    freqs = oracle_spectrum(inst, leading_triple(inst), depth)
    zero = RatVector([0] * inst.m.n)
    certificates = []
    for idx, lam in enumerate(freqs):
        if lam.is_zero():
            continue
        cert = certify_orthogonal(inst, zero, lam, jmax)
        certificates.append({"frequency_index": idx, "j": None if cert is None else cert.j,
                             "phase": None if cert is None else str(cert.phase)})
    obj = {"depth": depth, "count": len(freqs), "frequencies": [[str(x) for x in f] for f in freqs],
           "certificates_against_zero": certificates}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("jmax", [None, 1, 4])
@pytest.mark.parametrize(
    "inst, depth",
    [(CUBE, 2), ({**DIAG, "q": 4}, 2), ({"matrix": [[6, 1], [0, 5]], "v": [2, 0], "q": 3}, 3)],
    ids=["cube, full rank", "reduced rank 1", "reduced rank 1, over 2"],
)
def test_spectrum_json_matches_the_per_frequency_loop(write, capsys, inst, depth, jmax):
    path = write(inst)
    argv = ["spectrum", "--input", path, "--depth", str(depth), "--json"]
    code, out, _ = _run(capsys, *argv, *([] if jmax is None else ["--jmax", str(jmax)]))
    assert code == 0
    assert out == _oracle_spectrum_json(load_instance(path), depth, jmax)


def test_spectrum_certifies_in_one_lockstep_call(write, capsys, monkeypatch):
    calls = []

    def spy(inst, points, den, j_max):
        calls.append(len(points))
        return real(inst, points, den, j_max)

    real = cli._vanishing_factors
    monkeypatch.setattr(cli, "_vanishing_factors", spy)
    code, out, _ = _run(capsys, "spectrum", "--input", write(CUBE), "--depth", "2", "--json")
    assert code == 0 and calls == [35]
    assert len(json.loads(out)["certificates_against_zero"]) == 35


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


def test_clique_beyond_its_node_budget_exits_2(write, capsys):
    # 3375 points, under the candidate cap; without the budget the search
    # did not end in 90 s, and it takes a few seconds to reach the budget
    start = time.perf_counter()
    code, out, err = _run(capsys, "clique", "--input", write(CUBE), "--box", "7")
    assert time.perf_counter() - start < 30.0
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: clique search stopped at its budget of 3145728 vertex colorings;")
    assert lines[0].endswith("the largest orthogonal set through 0 found has 91 points")


def test_spectrum_beyond_the_cap_exits_2_quickly(write, capsys):
    # classify is cheap at any q, so the 10^18 sums are refused up front
    inst = {"matrix": [[10**6]], "v": [1], "q": 10**6}
    start = time.perf_counter()
    code, out, err = _run(capsys, "spectrum", "--input", write(inst), "--depth", "3")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "1000000^3" in lines[0] and "65536" in lines[0]


# the 14-dimensional q = 8 instance of the dim-sweep benchmark (seed 42),
# about 400 mu_hat factors at each of its 5120 (probe, frequency) pairs
DIM14 = {
    "matrix": [
        [-286498, 357531, -307364, -523156, 348924, -286905, -599302, -481164, -110947, -711100, -417038, -173776, -1988278, 686327],
        [43390, -11202, 4530, 34261, -46945, 38477, 59892, 44283, 13004, 46644, 27068, -1297, 175559, -40353],
        [-279835, 289829, -242551, -446868, 334007, -274882, -543460, -424452, -101053, -609616, -357204, -136171, -1773952, 577814],
        [273321, -401313, 352583, 548340, -349479, 288018, 614616, 492917, 119284, 760601, 450568, 206485, 2069622, -712378],
        [272496, -281310, 235179, 434147, -325306, 267521, 528450, 413895, 99104, 592389, 347315, 131090, 1723663, -561107],
        [507534, -650375, 561083, 953299, -614948, 505739, 1074347, 865339, 191511, 1285933, 751329, 319285, 3576126, -1261085],
        [265833, -288627, 243243, 432813, -322939, 265407, 525260, 413510, 103007, 596881, 352115, 135549, 1718956, -555514],
        [-6722, 27472, -26024, -23400, 16235, -13532, -27356, -21497, -10403, -41669, -27393, -16452, -98872, 24080],
        [-102858, 123247, -105030, -199012, 114778, -93905, -212391, -174242, -28151, -252171, -142738, -58828, -705809, 276475],
        [205919, -140214, 106952, 260418, -231164, 189842, 348134, 264536, 61473, 346820, 200079, 54425, 1097158, -335265],
        [81040, -115855, 101239, 165702, -99327, 81603, 180139, 147320, 31544, 222625, 130022, 58019, 605635, -221195],
        [35867, -11994, 6553, 31304, -38916, 32140, 51595, 37024, 10002, 42381, 24359, 1790, 154444, -37802],
        [-134709, 158225, -134902, -236518, 162250, -133401, -274882, -218998, -50138, -320546, -187572, -76102, -907442, 310031],
        [106662, -123065, 104812, 182006, -130120, 107083, 216229, 169416, 40500, 249964, 147066, 60321, 712936, -235324],
    ],
    "v": [282, -26, 215, -240, -218, -522, -217, -9, 147, -145, -97, -12, 126, -82],
    "q": 8,
}


@pytest.mark.parametrize(
    "inst",
    [{"matrix": [[-36]], "v": [1], "q": 36}, DIM14],
    ids=["[[-36]] q=36", "14-D q=8"],
)
def test_completeness_beyond_its_budget_exits_2_quickly(write, capsys, inst):
    # each of these ran for over half a minute before the budget existed
    start = time.perf_counter()
    code, out, err = _run(capsys, "classify", "--input", write(inst),
                          "--evidence", "completeness", "--depth", "3")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: completeness evidence needs about")
    assert "over the cap of 33554432" in lines[0]


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
        ["classify", "--box", "-1", "--box", "3"],
        # malformed command lines, refused by the parser
        ["classify", "--bogus"],
        ["classify", "--depth", "x"],
        ["classify", "--tail-eps", "x"],
        ["classify", "--json", "--human"],
        ["spectrum", "--tail-eps", "1e-3"],
        # these go without the --input the test adds after a subcommand
        ["classify", "NO-INPUT"],
        ["bogus", "NO-INPUT"],
        ["NO-INPUT"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_option_outside_its_domain_exits_2_with_one_line(write, capsys, argv):
    if argv[-1] == "NO-INPUT":
        argv = argv[:-1]
    else:
        argv = [argv[0], "--input", write(M4), *argv[1:]]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "usage:" not in err


@pytest.mark.parametrize("command", ["clique", "spectrum"])
def test_search_depth_below_one_exits_2(write, capsys, command):
    # no factor is searched at --jmax 0, so every pair would be reported
    # uncertified: a vacuous result, refused rather than printed
    code, out, err = _run(capsys, command, "--input", write(M4), "--jmax", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: --jmax must be at least 1")


# M^-j = 2^-j [[1, -j 10^60 / 2], [0, 1]]: its row norms first fall below
# 1 at j = 207, and C = max(1, s) is about 10^60, so the level where the
# decay bound provably holds is far past the deepest the probe cap allows
SHEAR = {"matrix": [[2, str(10 ** 60)], [0, 2]], "v": [0, 1], "q": 2}


@pytest.mark.parametrize(
    "inst, argv",
    [
        (SHEAR, ["clique", "--lattice-den", "2", "--box", "3"]),
        (SHEAR, ["classify", "--evidence", "clique"]),
        (SHEAR, ["spectrum"]),
    ],
    ids=["clique", "classify --evidence clique", "spectrum"],
)
def test_search_depth_beyond_its_budget_exits_2_quickly(write, capsys, inst, argv):
    # the probe vectors up to the level the search can reach, min(--jmax,
    # J) for the decay bound's level J, are cached, about n j^2 log2(d) / 2
    # bits: --jmax 32000 peaked at 393 MB at n = 1 before the budget existed
    start = time.perf_counter()
    code, out, err = _run(capsys, argv[0], "--input", write(inst), *argv[1:], "--jmax", "1000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: certificates up to j_max = 1000000 need about")
    assert "over the cap of 268435456" in lines[0]


@pytest.mark.parametrize("inst, argv", [
    (CUBE, ["clique", "--box", "2"]),
    ({"matrix": [[45]], "v": [1], "q": 2}, ["clique", "--lattice-den", "2", "--box", "3"]),
    (M4, ["spectrum"]),
], ids=["cube box 2", "[[45]] box 3", "spectrum"])
def test_jmax_past_the_old_price_searches_to_the_decay_bound(write, capsys, inst, argv):
    # --jmax 9000 was priced as 9000 levels of probes (729,000,000 bits on
    # the cube fixture) and refused; every difference meets its decay bound
    # within a few dozen levels, so the output is that of --jmax 5000
    path = write(inst)
    results = [_run(capsys, argv[0], "--input", path, *argv[1:], "--jmax", str(j_max))
               for j_max in (5000, 9000, 1000000)]
    assert results[0][0] == 0 and results[0][2] == ""
    assert results[1] == results[0] and results[2] == results[0]
    if argv == ["clique", "--box", "2"]:
        assert "max clique size: 19\n" in results[0][1]


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


def test_sample_past_its_cap_exits_2_before_drawing(write, capsys, monkeypatch):
    # 1-D: iterations x (1 + 5) floats; 5592405 is the last under 2^25
    monkeypatch.setattr(random.Random, "getrandbits", lambda *a: pytest.fail("digits drawn"))
    code, out, err = _run(capsys, "sample", "--input", write(M4), "--iters", "5592406")
    assert (code, out) == (2, "")
    assert err == ("error: 5592406 chaos game iterations in dimension 1 need about 268435488 bytes, "
                   "over the cap of 268435456\n")


def test_sample_deterministic(write, capsys):
    argv = ["sample", "--input", write(M4), "--iters", "50", "--seed", "9"]
    _, out1, _ = _run(capsys, *argv)
    _, out2, _ = _run(capsys, *argv)
    assert out1 == out2
