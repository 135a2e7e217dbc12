"""Compare every CLI output of this tree with that of a parent tree.

    python3 tools/identity.py --parent DIR [--expect-changed FILE]
                              [--alarm SECONDS] [--only PATTERN]

This tree and the parent run the same list of command lines, each tree in its own child
process that imports its own ``src/affinespectra`` and calls ``cli.main``
once per command line, under a per-run alarm.  A run is its exit code, its
standard output and error, and the files it writes (``--report`` and
``sample --output``), with ``timings_ms`` removed from every JSON object.
The instances are the CI fixtures (cube, one6, two, x3-80, q1000, x64),
the 16-dimensional instance behind ``tests/data/dim16_*.json`` and every
instance of the benchmark workloads at seeds 1 and 42; the command lines
are every subcommand in both output modes, ``classify --report`` and the
``--verify-certificate`` of that report, both evidence kinds, ``sample``
to standard output and to a file, and, on the fixtures, option values in
and out of their domains.

The tool prints the runs counted by exit code and the first differences,
and exits 1 if a run differs that --expect-changed does not list.  That
file holds one pattern a line (``#`` starts a comment), matched with
fnmatch against a run's name, ``<instance>: <command line>``, as the
differences print it.  The --parent tree is typically a ``git archive`` of
the parent commit.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
N64 = 64
SHOWN = 10  # differences printed of each kind

# the instance files the CI workflow writes, by name
FIXTURES = {
    "cube": {"matrix": [[2, 6, 4], [-1, 2, 2], [-1, -1, -4]], "v": [0, 0, 1], "q": 6},
    "one6": {"matrix": [[6]], "v": [1], "q": 6},
    "two": {"matrix": [[2]], "v": [1], "q": 2},
    "x3-80": {"matrix": [[0, 0, 80], [1, 0, 0], [0, 1, 0]], "v": [1, 0, 0], "q": 40},
    "q1000": {"matrix": [[1000000]], "v": [1], "q": 1000},
    "x64": {"matrix": [[int(j == i + 1) for j in range(N64)] for i in range(N64 - 1)]
            + [[6 * 10**2000] + [0] * (N64 - 1)], "v": [0] * (N64 - 1) + [1], "q": 6},
}

# every instance: each subcommand in both output modes, the report and its
# verification, both evidence kinds at depth 1 and box 1, and a sample
EVERY = [
    ["classify"], ["classify", "--json"],
    ["classify", "--report", "report.json"],
    ["classify", "--verify-certificate", "report.json"],
    ["classify", "--evidence", "clique", "--box", "1"],
    ["classify", "--evidence", "clique", "--box", "1", "--json"],
    ["classify", "--evidence", "completeness", "--depth", "1"],
    ["classify", "--evidence", "completeness", "--depth", "1", "--json"],
    ["decompose"], ["decompose", "--json"],
    ["witness"], ["witness", "--json"],
    ["hadamard"], ["hadamard", "--json"],
    ["spectrum", "--depth", "1"], ["spectrum", "--depth", "1", "--json"],
    ["clique", "--box", "1"], ["clique", "--box", "1", "--json"],
    ["sample", "--iters", "300", "--seed", "1"],
    ["sample", "--iters", "300", "--seed", "2", "--output", "points.csv"],
]

# the fixtures and the 16-D instance also: option values in and out of
# their domains, the defaults, and options given where they are not read
OPTIONS = [
    ["classify", "--evidence", "completeness"],
    ["classify", "--evidence", "completeness", "--depth", "2", "--tail-eps", "1e-3", "--json"],
    ["classify", "--evidence", "completeness", "--depth", "0"],
    ["classify", "--evidence", "completeness", "--tail-eps", "nan"],
    ["classify", "--evidence", "completeness", "--tail-eps", "0"],
    ["classify", "--evidence", "clique", "--box", "2", "--lattice-den", "2", "--jmax", "5", "--json"],
    ["classify", "--evidence", "clique", "--box", "-1"],
    ["classify", "--evidence", "clique", "--lattice-den", "0"],
    ["classify", "--evidence", "clique", "--box", "1", "--jmax", "0"],
    ["classify", "--depth", "2"],
    ["classify", "--box", "3"],
    ["classify", "--tail-eps", "0.5"],
    ["classify", "--jmax", "4"],
    ["classify", "--evidence", "clique", "--box", "1", "--depth", "1"],
    ["classify", "--verify-certificate", "report.json", "--depth", "2"],
    ["classify", "--verify-certificate", "report.json", "--json"],
    ["classify", "--verify-certificate", "missing.json"],
    ["classify", "--bogus"],
    ["spectrum", "--depth", "2", "--jmax", "3", "--json"],
    ["spectrum", "--depth", "0"],
    ["spectrum", "--tail-eps", "1e-3"],
    ["clique", "--box", "0"],
    ["clique", "--box", "2", "--lattice-den", "2", "--json"],
    ["clique", "--box", "-1"],
    ["sample", "--iters", "0"],
    ["sample", "--iters", "-1"],
    ["sample", "--iters", "5592406"],
    ["sample", "--iters", "10", "--output", "missing/points.csv"],
    ["hadamard", "--json", "--human"],
]


def _dim16() -> dict:
    """The DIM16 instance of tests/test_cli.py, read from its source."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["DIM16"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_cli.py defines no DIM16")


def _workload_instances() -> dict:
    """{name: instance} for the distinct instances of every benchmark
    workload at seeds 1 and 42."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    seen, out = set(), {}
    for name in workloads.WORKLOADS:
        for seed in (1, 42):
            for case in workloads.build(name, seed).cases():
                key = (case.matrix, case.v, case.q)
                if key not in seen:
                    seen.add(key)
                    out[f"{name}-{seed}-{len(out)}"] = {"matrix": [list(r) for r in case.matrix],
                                                       "v": list(case.v), "q": case.q}
    return out


def _runs(instance_dir: Path) -> list:
    """[(name, argv)], each argv with its --input."""
    fixtures = {**FIXTURES, "dim16": _dim16()}
    instances = {**fixtures, **_workload_instances()}
    runs = []
    for label, inst in instances.items():
        path = instance_dir / f"{label}.json"
        path.write_text(json.dumps(inst))
        for argv in EVERY + (OPTIONS if label in fixtures else []):
            argv = [argv[0], "--input", str(path), *argv[1:]]
            runs.append((f"{label}: {' '.join(argv).replace(str(path), '{input}')}", argv))
    return runs


def _without_timings(text: str) -> str:
    """text, or the JSON object it holds with its timings_ms removed."""
    try:
        obj = json.loads(text)
    except ValueError:
        return text
    if isinstance(obj, dict) and "timings_ms" in obj:
        del obj["timings_ms"]
        return json.dumps(obj, indent=2) + "\n"
    return text


class _Alarm(BaseException):
    """A run past its alarm; not an Exception, so no handler takes it."""


def _child(tree: str, runs_path: str, out_path: str, alarm: float):
    """Run every command line of runs_path with tree's cli.main, from an
    empty working directory, and write one JSON result a line."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from affinespectra import cli

    def ring(signum, frame):
        raise _Alarm()

    signal.signal(signal.SIGALRM, ring)
    real = sys.stdout, sys.stderr
    label = None
    with open(runs_path) as fh, open(out_path, "w") as out, tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        for name, argv in json.load(fh):
            if name.split(":")[0] != label:  # each instance starts with no file
                label = name.split(":")[0]
                for f in os.listdir("."):
                    os.remove(f)
            before = {f: os.stat(f).st_mtime_ns for f in os.listdir(".")}
            sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, alarm)
            try:
                code = cli.main(argv)
            except _Alarm:
                code = f"alarm after {alarm} s"
            except Exception as e:  # a traceback in a real process
                code = f"{type(e).__name__}: {e}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                stdout, stderr = sys.stdout.getvalue(), sys.stderr.getvalue()
                sys.stdout, sys.stderr = real
            # the files this run wrote, or wrote again
            files = {f: _without_timings(Path(f).read_text()) for f in sorted(os.listdir("."))
                     if before.get(f) != os.stat(f).st_mtime_ns}
            out.write(json.dumps({"name": name, "code": code, "stdout": _without_timings(stdout),
                                  "stderr": stderr, "files": files}) + "\n")
            out.flush()
        os.chdir(tree)


def _run_tree(tree: Path, runs_path: Path, out_path: Path, alarm: float) -> list:
    if not (tree / "src" / "affinespectra" / "cli.py").is_file():
        raise SystemExit(f"{tree} has no src/affinespectra/cli.py")
    subprocess.run([sys.executable, __file__, "--child", str(tree), str(runs_path), str(out_path),
                    str(alarm)], check=True)
    with open(out_path) as fh:
        return [json.loads(line) for line in fh]


def _first_difference(a: dict, b: dict) -> str:
    for key in ("code", "stdout", "stderr", "files"):
        if a[key] != b[key]:
            x, y = json.dumps(a[key])[:160], json.dumps(b[key])[:160]
            return f"{key}: parent {x} | tree {y}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the tree to compare with")
    parser.add_argument("--expect-changed", type=Path,
                        help="patterns of the run names whose output may differ")
    parser.add_argument("--alarm", type=float, default=600.0, help="seconds allowed to one run")
    parser.add_argument("--only", default="*", help="run only the runs whose name matches this pattern")
    args = parser.parse_args(argv)
    patterns = []
    if args.expect_changed:
        lines = args.expect_changed.read_text().splitlines()
        patterns = [p.split("#")[0].strip() for p in lines if p.split("#")[0].strip()]
    with tempfile.TemporaryDirectory(prefix="identity-") as work:
        work = Path(work)
        (work / "instances").mkdir()
        runs = [run for run in _runs(work / "instances") if fnmatch.fnmatchcase(run[0], args.only)]
        (work / "runs.json").write_text(json.dumps(runs))
        print(f"{len(runs)} runs a tree", flush=True)
        parent = _run_tree(args.parent.resolve(), work / "runs.json", work / "parent.jsonl", args.alarm)
        tree = _run_tree(ROOT, work / "runs.json", work / "tree.jsonl", args.alarm)
    for label, results in (("parent", parent), ("tree", tree)):
        counts = Counter(str(r["code"]) for r in results)
        print(f"{label}: " + ", ".join(f"exit {c}: {k}" for c, k in sorted(counts.items())))
    differ = [(a, b) for a, b in zip(parent, tree) if a != b]
    expected = [(a, b) for a, b in differ if any(fnmatch.fnmatchcase(a["name"], p) for p in patterns)]
    unexpected = [(a, b) for a, b in differ if (a, b) not in expected]
    print(f"{len(differ)} runs differ: {len(expected)} expected, {len(unexpected)} not")
    for title, pairs in (("unexpected", unexpected), ("expected", expected)):
        for a, b in pairs[:SHOWN]:
            print(f"  {title}: {a['name']}\n    {_first_difference(a, b)}")
    unused = [p for p in patterns if not any(fnmatch.fnmatchcase(a["name"], p) for a, _ in expected)]
    for p in unused:
        print(f"  pattern matched no difference: {p}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2], sys.argv[3], sys.argv[4], float(sys.argv[5]))
    else:
        sys.exit(main())
