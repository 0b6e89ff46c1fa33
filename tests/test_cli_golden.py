"""Golden CLI outputs: every verb in every format replays byte for byte.

``cli_golden.json`` holds, for each call in CASES, the exit code and the
stdout of ``cli.main``, with the run-dependent ``elapsed_ms`` field taken out
of JSON output.  An intended change of output is recorded again with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from fusion_positivity.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("table", "json", "csv")

# instance: (context flags, four labels, five labels)
INSTANCES = {
    "sl2": (
        ["--algebra", "sl2", "--level", "3"],
        ["M[1,0]@3", "M[1,0]@3", "M[2,0]@3", "M[2,0]@3"],
        ["M[2,1]@3"] * 5,
    ),
    "slr": (
        ["--algebra", "slr", "--rank", "2", "--level", "3"],
        ["S[1,1]@2,3", "S[1,1]@2,3", "S[2,1]@2,3", "S[2,0]@2,3"],
        ["S[1,1]@2,3"] * 4 + ["S[2,2]@2,3"],
    ),
    "affine": (
        ["--algebra", "affine", "--level", "2"],
        ["A[1]@2"] * 4,
        ["A[1]@2"] * 4 + ["A[2]@2"],
    ),
    "cyclic": (
        ["--algebra", "cyclic", "--level", "3"],
        ["Z[1]@3", "Z[1]@3", "Z[2]@3", "Z[2]@3"],
        ["Z[1]@3"] * 3 + ["Z[2]@3", "Z[0]@3"],
    ),
}
SUBRING_CALLS = [
    ["--algebra", "sl2", "--level", "3", "--subring", "full"],
    ["--algebra", "sl2", "--level", "3", "--subring", "T"],
    ["--algebra", "sl2", "--level", "4", "--subring", "S1"],
    ["--algebra", "slr", "--rank", "2", "--level", "3"],
    ["--algebra", "affine", "--level", "4"],
    ["--algebra", "cyclic", "--level", "5"],
]


def _cases():
    cases = []
    for fmt in FORMATS:
        for flags, four, five in INSTANCES.values():
            context = [] if fmt == "json" else flags
            for verb, modules in (
                ("cw", four[1:]),
                ("fuse", four[1:3]),
                ("rank", four),
                ("degree", four),
                ("class", five),
                ("trivial", four),
            ):
                cases.append([verb, "--format", fmt] + context + modules)
            cases.append(["intersect", "--format", fmt, "--fcurve", "{1,2}|{3}|{4}|{5}"] + context + five)
        for call in SUBRING_CALLS:
            cases.append(["scan", "--format", fmt, "--jobs", "1"] + call)
            cases.append(["certificate", "--format", fmt] + call)
            cases.append(["lambda", "--format", fmt] + call)
        for which, level in (("T-affine", "4"), ("S1-cyclic", "4"), ("T-affine", "1")):
            cases.append(["pairing", which, "--level", level, "--format", fmt])
        for suite in (["pairings", "--max-level", "4"], ["certificates"], ["symmetric-tables"]):
            cases.append(["verify"] + suite + ["--format", fmt])
    cases += [
        ["cw", "M[2,1]@3", "S[3,1]@2,5"],
        ["cw", "Z[1]@3", "Z[1]@4"],
        ["cw", "M[9,0]@3"],
        ["cw", "X[1]@2"],
        ["degree", "M[1,0]@3", "M[1,0]@3"],
        ["degree", "--algebra", "slr", "M[1,0]@3", "M[1,0]@3", "M[2,0]@3", "M[2,0]@3"],
        ["rank", "--level", "4", "M[1,0]@3", "M[1,0]@3"],
        ["rank", "--rank", "3", "S[1,1]@2,3", "S[2,2]@2,3"],
        ["intersect", "--fcurve", "{1,2}|{3}", "M[2,1]@3", "M[2,1]@3", "M[2,1]@3", "M[2,1]@3", "M[2,1]@3"],
        ["scan", "--algebra", "slr", "--level", "3"],
    ]
    return cases


CASES = _cases()


def run(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, re.sub(r', "elapsed_ms": [^,}]+', "", buffer.getvalue())


def test_golden_outputs():
    recorded = json.loads(GOLDEN.read_text())
    assert [case["argv"] for case in recorded] == CASES
    mismatches = []
    for case in recorded:
        code, out = run(case["argv"])
        if (code, out) != (case["code"], case["stdout"]):
            mismatches.append((case["argv"], case["code"], code, case["stdout"], out))
    assert not mismatches, f"{len(mismatches)} calls differ, first: {mismatches[0]}"


if __name__ == "__main__":
    entries = []
    for argv in CASES:
        code, out = run(argv)
        entries.append({"argv": argv, "code": code, "stdout": out})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
