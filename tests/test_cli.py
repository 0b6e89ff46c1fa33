"""CLI behaviour: parsing, dispatch, output formats, exit codes."""

import json

import pytest

import fusion_positivity as fp
from fusion_positivity.cli import main, parse_label


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_degree_example(capsys):
    code, out, _ = run_cli(
        capsys, "degree", "--algebra", "sl2", "--level", "3",
        "M[1,0]@3", "M[1,0]@3", "M[2,0]@3", "M[2,0]@3",
    )
    assert code == 0
    assert out.strip() == "-1"


def test_scan_negative_exit_code(capsys):
    code, out, _ = run_cli(capsys, "scan", "--algebra", "sl2", "--level", "3", "--subring", "full")
    assert code == 1
    negatives = [line for line in out.splitlines() if line.startswith("NEGATIVE")]
    assert len(negatives) == 3
    assert all("degree -1" in line for line in negatives)


def test_scan_clean_exit_code(capsys):
    code, out, _ = run_cli(capsys, "scan", "--algebra", "slr", "--rank", "2", "--level", "4")
    assert code == 0
    assert "min degree 0" in out


def test_scan_subring_T(capsys):
    code, out, _ = run_cli(capsys, "scan", "--algebra", "sl2", "--level", "3", "--subring", "T")
    assert code == 0


def test_rank_and_intersect(capsys):
    code, out, _ = run_cli(capsys, "rank", "M[1,0]@3", "M[1,0]@3", "M[2,0]@3", "M[2,0]@3")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(
        capsys, "intersect", "--fcurve", "{1,2}|{3}|{4}|{5}",
        "M[2,1]@3", "M[2,1]@3", "M[2,1]@3", "M[2,1]@3", "M[2,1]@3",
    )
    assert code == 0 and out.strip() == "2"


def test_trivial_verb(capsys):
    code, out, _ = run_cli(capsys, "trivial", "M[2,1]@4", "M[2,1]@4", "M[2,1]@4", "M[2,1]@4")
    assert code == 0 and out.strip() == "True"


def test_fuse_and_cw(capsys):
    code, out, _ = run_cli(capsys, "fuse", "M[1,0]@3", "M[1,0]@3")
    assert code == 0
    assert "M[2,0]@3" in out and "M[3,2]@3" in out
    code, out, _ = run_cli(capsys, "cw", "M[2,1]@3", "S[3,1]@2,5", "A[2]@2", "Z[1]@3")
    assert code == 2  # mixed algebras
    code, out, _ = run_cli(capsys, "cw", "M[2,1]@3")
    assert code == 0 and out.strip().endswith("2/5")


def test_fuse_needs_exactly_two_modules(capsys):
    code, out, err = run_cli(capsys, "fuse", "M[1,0]@3")
    assert (code, out) == (2, "")
    assert err.strip() == "error: need exactly 2 modules, got 1"
    code, out, err = run_cli(capsys, "fuse", "M[1,0]@3", "M[1,0]@3", "M[2,0]@3")
    assert (code, out) == (2, "")
    assert err.strip() == "error: need exactly 2 modules, got 3"


def test_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "degree", "--format", "json",
        "M[1,0]@3", "M[1,0]@3", "M[2,0]@3", "M[2,0]@3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "degree"
    assert payload["result"]["value"] == {"num": "-1", "den": "1"}
    assert "elapsed_ms" in payload
    assert payload["inputs"]["modules"] == ["M[1,0]@3", "M[1,0]@3", "M[2,0]@3", "M[2,0]@3"]


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "class", "--format", "csv", "M[2,1]@2", "M[2,1]@2", "M[2,1]@2", "M[2,1]@2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,key,value"
    assert any(line.startswith("psi,1,1/2") for line in lines)


def test_certificate_verb(capsys):
    code, out, _ = run_cli(capsys, "certificate", "--algebra", "slr", "--rank", "2", "--level", "5")
    assert code == 0
    assert "f_min 4/5" in out and "f_max 8/5" in out
    code, out, _ = run_cli(capsys, "certificate", "--algebra", "sl2", "--level", "3", "--subring", "T")
    assert code == 0
    assert "abelian False" in out


def test_lambda_verb(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--algebra", "sl2", "--level", "2", "--subring", "T")
    assert code == 0 and out.strip() == "23/4"


def test_pairing_verb(capsys):
    code, out, _ = run_cli(capsys, "pairing", "T-affine", "--level", "4")
    assert code == 0 and "eta 1" in out
    code, out, _ = run_cli(capsys, "pairing", "S1-cyclic", "--level", "4")
    assert code == 0 and "eta 1/2" in out


def test_verify_pairings(capsys):
    code, out, _ = run_cli(capsys, "verify", "pairings", "--max-level", "6")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_verify_nontriviality_reports_known_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "nontriviality")
    assert code == 1  # the bare sum criterion is refuted by rank-vanishing tuples
    lines = out.strip().splitlines()
    assert any(line.startswith("FAIL nontrivial-T.as-stated") for line in lines)
    assert any(line.startswith("PASS nontrivial-T.rank-aware") for line in lines)
    assert any(line.startswith("PASS nontrivial-S1") for line in lines)


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "no-such-suite"])
    assert err.value.code == 2


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "degree", "M[1,0]@3", "M[1,0]@3")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "cw", "M[9,0]@3")
    assert code == 2
    code, _, err = run_cli(capsys, "degree", "--algebra", "slr", "M[1,0]@3", "M[1,0]@3", "M[2,0]@3", "M[2,0]@3")
    assert code == 2  # labels do not match the declared algebra


def test_scan_jobs_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "scan", "--algebra", "slr", "--rank", "2", "--level", "3", "--jobs", "1")
    code2, out2, _ = run_cli(capsys, "scan", "--algebra", "slr", "--rank", "2", "--level", "3", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_parse_label_dispatch():
    assert parse_label("M[2,1]@3") == fp.canonicalize(3, 2, 1)
    assert parse_label("S[3,1]@2,5") == fp.make_label(2, 5, (3, 1))
    assert parse_label("A[2]@4") == fp.AffineSl2Label(4, 2)
    assert parse_label("Z[2]@5") == fp.CyclicLabel(5, 2)
    with pytest.raises(fp.LabelDomainError):
        parse_label("X[1]@2")


def test_scan_subring_refused_without_that_subring(capsys):
    code, out, err = run_cli(capsys, "scan", "--algebra", "affine", "--level", "6", "--subring", "T")
    assert code == 2 and out == ""
    assert "--algebra affine has no subring T; it has full" in err
    code, out, err = run_cli(capsys, "scan", "--algebra", "slr", "--rank", "2", "--level", "3", "--subring", "S1")
    assert code == 2 and "no subring S1" in err


def test_lambda_subring_refused_without_that_subring(capsys):
    code, out, err = run_cli(capsys, "lambda", "--algebra", "cyclic", "--level", "4", "--subring", "S1")
    assert code == 2 and out == ""
    assert "--algebra cyclic has no subring S1; it has full" in err
    code, out, _ = run_cli(capsys, "lambda", "--algebra", "cyclic", "--level", "4", "--subring", "full")
    assert code == 0 and out.strip() == "9/2"


@pytest.mark.parametrize("level", ["0", "-3"])
def test_verify_max_level_below_one_exits_2(capsys, level):
    for suite in ("s2-fpositive", "pairings", "certificates"):
        code, out, err = run_cli(capsys, "verify", suite, "--max-level", level)
        assert (code, out) == (2, "")
        assert err.strip() == f"error: max_level must be at least 1, got {level}"


def test_rank_refused_off_slr(capsys):
    code, out, err = run_cli(capsys, "scan", "--algebra", "affine", "--level", "2", "--rank", "9", "--format", "json")
    assert (code, out) == (2, "")
    assert err.strip() == "error: --algebra affine takes no --rank"
    code, out, err = run_cli(capsys, "cw", "--rank", "3", "M[1,0]@3")
    assert (code, out) == (2, "")
    assert err.strip() == "error: --algebra sl2 takes no --rank"
    code, out, _ = run_cli(capsys, "cw", "--rank", "2", "S[1,0]@2,3")
    assert code == 0 and out.strip() == "S[1,0]@2,3 2/3"
