"""Tests of the benchmark: the oracles agree with the engine and reject wrong answers,
and each workload runs a short prefix of its inputs end to end.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fusion_positivity as fp  # noqa: E402
import oracles as O  # noqa: E402
import regen  # noqa: E402
import run as bench  # noqa: E402
import workloads as W  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _sl2_key(m):
    return (m.i, m.j)


CASES = [
    ("sl2-3", fp.datum_sl2(3), O.Sl2Model(3), _sl2_key),
    ("sl2-4", fp.datum_sl2(4), O.Sl2Model(4), _sl2_key),
    ("S2-4", fp.datum_slr(2, 4), O.AbelianModel(2, 4, O.slr_weight), lambda m: m.a),
    ("affine-6", fp.datum_affine_sl2(6), O.AffineModel(6), lambda m: (m.lam,)),
    ("cyclic-5", fp.datum_cyclic(5), O.AbelianModel(1, 5, O.cyclic_weight), lambda m: (m.a,)),
]


@pytest.mark.parametrize("name, datum, model, key", CASES, ids=[c[0] for c in CASES])
def test_models_agree_with_engine(name, datum, model, key):
    rng = random.Random(name)
    for _ in range(60):
        n = rng.choice((4, 5, 6))
        ms = [rng.choice(datum.labels) for _ in range(n - 1)]
        ms.append(datum.labels[0])
        xs = [key(m) for m in ms]
        # close the divisor half of the time so that nonzero ranks are common
        if rng.random() < 0.5:
            closing = W._closing(model, xs[:-1], rng)
            ms[-1] = next(m for m in datum.labels if key(m) == closing)
            xs[-1] = closing
        assert model.rank(xs) == fp.rank_n(datum, ms)
        if n == 4:
            assert model.degree4(xs) == fp.degree_04(datum, ms)
        engine = fp.divisor_class(datum, ms)
        assert model.divisor_class(xs) == (engine.mu, list(engine.psi_coeffs), dict(engine.boundary_coeffs))
        for blocks in rng.sample(O.all_fcurves(n), min(4, len(O.all_fcurves(n)))):
            value = fp.fcurve_intersect(datum, ms, fp.FCurve.from_blocks(blocks, n))
            assert O.keel_intersection(n, list(engine.psi_coeffs), engine.boundary_coeffs, blocks) == value
            if isinstance(model, O.AbelianModel):
                assert model.fcurve(xs, blocks) == value


def test_group_law_follows_the_channel_convention_on_s3():
    datum, model = fp.datum_slr(3, 4), O.AbelianModel(3, 4, O.slr_weight)
    rng = random.Random(3)
    for _ in range(80):
        n = rng.choice((5, 6))
        ms = [rng.choice(datum.labels) for _ in range(n)]
        blocks = rng.choice(O.all_fcurves(n))
        got = fp.fcurve_intersect(datum, ms, fp.FCurve.from_blocks(blocks, n))
        assert model.fcurve([m.a for m in ms], blocks) == got


def test_keel_and_factorization_disagree_on_s3():
    """The r >= 3 weight table is not dual-symmetric, so no class matches its F-curve numbers."""
    datum = fp.datum_slr(3, 3)
    ms = [datum.unit] * 3 + [fp.parse_slr_label("S[1,1,1]@3,3"), fp.parse_slr_label("S[2,2,2]@3,3")]
    blocks = [[2], [3], [5], [1, 4]]
    cls = fp.divisor_class(datum, ms)
    assert O.keel_intersection(5, list(cls.psi_coeffs), cls.boundary_coeffs, blocks) == 2
    assert fp.fcurve_intersect(datum, ms, fp.FCurve.from_blocks(blocks, 5)) == 0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_all_fcurves_is_the_set_of_four_block_partitions(n):
    stirling = sum((-1) ** (4 - j) * comb(4, j) * j**n for j in range(5)) // 24
    ours = O.all_fcurves(n)
    assert len(ours) == len(set(ours)) == stirling
    assert set(ours) == {O.canonical_blocks(p) for p in fp.four_block_partitions(n)}


@pytest.mark.parametrize("name, datum, model, key", CASES[1:4], ids=[c[0] for c in CASES[1:4]])
def test_model_scans_match_engine_scans(name, datum, model, key):
    report = fp.scan_f_positivity(datum, datum.labels)
    negatives = sorted((tuple(sorted(key(m) for m in t)), d) for t, d in report.counterexamples)
    examined, min_degree, want = model.scan([key(m) for m in datum.labels])
    assert (examined, min_degree, want) == (report.tuples_examined, report.min_degree, negatives)
    assert examined == O.multisets_examined(len(datum.labels))


def test_closed_forms_match_engine_degrees():
    for k in (3, 4, 5):
        datum = fp.datum_sl2(k)
        for tup in combinations_with_replacement(datum.labels, 4):
            if fp.rank4_closed(tup):
                assert O.sl2_closed_degree(fp.parafermion_sl2, tup) == fp.degree_04(datum, tup)


def test_lambda_oracle_and_t_rule_match_engine():
    for k in range(1, 9):
        datum = fp.datum_sl2(k)
        want = O.Sl2Model(k).lambda_threshold()
        assert want == fp.lambda_threshold(datum, fp.subring_T(k)) == fp.lambda_threshold(datum, fp.subring_S1(k))
    for k in (3, 4):
        datum = fp.datum_sl2(k)
        for a in combinations_with_replacement(range(k // 2 + 1), 5):
            ms = [fp.canonicalize(k, 2 * x, x) for x in a]
            assert O.t_rule_trivial(k, a) == fp.is_trivial(datum, ms)


def test_stored_scan_summaries_match_the_oracles():
    assert regen.expected() == W.load_expected()


# -- the checks reject perturbed outputs -----------------------------------------------------


def _perturb(op):
    """A wrong version of an operation's output, of the same type."""
    out = op.out
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):  # CLI (code, text)
        payload = json.loads(out[1])
        result = payload["result"]
        if "psi" in result:
            result["psi"][0] = {"num": str(int(result["psi"][0]["num"]) + 1), "den": result["psi"][0]["den"]}
        elif isinstance(result["value"], bool):
            result["value"] = not result["value"]
        elif isinstance(result["value"], dict):
            result["value"]["num"] = str(int(result["value"]["num"]) + int(result["value"]["den"]))
        else:
            result["value"] += 1
        return out[0], json.dumps(payload)
    if hasattr(out, "tuples_examined"):  # a ScanReport of the freshly imported engine
        if out.counterexamples:
            return dataclasses.replace(out, counterexamples=out.counterexamples[1:])
        return dataclasses.replace(out, tuples_examined=out.tuples_examined + 1)
    if hasattr(out, "is_fusion_injection"):
        return dataclasses.replace(out, eta=out.eta * 2)
    if out is None:
        return "not validated"
    return out + 1


@pytest.mark.parametrize("name", ["scan", "curves", "wide"])
def test_every_check_rejects_a_perturbed_output(name):
    workload = W.WORKLOADS[name]
    eng, datums, _ = bench.set_up(workload, None)
    ops = workload.ops(eng, datums, random.Random(f"{name}:test"))
    kinds = set()
    for op in ops:
        op.out = op.call()
        assert op.check(op.out) is None, op.kind
        good = op.out
        op.out = _perturb(op)
        assert op.check(op.out) is not None, op.kind
        op.out = good
        kinds.add(op.kind)
    assert len(kinds) >= 3


def test_scan_check_rejects_a_wrong_degree_in_the_report():
    workload = W.WORKLOADS["scan"]
    eng, datums, _ = bench.set_up(workload, None)
    datum = eng.sl2.datum_sl2(4)
    report = eng.core.scan_f_positivity(datum, datum.labels)
    model = O.Sl2Model(4)
    want = W.scan_summary(*model.scan(model.labels()))
    check = W.ScanWorkload._checker(eng, datum, "sl2-4", "sl2", (4,), want, 0)
    assert check(report) is None
    (first, degree), *rest = report.counterexamples
    wrong = dataclasses.replace(report, counterexamples=((first, degree - 1), *rest))
    assert check(wrong) is not None


# -- runs ------------------------------------------------------------------------------------


@pytest.mark.parametrize("name, prefix", [("scan", 1), ("curves", 28), ("wide", 12)])
def test_smoke_run(name, prefix):
    outcome = bench.run(name, seed=7, seconds=0, trace=False, max_ops=prefix)
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == prefix
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name, prefix", [("curves", 14), ("wide", 6)])
def test_traced_counts_repeat(name, prefix):
    first = bench.run(name, seed=3, seconds=0, trace=True, max_ops=prefix)["result"]
    second = bench.run(name, seed=3, seconds=0, trace=True, max_ops=prefix)["result"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for key, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert metric["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["fusion_core.datum_build.calls"]["value"] > 0


def test_table_entries_count_whoever_fills_them():
    eng = bench.Engine(with_cli=False)
    tracer = bench.Tracer()
    tracer.install(eng.modules())
    tracer.enabled = True
    lazy, eager = eng.sl2.datum_sl2(3), eng.sl2.datum_sl2(3)
    pairs = list(combinations_with_replacement(lazy.labels, 2))
    for a, b in pairs:
        lazy.fuse(a, b)
    # an eager fill, as a compiled datum would make, calls the rule outside fuse
    for a, b in pairs:
        eager._fuse_fn(a, b)
    tracer.enabled = False
    assert tracer.counts["fusion_core.fuse.distinct_pairs"] == 2 * len(pairs)


class _Faulty:
    name, unit, with_cli = "faulty", "ops", False

    def build(self, eng):
        return {}

    def ops(self, eng, datums, rng):
        return [
            W.Op("raises", lambda: 1 // 0, lambda out: None),
            W.Op("right", lambda: 2, lambda out: None if out == 2 else "wrong"),
        ]


class _Wrong(_Faulty):
    def ops(self, eng, datums, rng):
        return [W.Op("wrong", lambda: 3, lambda out: None if out == 2 else "wrong")]


def test_failed_and_wrong_operations_are_accounted(monkeypatch):
    monkeypatch.setitem(W.WORKLOADS, "faulty", _Faulty())
    monkeypatch.setitem(W.WORKLOADS, "wrong", _Wrong())
    result = bench.run("faulty", seed=1, seconds=0, trace=False, max_ops=2)["result"]
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 1)
    result = bench.run("wrong", seed=1, seconds=0, trace=False, max_ops=1)["result"]
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 0)


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_the_engine(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
