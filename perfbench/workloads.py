"""The three workloads: what each round builds, the operations it times, and their checks.

A round is a list of operations made from a seeded random source.  ``call``
does the engine work and is timed; ``check`` runs after the timed phase and
returns None when the output agrees with the oracles, or a message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import oracles as O

EXPECTED_PATH = Path(__file__).with_name("expected.json")


class Op:
    __slots__ = ("kind", "units", "call", "check", "out", "error")

    def __init__(self, kind, call, check, units=1):
        self.kind, self.call, self.check, self.units = kind, call, check, units
        self.out = self.error = None


# -- scan ------------------------------------------------------------------------------

# (key, instance, parameters): the full rings scanned in every round.
SCAN_RINGS = (
    ("S2-7", "slr", (2, 7)),
    ("sl2-8", "sl2", (8,)),
    ("affine-20", "affine", (20,)),
)


def label_key(label) -> tuple:
    """Engine label -> the oracle's tuple of ints."""
    if hasattr(label, "i"):
        return (label.i, label.j)
    if hasattr(label, "lam"):
        return (label.lam,)
    if hasattr(label, "m"):
        return (label.a,)
    return tuple(label.a)


def scan_model(instance: str, params: tuple) -> O.FusionModel:
    if instance == "sl2":
        return O.Sl2Model(*params)
    if instance == "slr":
        return O.AbelianModel(*params, O.slr_weight)
    return O.AffineModel(*params)


def negatives_digest(negatives) -> str:
    """sha256 of the sorted negatives, one "x;x;x;x degree" line each."""
    lines = sorted(";".join(",".join(map(str, x)) for x in sorted(t)) + f" {d}" for t, d in negatives)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def scan_summary(examined, min_degree, negatives) -> dict:
    return {
        "examined": examined,
        "min_degree": str(min_degree),
        "negatives": len(negatives),
        "digest": negatives_digest(negatives),
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


class ScanWorkload:
    name = "scan"
    unit = "multisets"
    with_cli = False

    def build(self, eng) -> dict:
        datums = {}
        for key, instance, params in SCAN_RINGS:
            if instance == "sl2":
                datums[key] = eng.sl2.datum_sl2(*params)
            elif instance == "slr":
                datums[key] = eng.slr.datum_slr(*params)
            else:
                datums[key] = eng.affine.datum_affine_sl2(*params)
        return datums

    def ops(self, eng, datums, rng) -> list:
        expected = load_expected()
        rings = list(SCAN_RINGS)
        rng.shuffle(rings)
        ops = []
        for key, instance, params in rings:
            datum = datums[key]
            check = self._checker(eng, datum, key, instance, params, expected[key], rng.randrange(1 << 30))
            ops.append(
                Op(
                    key,
                    lambda datum=datum: eng.core.scan_f_positivity(datum, datum.labels, jobs=1),
                    check,
                    units=O.multisets_examined(len(datum.labels)),
                )
            )
        return ops

    @staticmethod
    def _checker(eng, datum, key, instance, params, want, sample_seed):
        model = scan_model(instance, params)

        def degree(labels):
            if instance == "sl2":
                if eng.sl2.rank4_closed(labels) == 0:
                    return None
                return O.sl2_closed_degree(eng.sl2, labels)
            xs = [label_key(m) for m in labels]
            return model.degree4(xs) if model.rank(xs) else None

        def check(report):
            negatives = [(tuple(label_key(m) for m in t), d) for t, d in report.counterexamples]
            got = scan_summary(report.tuples_examined, report.min_degree, negatives)
            if report.tuples_examined != O.multisets_examined(len(datum.labels)):
                return f"{key}: examined {report.tuples_examined} != C(N+3,4)"
            if got != {k: want[k] for k in got}:
                return f"{key}: report {got} != expected {want}"
            rng = random.Random(sample_seed)
            for t, d in rng.sample(report.counterexamples, min(40, len(report.counterexamples))):
                if degree(t) != d:
                    return f"{key}: {t} reported degree {d}, oracle {degree(t)}"
            listed = {tuple(sorted(label_key(m) for m in t)) for t, _ in report.counterexamples}
            labels = datum.labels
            for _ in range(200):
                t = [labels[rng.randrange(len(labels))] for _ in range(4)]
                d = degree(t)
                negative = d is not None and d < 0
                if negative != (tuple(sorted(label_key(m) for m in t)) in listed):
                    return f"{key}: multiset {t} of oracle degree {d} misplaced in the report"
                if d is not None and d < report.min_degree:
                    return f"{key}: degree {d} below reported minimum {report.min_degree}"
            return None

        return check


# -- curves ------------------------------------------------------------------------------

# (family, level, n, target) for every divisor of a round; the seed picks the labels.
# "T" and "S1" are the sl2 families M^{2a,a} and M^{k,a}; target "trivial" makes a
# divisor that walks every F-curve, "other" one that usually exits early.
CURVE_SLOTS = (
    [("T", 3 + i % 4, 5 + i % 4, "trivial") for i in range(4)]
    + [("T", 3 + (i + 1) % 4, 5 + i % 4, "other") for i in range(4)]
    + [("S1", 3 + (i + 2) % 4, 5 + i % 4, "trivial") for i in range(4)]
    + [("S1", 3 + (i + 3) % 4, 5 + i % 4, "other") for i in range(4)]
    + [("sl2", 3 + i % 4, 5 + i % 4, "other") for i in range(4)]
    + [("S2", 3 + i % 3, 5 + i % 4, "other") for i in range(4)]
    + [("affine", 4 + i % 4, 5 + i % 4, "other") for i in range(4)]
    + [("cyclic", 4 + i % 4, 5 + i % 4, "other") for i in range(4)]
)
INTERSECTS_PER_DIVISOR = 3


def curve_model(family: str, level: int) -> O.FusionModel:
    if family in ("T", "S1", "sl2"):
        return O.Sl2Model(level)
    if family == "S2":
        return O.AbelianModel(2, level, O.slr_weight)
    if family == "cyclic":
        return O.AbelianModel(1, level, O.cyclic_weight)
    return O.AffineModel(level)


def label_text(family: str, level: int, x: tuple) -> str:
    if family in ("T", "S1", "sl2"):
        return f"M[{x[0]},{x[1]}]@{level}"
    if family == "S2":
        return f"S[{x[0]},{x[1]}]@2,{level}"
    if family == "cyclic":
        return f"Z[{x[0]}]@{level}"
    return f"A[{x[0]}]@{level}"


def _closing(model: O.FusionModel, xs: list, rng) -> tuple:
    """A label x with rank(xs + [x]) > 0: the dual of a channel of the product of xs."""
    return model.dual(rng.choice(sorted(model.fold(xs))))


def _random_label(model: O.FusionModel, family: str, level: int, rng) -> tuple:
    if family in ("T", "S1", "sl2"):
        return rng.choice(model.labels())
    if family == "S2":
        return (rng.randrange(level), rng.randrange(level))
    if family == "cyclic":
        return (rng.randrange(level),)
    return (rng.randrange(level + 1),)


def _draw(rng, count, values, accept, what):
    for _ in range(10_000):
        a = [rng.choice(values) for _ in range(count)]
        if accept(a):
            return a
    raise RuntimeError(f"no {what} found")


def curve_divisor(family, level, n, target, rng) -> tuple:
    """(model labels, family parameters a_i or None) for one divisor slot."""
    model = curve_model(family, level)
    k = level
    if family == "T":
        if target == "trivial":
            a = _draw(rng, n, range(k // 2 + 1), lambda a: sum(a) <= k, "trivial T divisor")
        else:
            a = _draw(rng, n, range(k // 2 + 1), lambda a: not O.t_rule_trivial(k, a), "nontrivial T divisor")
        return [model.canonical(2 * v, v) for v in a], a
    if family == "S1":
        if target == "trivial":
            # residues summing to exactly k are trivial: no four blocks reach 2k
            a = _draw(rng, n, range(k), lambda a: sum(a) == k, "S1 divisor of sum k")
        else:
            a = _draw(rng, n, range(k), lambda a: sum(a) == 2 * k and sum(map(bool, a)) >= 4, "S1 divisor of sum 2k")
        return [model.canonical(k, v) for v in a], a
    xs = [_random_label(model, family, level, rng) for _ in range(n - 1)]
    return xs + [_closing(model, xs, rng)], None


def run_cli(cli, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _frac(value) -> Fraction:
    return Fraction(int(value["num"]), int(value["den"]))


def _result(out):
    code, text = out
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return json.loads(text)["result"]


def parse_class(out):
    result = _result(out)
    boundary = {
        tuple(int(i) for i in key.strip("{}").split(",")): _frac(v) for key, v in result["boundary"].items()
    }
    return result["mu"], [_frac(v) for v in result["psi"]], boundary


def parse_value(out):
    value = _result(out)["value"]
    return _frac(value) if isinstance(value, dict) else value


class CurvesWorkload:
    name = "curves"
    unit = "queries"
    with_cli = True

    def build(self, eng) -> dict:
        for level in sorted({lv for fam, lv, _, _ in CURVE_SLOTS if fam in ("T", "S1", "sl2")}):
            eng.sl2.datum_sl2(level)
        for level in sorted({lv for fam, lv, _, _ in CURVE_SLOTS if fam == "S2"}):
            eng.slr.datum_slr(2, level)
        for level in sorted({lv for fam, lv, _, _ in CURVE_SLOTS if fam == "affine"}):
            eng.affine.datum_affine_sl2(level)
        for level in sorted({lv for fam, lv, _, _ in CURVE_SLOTS if fam == "cyclic"}):
            eng.affine.datum_cyclic(level)
        return {}

    def ops(self, eng, datums, rng) -> list:
        ops = []
        for family, level, n, target in CURVE_SLOTS:
            ops.extend(self._divisor_ops(eng, family, level, n, target, rng))
        return ops

    def _divisor_ops(self, eng, family, level, n, target, rng):
        cli = eng.cli
        model = curve_model(family, level)
        xs, a = curve_divisor(family, level, n, target, rng)
        texts = [label_text(family, level, x) for x in xs]
        oracle_class = model.divisor_class(xs)
        ops = []

        def query(kind, argv, check):
            full = [argv[0], "--format", "json"] + argv[1:]
            ops.append(Op(kind, lambda: run_cli(cli, full), check))

        def check_class(out):
            got = parse_class(out)
            return None if got == oracle_class else f"class of {texts}: {got} != {oracle_class}"

        class_op = len(ops)
        query("class", ["class", *texts], check_class)

        printed_class = []

        def keel(blocks):
            if not printed_class:
                printed_class.append(parse_class(ops[class_op].out))
            _, psi, boundary = printed_class[0]
            return O.keel_intersection(n, psi, boundary, blocks)

        def check_trivial(out):
            got = parse_value(out)
            want = all(keel(blocks) == 0 for blocks in O.all_fcurves(n))
            if family == "T":
                rule = O.t_rule_trivial(level, a)
            elif family == "S1":
                rule = not eng.sl2.nontrivial_S1(level, a)
            else:
                rule = want
            if got == want == rule:
                return None
            return f"trivial {texts}: engine {got}, Keel {want}, family rule {rule}"

        query("trivial", ["trivial", *texts], check_trivial)

        for blocks in rng.sample(O.all_fcurves(n), INTERSECTS_PER_DIVISOR):

            def check_intersect(out, blocks=blocks):
                got = parse_value(out)
                want = keel(blocks)
                if isinstance(model, O.AbelianModel) and model.fcurve(xs, blocks) != want:
                    return f"intersect {texts} {blocks}: Keel {want} != group law {model.fcurve(xs, blocks)}"
                return None if got == want else f"intersect {texts} {O.fcurve_text(blocks)}: {got} != Keel {want}"

            query("intersect", ["intersect", "--fcurve", O.fcurve_text(blocks), *texts], check_intersect)

        four = [_random_label(model, family, level, rng) for _ in range(3)]
        four.append(_closing(model, four, rng))
        degree_texts = [label_text(family, level, x) for x in four]
        ranked = [_random_label(model, family, level, rng) for _ in range(4)]
        rank_texts = [label_text(family, level, x) for x in ranked]

        def four_point(what, labels_text, xs4):
            if family in ("T", "S1", "sl2"):
                labels = [eng.sl2.parse_sl2_label(t) for t in labels_text]
                if what == "rank":
                    return eng.sl2.rank4_closed(labels)
                return O.sl2_closed_degree(eng.sl2, labels) if eng.sl2.rank4_closed(labels) else Fraction(0)
            return model.rank(xs4) if what == "rank" else model.degree4(xs4)

        def check_degree(out):
            got, want = parse_value(out), four_point("degree", degree_texts, four)
            return None if got == want else f"degree {degree_texts}: {got} != {want}"

        def check_rank(out):
            got, want = parse_value(out), four_point("rank", rank_texts, ranked)
            return None if got == want else f"rank {rank_texts}: {got} != {want}"

        query("degree", ["degree", *degree_texts], check_degree)
        query("rank", ["rank", *rank_texts], check_rank)
        return ops


# -- wide ----------------------------------------------------------------------------------

# (r, k, points, random intersections per round, negative witness) on S_r(k).  The
# witness is the all-ones divisor on k points; on S_5(8) it alone would take 3 s.
WIDE_SLR = ((3, 8, 6, 4, True), (4, 6, 6, 4, True), (5, 8, 5, 1, False))
WIDE_SCAN_LEVEL = 30
WIDE_LEVEL = 36
WIDE_QUERIES = 12


class WideWorkload:
    name = "wide"
    unit = "operations"
    with_cli = False

    def build(self, eng) -> dict:
        datums = {(r, k): eng.slr.datum_slr(r, k) for r, k, *_ in WIDE_SLR}
        datums["scan"] = eng.sl2.datum_sl2(WIDE_SCAN_LEVEL)
        datums["sl2"] = eng.sl2.datum_sl2(WIDE_LEVEL)
        eng.affine.datum_affine_sl2(WIDE_LEVEL)
        eng.affine.datum_cyclic(WIDE_LEVEL)
        return datums

    def ops(self, eng, datums, rng) -> list:
        core, sl2, slr, affine = eng.core, eng.sl2, eng.slr, eng.affine
        ops = []
        for r, k, n, count, witness in WIDE_SLR:
            datum = datums[(r, k)]
            model = O.AbelianModel(r, k, O.slr_weight)
            curves = O.all_fcurves(n)
            for _ in range(count):
                xs = [tuple(rng.randrange(k) for _ in range(r)) for _ in range(n - 1)]
                xs.append(model.dual(model.add(*xs)))
                ops.append(self._intersect(core, slr, datum, model, xs, rng.choice(curves)))
            if witness:
                blocks = [[1], [2], list(range(3, k)), [k]]
                expected = slr.negative_witness(r, k, k - 3)
                ops.append(self._intersect(core, slr, datum, model, [(1,) * r] * k, blocks, expected))

        scan_datum = datums["scan"]
        ks = WIDE_SCAN_LEVEL
        for name, family, model, scale in (
            ("scan-T", sl2.subring_T(ks), O.AffineModel(ks), Fraction(1)),
            ("scan-S1", sl2.subring_S1(ks), O.AbelianModel(1, ks, O.cyclic_weight), Fraction(2)),
        ):
            # T maps to the even affine weights 2a, S1 to Z/k at twice the cyclic degree
            to_model = (lambda m: (2 * m.j,)) if name == "scan-T" else (lambda m: (m.j,))
            want = model.scan([to_model(m) for m in family], scale)

            def check_scan(report, want=want, to_model=to_model, name=name):
                negatives = sorted((tuple(sorted(to_model(m) for m in t)), d) for t, d in report.counterexamples)
                got = (report.tuples_examined, report.min_degree, negatives)
                return None if got == want else f"{name}: {got[:2]} != {want[:2]}"

            ops.append(Op(name, lambda family=family: core.scan_f_positivity(scan_datum, family, jobs=1), check_scan))
        ops.append(
            Op(
                "validate",
                lambda: scan_datum.validate(check_rank3_symmetry=False),
                lambda out: None if out is None else f"validate returned {out}",
            )
        )

        datum = datums["sl2"]
        kl = WIDE_LEVEL
        model = O.Sl2Model(kl)
        threshold = model.lambda_threshold()
        for family in (sl2.subring_T(kl), sl2.subring_S1(kl)):
            ops.append(
                Op(
                    "lambda",
                    lambda family=family: core.lambda_threshold(datum, family),
                    lambda out: None if out == threshold else f"lambda {out} != {threshold}",
                )
            )
        for pairing, eta in ((affine.pairing_T_to_affine, Fraction(1)), (affine.pairing_S1_to_cyclic, Fraction(1, 2))):

            def check_pairing(report, eta=eta):
                ok = report.is_fusion_injection and report.eta == eta and report.failure_witness is None
                return None if ok else f"pairing {report} (want eta {eta})"

            ops.append(Op("pairing", lambda pairing=pairing: affine.verify_pairing(*pairing(kl)), check_pairing))

        by_key = {label_key(m): m for m in datum.labels}
        labels = model.labels()
        for _ in range(WIDE_QUERIES):
            xs = [rng.choice(labels) for _ in range(3)]
            xs.append(_closing(model, xs, rng))
            mods = [by_key[x] for x in xs]
            want = O.sl2_closed_degree(sl2, mods)
            ops.append(
                Op(
                    "degree",
                    lambda mods=mods: core.degree_04(datum, mods),
                    lambda out, want=want, mods=mods: None if out == want else f"degree {mods}: {out} != {want}",
                )
            )
        for q in range(WIDE_QUERIES):
            n = 4 + q % 3
            mods = [by_key[rng.choice(labels)] for _ in range(n - 1)]
            mods.append(by_key[_closing(model, [label_key(m) for m in mods], rng)])
            want = sl2.rank4_closed(mods) if n == 4 else model.rank([label_key(m) for m in mods])
            ops.append(
                Op(
                    "rank",
                    lambda mods=mods: core.rank_n(datum, mods),
                    lambda out, want=want, mods=mods: None if out == want else f"rank {mods}: {out} != {want}",
                )
            )
        return ops

    @staticmethod
    def _intersect(core, slr, datum, model, xs, blocks, witness=None):
        n = len(xs)
        mods = [slr.TupleLabel(model.k, x) for x in xs]
        curve = core.FCurve.from_blocks(blocks, n)
        want = model.fcurve(xs, blocks)

        def check(out):
            if witness is not None and want != witness:
                return f"group law {want} != negative_witness {witness}"
            return None if out == want else f"intersect {xs} on {curve}: {out} != {want}"

        return Op("intersect", lambda: core.fcurve_intersect(datum, mods, curve), check)


WORKLOADS = {w.name: w for w in (ScanWorkload(), CurvesWorkload(), WideWorkload())}
