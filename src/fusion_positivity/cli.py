"""Command-line front end.

Verbs: cw, fuse, rank, degree, class, intersect, trivial, scan, certificate,
lambda, pairing, verify.  Labels are written M[i,j]@k (sl2 parafermion),
S[a1,...,ar]@r,k (residue tuple), A[lam]@k (affine sl2), Z[a]@m (cyclic).
Exit codes: 0 computed / all checks passed, 1 a positivity or verification
check found a counterexample, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv as _csv
import json
import sys
import time
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction
from types import ModuleType
from typing import Any, List, NamedTuple, Sequence, Tuple

from .errors import ArityError, FusionError, LabelDomainError
from .fusion_core import (
    FCurve,
    FusionDatum,
    degree_04,
    divisor_class,
    expand_fusion,
    fcurve_intersect,
    is_trivial,
    lambda_threshold,
    positivity_certificate,
    rank_n,
    scan_f_positivity,
)
from . import affine_instances as affine
from . import parafermion_sl2 as sl2
from . import parafermion_slr as slr
from .suites import SUITES, run_suite


@dataclass(frozen=True)
class Instance:
    """One algebra instance: its label syntax, its datum and its named subrings.

    Functions are held by name and looked up on ``module`` at call time, so a
    wrapper installed on the module later (a tracer, say) sees every call.
    """

    name: str  # the --algebra value
    prefix: str  # label syntax
    module: ModuleType
    parser: str
    datum: str
    params: Tuple[Tuple[str, str], ...]  # (label attribute, flag) per datum argument, in order
    subrings: Tuple[Tuple[str, str], ...] = ()  # (--subring value, function of the datum arguments)

    def parse(self, text: str):
        return getattr(self.module, self.parser)(text)

    def build(self, params: tuple) -> FusionDatum:
        return getattr(self.module, self.datum)(*params)

    def params_of(self, label) -> tuple:
        return tuple(getattr(label, attr) for attr, _ in self.params)


INSTANCES = {
    instance.name: instance
    for instance in (
        Instance("sl2", "M[", sl2, "parse_sl2_label", "datum_sl2", (("k", "level"),),
                 (("T", "subring_T"), ("S1", "subring_S1"))),
        Instance("slr", "S[", slr, "parse_slr_label", "datum_slr", (("r", "rank"), ("k", "level"))),
        Instance("affine", "A[", affine, "parse_affine_label", "datum_affine_sl2", (("k", "level"),)),
        Instance("cyclic", "Z[", affine, "parse_cyclic_label", "datum_cyclic", (("m", "level"),)),
    )
}
SUBRINGS = ("full",) + tuple(dict.fromkeys(name for i in INSTANCES.values() for name, _ in i.subrings))


def _parse(text: str) -> Tuple[Instance, Any]:
    text = text.strip()
    for instance in INSTANCES.values():
        if text.startswith(instance.prefix):
            return instance, instance.parse(text)
    raise LabelDomainError(f"unrecognized label syntax {text!r}")


def parse_label(text: str):
    return _parse(text)[1]


def _modules(args) -> Tuple[FusionDatum, list]:
    """Parse the positional modules, which must share one datum matching the context flags."""
    parsed = [_parse(t) for t in args.modules]
    instance, first = parsed[0]
    params = instance.params_of(first)
    if any(inst is not instance or inst.params_of(m) != params for inst, m in parsed):
        raise LabelDomainError("labels mix algebras or parameters")
    if args.algebra not in (None, instance.name):
        raise LabelDomainError(f"label {first} does not belong to --algebra {args.algebra}")
    _refuse_rank(args, instance)
    for attr, flag in instance.params:
        value = getattr(args, flag)
        if value is not None and value != getattr(first, attr):
            raise LabelDomainError(f"label {first} is not at {flag} {value}")
    return instance.build(params), [m for _, m in parsed]


def _subring(args) -> Tuple[FusionDatum, tuple]:
    """The datum named by --algebra/--level/--rank and the labels of its --subring."""
    instance = INSTANCES[args.algebra]
    _refuse_rank(args, instance)
    params = tuple(getattr(args, flag) for _, flag in instance.params)
    for (_, flag), value in zip(instance.params, params):
        if value is None:
            raise LabelDomainError(f"--algebra {instance.name} needs --{flag}")
    subrings = dict(instance.subrings)
    if args.subring != "full" and args.subring not in subrings:
        known = ", ".join(("full",) + tuple(subrings))
        raise LabelDomainError(f"--algebra {instance.name} has no subring {args.subring}; it has {known}")
    datum = instance.build(params)
    if args.subring == "full":
        return datum, datum.labels
    return datum, tuple(getattr(instance.module, subrings[args.subring])(*params))


def _refuse_rank(args, instance: Instance) -> None:
    if args.rank is not None and all(flag != "rank" for _, flag in instance.params):
        raise LabelDomainError(f"--algebra {instance.name} takes no --rank")


def _no_context(args) -> tuple:
    return ()


# -- serialization --------------------------------------------------------------


class Output(NamedTuple):
    """What a verb computed; ``main`` renders it as JSON, a table or CSV."""

    inputs: dict
    result: Any
    lines: List[str]
    rows: List[Sequence[Any]]
    code: int = 0


def to_jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {_key_str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        return {k: to_jsonable(v) for k, v in asdict(value).items()}
    return str(value)


def _key_str(key: Any) -> str:
    if isinstance(key, tuple):
        return "{" + ",".join(str(x) for x in key) + "}"
    return str(key)


def _format_value(value: Any) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_format_value(v) for v in value) + ")"
    return str(value)


def _render(args, out: Output, elapsed: float) -> None:
    if args.format == "json":
        payload = {
            "command": args.verb,
            "inputs": to_jsonable(out.inputs),
            "result": to_jsonable(out.result),
            "elapsed_ms": round(elapsed * 1000, 3),
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        writer = _csv.writer(sys.stdout)
        for row in out.rows:
            writer.writerow([_format_value(x) for x in row])
    else:
        for line in out.lines:
            print(line)


def _module_inputs(labels: Sequence[Any]) -> dict:
    return {"modules": [str(m) for m in labels]}


def _subring_inputs(args) -> dict:
    return {"algebra": args.algebra, "level": args.level, "rank": args.rank, "subring": args.subring}


def _scalar(inputs: dict, value: Any) -> Output:
    return Output(inputs, {"value": value}, [_format_value(value)], [("result",), (value,)])


# -- verb implementations ---------------------------------------------------------


def _cmd_cw(args, datum: FusionDatum, labels: list) -> Output:
    values = [(str(m), datum.cw(m)) for m in labels]
    return Output(
        _module_inputs(labels),
        {"cw": dict(values)},
        [f"{m} {v}" for m, v in values],
        [("label", "cw")] + values,
    )


def _cmd_fuse(args, datum: FusionDatum, labels: list) -> Output:
    if len(labels) != 2:
        raise ArityError(f"need exactly 2 modules, got {len(labels)}")
    a, b = labels
    terms = [(str(m), mult) for m, mult in expand_fusion(datum, a, b)]
    return Output(
        _module_inputs(labels),
        {"terms": dict(terms)},
        [f"{m} x{mult}" for m, mult in terms],
        [("label", "multiplicity")] + terms,
    )


def _cmd_rank(args, datum: FusionDatum, labels: list) -> Output:
    return _scalar(_module_inputs(labels), rank_n(datum, labels))


def _cmd_degree(args, datum: FusionDatum, labels: list) -> Output:
    return _scalar(_module_inputs(labels), degree_04(datum, labels))


def _cmd_class(args, datum: FusionDatum, labels: list) -> Output:
    cls = divisor_class(datum, labels)
    lines = [f"mu {cls.mu}"]
    rows: List[Sequence[Any]] = [("kind", "key", "value"), ("mu", "", cls.mu)]
    for i, coeff in enumerate(cls.psi_coeffs, start=1):
        lines.append(f"psi[{i}] {coeff}")
        rows.append(("psi", i, coeff))
    for key in sorted(cls.boundary_coeffs, key=lambda s: (len(s), s)):
        pretty = "{" + ",".join(str(x) for x in key) + "}"
        lines.append(f"boundary[{pretty}] {cls.boundary_coeffs[key]}")
        rows.append(("boundary", pretty, cls.boundary_coeffs[key]))
    result = {
        "mu": cls.mu,
        "psi": list(cls.psi_coeffs),
        "boundary": {key: val for key, val in cls.boundary_coeffs.items()},
    }
    return Output(_module_inputs(labels), result, lines, rows)


def _cmd_intersect(args, datum: FusionDatum, labels: list) -> Output:
    curve = FCurve.parse(args.fcurve, len(labels))
    value = fcurve_intersect(datum, labels, curve)
    return _scalar({**_module_inputs(labels), "fcurve": str(curve)}, value)


def _cmd_trivial(args, datum: FusionDatum, labels: list) -> Output:
    return _scalar(_module_inputs(labels), is_trivial(datum, labels))


def _cmd_scan(args, datum: FusionDatum, subring: tuple) -> Output:
    report = scan_f_positivity(datum, subring)
    lines = [
        f"examined {report.tuples_examined} multisets over {len(subring)} labels",
        f"min degree {report.min_degree}",
    ]
    rows: List[Sequence[Any]] = [("kind", "modules", "degree")]
    for tup, deg in report.counterexamples:
        text = " ".join(str(m) for m in tup)
        lines.append(f"NEGATIVE {text} degree {deg}")
        rows.append(("negative", text, deg))
    rows.append(("summary", f"examined={report.tuples_examined}", report.min_degree))
    result = {
        "tuples_examined": report.tuples_examined,
        "min_degree": report.min_degree,
        "counterexamples": [
            {"modules": [str(m) for m in tup], "degree": deg} for tup, deg in report.counterexamples
        ],
    }
    return Output(_subring_inputs(args), result, lines, rows, 1 if report.counterexamples else 0)


def _cmd_certificate(args, datum: FusionDatum, subring: tuple) -> Output:
    cert = positivity_certificate(datum, subring)
    lines = [
        f"abelian {cert.abelian}",
        f"f_min {cert.f_min}",
        f"f_max {cert.f_max}",
        f"interval {_format_value(cert.c_interval) if cert.c_interval else 'none'}",
    ]
    rows = [
        ("field", "value"),
        ("abelian", cert.abelian),
        ("f_min", cert.f_min),
        ("f_max", cert.f_max),
        ("interval", cert.c_interval if cert.c_interval else ""),
    ]
    return Output(_subring_inputs(args), cert, lines, rows)


def _cmd_lambda(args, datum: FusionDatum, subring: tuple) -> Output:
    return _scalar(_subring_inputs(args), lambda_threshold(datum, subring))


def _cmd_pairing(args) -> Output:
    bundle = (
        affine.pairing_T_to_affine(args.level)
        if args.which == "T-affine"
        else affine.pairing_S1_to_cyclic(args.level)
    )
    report = affine.verify_pairing(*bundle)
    lines = [
        f"fusion injection {report.is_fusion_injection}",
        f"eta {report.eta if report.eta is not None else 'undefined'}",
    ]
    if report.failure_witness:
        labels, message = report.failure_witness
        lines.append(f"witness {' '.join(str(m) for m in labels)}: {message}")
    rows = [
        ("field", "value"),
        ("fusion_injection", report.is_fusion_injection),
        ("eta", report.eta if report.eta is not None else ""),
        ("witness", report.failure_witness[1] if report.failure_witness else ""),
    ]
    ok = report.is_fusion_injection and report.failure_witness is None
    return Output({"pairing": args.which, "level": args.level}, report, lines, rows, 0 if ok else 1)


def _cmd_verify(args) -> Output:
    checks = run_suite(args.suite, max_level=args.max_level)
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]
    rows: List[Sequence[Any]] = [("check", "passed", "detail")]
    rows.extend((c.name, c.passed, c.detail) for c in checks)
    result = {"suite": args.suite, "checks": [to_jsonable(c) for c in checks]}
    inputs = {"suite": args.suite, "max_level": args.max_level}
    return Output(inputs, result, lines, rows, 0 if all(c.passed for c in checks) else 1)


# -- parser ------------------------------------------------------------------------


MODULE_VERBS = (
    ("cw", _cmd_cw, "conformal weights of modules"),
    ("fuse", _cmd_fuse, "fusion product of two modules"),
    ("rank", _cmd_rank, "n-point bundle rank"),
    ("degree", _cmd_degree, "degree of the 4-point divisor"),
    ("class", _cmd_class, "divisor class in the psi/boundary basis"),
    ("intersect", _cmd_intersect, "intersection with an F-curve"),
    ("trivial", _cmd_trivial, "does the divisor vanish on every F-curve"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusion-positivity",
        description="Exact fusion-ring positivity computations on moduli of pointed rational curves.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("table", "json", "csv"), default="table")

    for name, fn, help_text in MODULE_VERBS:
        p = subs.add_parser(name, parents=[output], help=help_text)
        p.add_argument("--algebra", choices=tuple(INSTANCES))
        p.add_argument("--level", type=int)
        p.add_argument("--rank", type=int)
        p.add_argument("modules", nargs="+", metavar="MODULE")
        if name == "intersect":
            p.add_argument("--fcurve", required=True, help='partition, e.g. "{1,2}|{3}|{4}|{5}"')
        p.set_defaults(func=fn, context=_modules)

    for name, fn in (("scan", _cmd_scan), ("certificate", _cmd_certificate), ("lambda", _cmd_lambda)):
        p = subs.add_parser(name, parents=[output])
        p.add_argument("--algebra", choices=tuple(INSTANCES), required=True)
        p.add_argument("--level", type=int, required=True)
        p.add_argument("--rank", type=int)
        p.add_argument("--subring", choices=SUBRINGS, default="full")
        if name == "scan":
            p.add_argument("--jobs", type=int, default=1, help="accepted and ignored; the scan is serial")
        p.set_defaults(func=fn, context=_subring)

    p = subs.add_parser("pairing", parents=[output], help="verify a proportional subring pairing")
    p.add_argument("which", choices=("T-affine", "S1-cyclic"))
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_pairing, context=_no_context)

    p = subs.add_parser("verify", parents=[output], help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--max-level", type=int, default=None)
    p.set_defaults(func=_cmd_verify, context=_no_context)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        out = args.func(args, *args.context(args))
    except FusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _render(args, out, time.perf_counter() - start)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
