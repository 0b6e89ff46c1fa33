"""Benchmark of the exact engine: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.  A run
is a closed loop in one process and one thread.  It repeats whole rounds
until the timed phases add up to ``--seconds``.  Each round:

1. sets up: imports the package afresh, so every memo cache starts empty, and
   builds every datum the workload uses (one ``setup_s`` sample);
2. makes the round's inputs from the seed and the round number;
3. times the operations (the timed phase);
4. checks every output against the oracles in ``oracles.py``.

``work_per_s`` is the median over rounds of the round's work units divided by
its timed phase, and ``setup_s`` the median set-up, over at least five.

The 2-vCPU VM the bounds were measured on changes speed by tens of percent
within a minute, for any code.  So the untraced run keeps a speed gauge: a fixed
reference loop of exact arithmetic runs between operations, for about a
tenth of the time of the operations around it, and just before and after
each set-up.  Each span of operations is rescaled by the mean speed the loop
saw on its two sides, so both metrics read in seconds at the loop's nominal
speed.  The raw figures go to the results file.

With ``--trace 1`` the run makes one round, with spans around every call
into the engine's layers, and prints the per-layer metrics instead; the spans
and per-layer totals go to ``perfbench/results/``.  The last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PACKAGE = "fusion_positivity"
MIN_SETUPS = 5
REFERENCE_NOMINAL_S = 0.0018  # median time of one reference chunk, Python 3.11 on a 2-vCPU VM
REFERENCE_SHARE = 0.1  # reference time run per second of operations
REFERENCE_EVERY_S = 0.05  # operations run between two gauge samples, at least
REFERENCE_MIN = 5  # reference chunks in the smallest gauge sample
SETUP_BRACKET = 30  # reference chunks run just before and just after each set-up

sys.path.insert(0, str(HERE))

from tracing import Tracer, warn_missing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Engine:
    """One fresh import of the package, so that its memo caches start empty."""

    def __init__(self, with_cli: bool):
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.package = importlib.import_module(PACKAGE)
        where = Path(self.package.__file__).resolve().parent
        if where != SRC / PACKAGE:
            raise ImportError(f"{PACKAGE} imported from {where}, not from {SRC}")
        self.core = sys.modules[PACKAGE + ".fusion_core"]
        self.sl2 = sys.modules[PACKAGE + ".parafermion_sl2"]
        self.slr = sys.modules[PACKAGE + ".parafermion_slr"]
        self.affine = sys.modules[PACKAGE + ".affine_instances"]
        self.cli = importlib.import_module(PACKAGE + ".cli") if with_cli else None

    def modules(self) -> dict:
        mods = {
            "package": self.package,
            "fusion_core": self.core,
            "parafermion_sl2": self.sl2,
            "parafermion_slr": self.slr,
            "affine_instances": self.affine,
        }
        if self.cli is not None:
            mods["cli"] = self.cli
        return mods


def reference_chunk() -> Fraction:
    """A fixed slice of the kind of work the engine does: exact sums, dict and tuple keys."""
    table: dict = {}
    total = Fraction(0)
    for i in range(400):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + 1
        total += Fraction(i % 11 + 1, i % 7 + 2)
    return total


def speed(count: int) -> float:
    """Run ``count`` reference chunks; their nominal time over their measured time."""
    # a collection of the engine's heap is the engine's cost, not the machine's speed
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(count):
            reference_chunk()
        measured = perf_counter() - start
    finally:
        gc.enable()
    return count * REFERENCE_NOMINAL_S / measured


def set_up(workload, tracer):
    """Import the package and build the workload's datums; returns (engine, datums, seconds)."""
    start = perf_counter()
    eng = Engine(workload.with_cli)
    if tracer is not None:
        tracer.install(eng.modules())
        tracer.op = -1
        tracer.enabled = True
    datums = workload.build(eng)
    if tracer is not None:
        tracer.enabled = False
    return eng, datums, perf_counter() - start


def gauged_set_up(workload):
    """An untraced set-up between two gauge samples; returns (engine, datums, raw s, rescaled s)."""
    before = speed(SETUP_BRACKET)
    eng, datums, setup_s = set_up(workload, None)
    return eng, datums, setup_s, setup_s * (before + speed(SETUP_BRACKET)) / 2


def time_ops(ops, tracer, gauged: bool):
    """Run the operations; returns raw seconds, rescaled seconds and raw seconds per kind."""
    raw = rescaled = pending = 0.0
    by_kind: dict = {}
    last = speed(REFERENCE_MIN) if gauged else 1.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = perf_counter()
        try:
            op.out = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            op.error = f"{op.kind}: {type(exc).__name__}: {exc}"
        spent = perf_counter() - start
        by_kind[op.kind] = by_kind.get(op.kind, 0.0) + spent
        raw += spent
        pending += spent
        if gauged and (pending >= REFERENCE_EVERY_S or index == len(ops) - 1):
            now = speed(max(REFERENCE_MIN, round(pending * REFERENCE_SHARE / REFERENCE_NOMINAL_S)))
            rescaled += pending * (last + now) / 2
            last, pending = now, 0.0
    return raw, (rescaled if gauged else raw), by_kind


def run(name: str, seed: int, seconds: float, trace: bool, max_ops: int | None = None) -> dict:
    """Run one workload; returns the result object and, in ``details``, what the files get."""
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    setups, raw_setups, rounds = [], [], []
    attempted = 0
    errors: list = []
    mismatches: list = []
    while True:
        gc.collect()
        if trace:
            eng, datums, setup_s = set_up(workload, tracer)
        else:
            eng, datums, setup_s, rescaled = gauged_set_up(workload)
            setups.append(rescaled)
        raw_setups.append(setup_s)
        ops = workload.ops(eng, datums, random.Random(f"{name}:{seed}:{len(rounds)}"))[:max_ops]
        if tracer is not None:
            tracer.enabled = True
        raw, rescaled, by_kind = time_ops(ops, tracer, gauged=not trace)
        if tracer is not None:
            tracer.enabled = False
        units = 0
        for op in ops:
            attempted += 1
            if op.error is not None:
                errors.append(op.error)
                continue
            units += op.units
            try:
                message = op.check(op.out)
            except Exception as exc:  # a check that cannot read the output is a wrong output
                message = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
            if message is not None:
                mismatches.append(message)
        rounds.append({"units": units, "seconds": raw, "rescaled_seconds": rescaled, "seconds_by_kind": by_kind})
        del eng, datums, ops
        if trace or max_ops is not None or sum(r["seconds"] for r in rounds) >= seconds:
            break
    while not trace and len(setups) < MIN_SETUPS:
        gc.collect()
        *_, setup_s, rescaled = gauged_set_up(workload)
        raw_setups.append(setup_s)
        setups.append(rescaled)
    if trace:
        metrics = {key: {"value": v, "unit": u} for key, (v, u) in tracer.per_layer().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_per_s": {
                "value": statistics.median(r["units"] / r["rescaled_seconds"] for r in rounds),
                "unit": "work/s",
            },
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    result = {"correct": not mismatches, "attempted": attempted, "failed": len(errors), "metrics": metrics}
    details = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "work_unit": workload.unit,
        "rounds": rounds,
        "setup_seconds": raw_setups,
        "rescaled_setup_seconds": setups,
        "raw_work_per_s": statistics.median(r["units"] / r["seconds"] for r in rounds),
        "raw_setup_s": statistics.median(raw_setups),
        "problems": (errors + mismatches)[:20],
    }
    if tracer is not None:
        warn_missing(tracer)
        details["trace"] = tracer.report()
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    path = RESULTS / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps({**outcome["details"], "result": outcome["result"]}, indent=1) + "\n")
    for problem in outcome["details"]["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
