"""Recompute ``expected.json``, the stored summaries of the full-ring scans.

    python3 perfbench/regen.py    # rewrite perfbench/expected.json

Nothing here calls the engine's factorization code: S_2(k) comes from the
abelian group law, affine sl2 from truncated Clebsch-Gordan fusion, and the
full sl2 parafermion ring from the closed forms ``rank4_closed`` and
``degree04_closed`` over every 4-multiset.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations_with_replacement
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as O  # noqa: E402
from workloads import EXPECTED_PATH, SCAN_RINGS, label_key, scan_model, scan_summary  # noqa: E402


def sl2_closed_scan(k: int):
    from fusion_positivity import parafermion_sl2 as sl2

    labels = sl2.all_labels(k)
    degrees = []
    for tup in combinations_with_replacement(labels, 4):
        if sl2.rank4_closed(tup):
            degrees.append((tuple(label_key(m) for m in tup), O.sl2_closed_degree(sl2, tup)))
    min_degree = min(d for _, d in degrees)
    negatives = [(t, d) for t, d in degrees if d < 0]
    return O.multisets_examined(len(labels)), min_degree, negatives


def expected() -> dict:
    out = {}
    for key, instance, params in SCAN_RINGS:
        if instance == "sl2":
            examined, min_degree, negatives = sl2_closed_scan(*params)
            method = "rank4_closed and degree04_closed over every multiset"
        else:
            model = scan_model(instance, params)
            elements = model.elements() if instance == "slr" else [(lam,) for lam in range(params[0] + 1)]
            examined, min_degree, negatives = model.scan(elements)
            method = "group law" if instance == "slr" else "truncated Clebsch-Gordan fusion"
        out[key] = {**scan_summary(examined, min_degree, negatives), "method": method}
    return out


def main() -> int:
    EXPECTED_PATH.write_text(json.dumps(expected(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
