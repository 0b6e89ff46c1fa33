"""Engine-level tests: fusion expansion, ranks, degrees, classes, F-curves, scans."""

import random
from fractions import Fraction as Q
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

import fusion_positivity as fp
from fusion_positivity.fusion_core import FusionDatum, _leg_support


def lab(k, i, j):
    return fp.canonicalize(k, i, j)


def test_expand_fusion_unit_law():
    d = fp.datum_sl2(3)
    exp = fp.expand_fusion(d, fp.vacuum(3), lab(3, 2, 1))
    assert exp.as_dict() == {lab(3, 2, 1): 1}


def test_expand_fusion_self_dual_square():
    d = fp.datum_sl2(3)
    exp = fp.expand_fusion(d, lab(3, 2, 1), lab(3, 2, 1))
    assert exp.as_dict() == {fp.vacuum(3): 1, lab(3, 2, 1): 1}


def test_expand_fusion_canonicalizes_channels():
    d = fp.datum_sl2(3)
    exp = fp.expand_fusion(d, lab(3, 1, 0), lab(3, 1, 0))
    assert exp.as_dict() == {lab(3, 3, 2): 1, lab(3, 2, 0): 1}
    assert exp.multiplicity(lab(3, 2, 1)) == 0
    assert len(exp) == 2


def test_expand_fusion_unknown_label():
    d = fp.datum_sl2(3)
    with pytest.raises(fp.LabelDomainError):
        fp.expand_fusion(d, lab(4, 1, 0), lab(4, 1, 0))


def test_rank_n_examples():
    d3 = fp.datum_sl2(3)
    assert fp.rank_n(d3, [lab(3, 1, 0), lab(3, 1, 0), lab(3, 2, 0), lab(3, 2, 0)]) == 2
    d2 = fp.datum_sl2(2)
    assert fp.rank_n(d2, [lab(2, 2, 1)] * 4) == 1
    # appending the vacuum reduces to the 3-point rank
    a, b, c = lab(3, 1, 0), lab(3, 2, 1), lab(3, 3, 1)
    assert fp.rank_n(d3, [fp.vacuum(3), a, b, c]) == d3.rank3(a, b, c)


def test_rank_n_two_point_convention():
    d = fp.datum_sl2(3)
    assert fp.rank_n(d, [lab(3, 1, 0), lab(3, 2, 0)]) == 1  # (1,0)' = (2,0)
    assert fp.rank_n(d, [lab(3, 1, 0), lab(3, 1, 0)]) == 0


def test_rank_n_arity():
    d = fp.datum_sl2(2)
    with pytest.raises(fp.ArityError):
        fp.rank_n(d, [fp.vacuum(2)])


def test_degree_04_examples():
    d3 = fp.datum_sl2(3)
    assert fp.degree_04(d3, [lab(3, 1, 0), lab(3, 1, 0), lab(3, 2, 0), lab(3, 2, 0)]) == -1
    assert fp.degree_04(d3, [lab(3, 2, 1)] * 4) == 2
    assert fp.degree_04(d3, [fp.vacuum(3), lab(3, 1, 0), lab(3, 2, 1), lab(3, 3, 1)]) == 0


def test_degree_04_zero_rank_is_zero():
    d = fp.datum_sl2(3)
    tup = [lab(3, 1, 0), lab(3, 3, 1), lab(3, 3, 2), lab(3, 3, 2)]
    assert fp.rank_n(d, tup) == 0
    assert fp.degree_04(d, tup) == 0


def test_divisor_class_symmetric_five_points():
    d = fp.datum_sl2(3)
    cls = fp.divisor_class(d, [lab(3, 2, 1)] * 5)
    assert cls.mu == 3
    assert set(cls.psi_coeffs) == {Q(6, 5)}
    assert set(cls.boundary_coeffs.values()) == {Q(4, 5)}
    assert all(len(key) == 2 for key in cls.boundary_coeffs)
    assert cls.boundary((4, 5)) == Q(4, 5)
    assert cls.boundary((1, 2, 3)) == Q(4, 5)  # complement of a 2-set


def test_divisor_class_degree_identity_k2():
    d = fp.datum_sl2(2)
    mods = [lab(2, 2, 1)] * 4
    cls = fp.divisor_class(d, mods)
    assert cls.mu == 1
    assert set(cls.psi_coeffs) == {Q(1, 2)}
    assert set(cls.boundary_coeffs.values()) == {Q(0)}
    total = cls.mu * sum((d.cw(m) for m in mods), Q(0))
    assert total - sum(cls.boundary_coeffs.values()) == fp.degree_04(d, mods) == 2


def test_divisor_class_vacuum():
    d = fp.datum_sl2(2)
    cls = fp.divisor_class(d, [fp.vacuum(2)] * 5)
    assert cls.mu == 1
    assert set(cls.psi_coeffs) == {Q(0)}
    assert set(cls.boundary_coeffs.values()) == {Q(0)}


def test_divisor_class_arity():
    d = fp.datum_sl2(2)
    with pytest.raises(fp.ArityError):
        fp.divisor_class(d, [fp.vacuum(2)] * 3)


def test_canonical_boundary_key():
    assert fp.canonical_boundary_key((4, 5), 5) == (4, 5)
    assert fp.canonical_boundary_key((1, 2, 3), 5) == (4, 5)
    assert fp.canonical_boundary_key((3, 4), 4) == (1, 2)  # tie broken to the block with 1
    with pytest.raises(fp.DomainError):
        fp.canonical_boundary_key((0, 1), 4)


def test_fcurve_parse_and_canonical_form():
    curve = fp.FCurve.parse("{1,2}|{3}|{4}|{5}", 5)
    assert curve.blocks == ((3,), (4,), (5,), (1, 2))
    assert fp.FCurve.parse(str(curve), 5) == curve
    with pytest.raises(fp.PartitionError):
        fp.FCurve.parse("{1,2}|{3}|{4}", 4)
    with pytest.raises(fp.PartitionError):
        fp.FCurve.parse("{1,2}|{2}|{3}|{4}", 4)
    with pytest.raises(fp.PartitionError):
        fp.FCurve.parse("{1}|{2}|{3}|{4}", 5)


def test_fcurve_singletons_equal_degree():
    d = fp.datum_sl2(3)
    curve = fp.FCurve.parse("{1}|{2}|{3}|{4}", 4)
    for tup in combinations_with_replacement(d.labels, 4):
        assert fp.fcurve_intersect(d, tup, curve) == fp.degree_04(d, tup)


def test_fcurve_two_channels_example():
    d = fp.datum_sl2(3)
    curve = fp.FCurve.parse("{1,2}|{3}|{4}|{5}", 5)
    assert fp.fcurve_intersect(d, [lab(3, 2, 1)] * 5, curve) == 2


def test_fcurve_wrong_size():
    d = fp.datum_sl2(3)
    curve = fp.FCurve.parse("{1}|{2}|{3}|{4}", 4)
    with pytest.raises(fp.PartitionError):
        fp.fcurve_intersect(d, [lab(3, 2, 1)] * 5, curve)


def test_is_trivial_examples():
    d4 = fp.datum_sl2(4)
    assert fp.is_trivial(d4, [lab(4, 2, 1)] * 4) is True
    assert fp.is_trivial(d4, [lab(4, 2, 1)] * 5) is False
    assert fp.is_trivial(d4, [fp.vacuum(4)] * 6) is True


def test_four_block_partition_count():
    # Stirling numbers of the second kind S(n, 4)
    assert sum(1 for _ in fp.four_block_partitions(4)) == 1
    assert sum(1 for _ in fp.four_block_partitions(5)) == 10
    assert sum(1 for _ in fp.four_block_partitions(6)) == 65
    assert sum(1 for _ in fp.four_block_partitions(7)) == 350


def test_scan_unit_subring():
    d = fp.datum_sl2(3)
    report = fp.scan_f_positivity(d, [fp.vacuum(3)])
    assert report.tuples_examined == 1
    assert report.min_degree == 0
    assert report.counterexamples == ()


def test_scan_closure_validation():
    d = fp.datum_sl2(3)
    with pytest.raises(fp.ClosureError):
        fp.scan_f_positivity(d, [fp.vacuum(3), lab(3, 1, 0)])
    with pytest.raises(fp.ClosureError):
        fp.validate_subring(d, [lab(3, 3, 1)])  # not closed under duals either


def test_scan_full_k3_negatives():
    d = fp.datum_sl2(3)
    report = fp.scan_f_positivity(d, d.labels)
    assert report.tuples_examined == 126
    assert report.min_degree == -1
    assert len(report.counterexamples) == 3
    assert all(deg == -1 for _, deg in report.counterexamples)


def test_scan_worker_determinism():
    d = fp.datum_slr(2, 4)
    serial = fp.scan_f_positivity(d, d.labels, jobs=1)
    parallel = fp.scan_f_positivity(d, d.labels, jobs=2)
    assert serial == parallel  # elapsed excluded from equality


def _reference_scan(datum, subring):
    """Examine every 4-multiset and keep those of nonzero rank by rank_n (the scan enumerates them instead)."""
    sub = fp.validate_subring(datum, subring)
    examined, min_degree, negatives = 0, None, []
    for quad in combinations_with_replacement(sub, 4):
        examined += 1
        if fp.rank_n(datum, quad) == 0:
            continue
        deg = fp.degree_04(datum, quad)
        if min_degree is None or deg < min_degree:
            min_degree = deg
        if deg < 0:
            negatives.append((quad, deg))
    return fp.ScanReport(examined, Q(0) if min_degree is None else min_degree, tuple(negatives))


def _scan_rings():
    for k in range(1, 7):
        d = fp.datum_sl2(k)
        yield pytest.param(d, d.labels, id=f"sl2-{k}")
        yield pytest.param(d, fp.subring_T(k), id=f"sl2-{k}-T")
        yield pytest.param(d, fp.subring_S1(k), id=f"sl2-{k}-S1")
    for k in range(1, 6):
        d = fp.datum_slr(2, k)
        yield pytest.param(d, d.labels, id=f"S2-{k}")
    d = fp.datum_slr(3, 3)  # weights not dual-symmetric
    yield pytest.param(d, d.labels, id="S3-3")
    for k in range(1, 7):
        d = fp.datum_affine_sl2(k)
        yield pytest.param(d, d.labels, id=f"affine-{k}")
    for m in range(1, 9):
        d = fp.datum_cyclic(m)
        yield pytest.param(d, d.labels, id=f"cyclic-{m}")


@pytest.mark.parametrize("datum, subring", _scan_rings())
def test_scan_matches_every_multiset_reference(datum, subring):
    report = fp.scan_f_positivity(datum, subring)
    reference = _reference_scan(datum, subring)
    assert report.tuples_examined == reference.tuples_examined
    assert report.min_degree == reference.min_degree
    assert report.counterexamples == reference.counterexamples


def _leg_rings():
    datums = [fp.datum_sl2(k) for k in range(1, 6)] + [fp.datum_slr(2, k) for k in range(1, 5)]
    datums += [fp.datum_slr(3, 3), fp.datum_slr(4, 2)]
    datums += [fp.datum_affine_sl2(k) for k in range(1, 7)] + [fp.datum_cyclic(m) for m in range(1, 8)]
    return [pytest.param(d, id=d.name) for d in datums]


def _legs(datum):
    """Every leg of 1-4 labels; past 10,000 four-label legs (S_3(3) has 27,405), a seeded 3,000 of those.

    The rank_n reference makes one call per label and leg, so all of S_3(3) would take about 12 s.
    """
    yield from (leg for size in range(1, 4) for leg in combinations_with_replacement(datum.labels, size))
    fours = list(combinations_with_replacement(datum.labels, 4))
    if len(fours) > 10_000:
        fours = random.Random(datum.name).sample(fours, 3000)
    yield from fours


def _reference_support(datum, leg):
    """(W, rank(leg + [dual W])) for every label W of nonzero rank, with one rank_n call per label."""
    support = []
    for w in datum.labels:
        r = fp.rank_n(datum, tuple(leg) + (datum.dual(w),))
        if r:
            support.append((w, r))
    return tuple(support)


@pytest.mark.parametrize("datum", _leg_rings())
def test_leg_support_matches_rank_per_label(datum):
    for leg in _legs(datum):
        expected = tuple((datum.index(w), r) for w, r in _reference_support(datum, leg))
        assert _leg_support(datum, tuple(datum.index(m) for m in leg)) == expected, leg


def _reference_intersection(datum, ms, curve):
    """Sum over channel 4-tuples of degree_04 times the product of rank_n leg ranks, per label."""
    supports = [_reference_support(datum, [ms[i - 1] for i in block]) for block in curve.blocks]
    total = Q(0)
    for combo in product(*supports):
        weight = 1
        for _, r in combo:
            weight *= r
        total += fp.degree_04(datum, [w for w, _ in combo]) * weight
    return total


@pytest.mark.parametrize("datum", _leg_rings())
def test_fcurve_intersect_matches_rank_per_label(datum):
    rng = random.Random(f"fcurve:{datum.name}")
    for n in (5, 6):
        curves = [fp.FCurve.from_blocks(blocks, n) for blocks in fp.four_block_partitions(n)]
        for _ in range(4):
            ms = [rng.choice(datum.labels) for _ in range(n)]
            for curve in curves:
                assert fp.fcurve_intersect(datum, ms, curve) == _reference_intersection(datum, ms, curve), (ms, curve)


def _reference_class(datum, ms):
    """Boundary coefficients summed over every label, with one rank_n call per label and side."""
    n = len(ms)
    boundary = {}
    for size in range(2, n // 2 + 1):
        for subset in combinations(range(1, n + 1), size):
            if fp.canonical_boundary_key(subset, n) != subset:
                continue
            inside = [ms[i - 1] for i in subset]
            outside = [ms[i - 1] for i in range(1, n + 1) if i not in subset]
            boundary[subset] = sum(
                (
                    datum.cw(w) * fp.rank_n(datum, inside + [w]) * fp.rank_n(datum, outside + [datum.dual(w)])
                    for w in datum.labels
                ),
                Q(0),
            )
    mu = fp.rank_n(datum, ms)
    return mu, tuple(mu * datum.cw(m) for m in ms), boundary


@pytest.mark.parametrize("datum", _leg_rings())
def test_divisor_class_matches_rank_per_label(datum):
    rng = random.Random(f"class:{datum.name}")
    for n in (5, 6):
        for _ in range(6):
            ms = [rng.choice(datum.labels) for _ in range(n)]
            cls = fp.divisor_class(datum, ms)
            assert (cls.mu, cls.psi_coeffs, dict(cls.boundary_coeffs)) == _reference_class(datum, ms), ms


def test_scan_report_invariant():
    with pytest.raises(fp.DomainError):
        fp.ScanReport(tuples_examined=1, min_degree=Q(-1), counterexamples=())


def test_certificate_windows():
    d5 = fp.datum_slr(2, 5)
    cert = fp.positivity_certificate(d5, d5.labels)
    assert cert.abelian and cert.f_min == Q(4, 5) and cert.f_max == Q(8, 5)
    assert cert.c_interval == (Q(4, 5), Q(4, 5))
    d6 = fp.datum_slr(2, 6)
    cert6 = fp.positivity_certificate(d6, d6.labels)
    assert cert6.abelian and cert6.f_min == Q(5, 6) and cert6.f_max == Q(2)
    assert cert6.c_interval is None
    d1 = fp.datum_slr(2, 1)
    cert1 = fp.positivity_certificate(d1, d1.labels)
    assert cert1.f_min == cert1.f_max == 0 and cert1.c_interval == (Q(0), Q(0))


def test_certificate_inapplicable_for_nonabelian():
    d = fp.datum_sl2(3)
    cert = fp.positivity_certificate(d, d.labels)
    assert cert.abelian is False and cert.c_interval is None
    cert_t = fp.positivity_certificate(d, fp.subring_T(3))
    assert cert_t.abelian is False  # (2,1) x (2,1) has two channels at level 3


def test_certificate_soundness_bound():
    # with a certificate and a clean scan, boundary coefficients stay below
    # f_max * mu and psi coefficients above f_min * mu
    d = fp.datum_slr(2, 4)
    cert = fp.positivity_certificate(d, d.labels)
    assert cert.c_interval is not None
    mods = [fp.make_label(2, 4, t) for t in ((1, 0), (1, 2), (3, 1), (2, 2), (1, 1))]
    cls = fp.divisor_class(d, mods)
    assert all(b <= cert.f_max * cls.mu for b in cls.boundary_coeffs.values())
    assert all(p >= cert.f_min * cls.mu for p in cls.psi_coeffs)


def test_degree_11_values():
    assert fp.degree_11(fp.datum_sl2(2), fp.vacuum(2)) == -6
    assert fp.degree_11(fp.datum_sl2(1), fp.vacuum(1)) == 0
    # datum with a single unit label: the value is c/2
    toy = FusionDatum(
        name="toy",
        labels=("e",),
        unit="e",
        dual_fn=lambda m: m,
        fuse_fn=lambda a, b: {"e": 1},
        cw_fn=lambda m: Q(0),
        central_charge=Q(7, 3),
    )
    assert fp.degree_11(toy, "e") == Q(7, 6)


def _brute_threshold(datum, sub):
    values = [
        12 * datum.cw(wt) - datum.central_charge / 2 - datum.cw(w)
        for w in sub
        for wt in datum.labels
        if datum.rank3(w, wt, datum.dual(wt)) >= 1
    ]
    best = max(values)
    return best if best > 0 else Q(0)


def test_lambda_threshold_values():
    d2 = fp.datum_sl2(2)
    assert fp.lambda_threshold(d2, fp.subring_T(2)) == Q(23, 4)
    assert fp.lambda_threshold(fp.datum_sl2(1), fp.subring_T(1)) == 0
    # the residue instance carries its own central charge (6/5 at r=2, k=2)
    d22 = fp.datum_slr(2, 2)
    assert d22.central_charge == Q(6, 5)
    assert fp.lambda_threshold(d22, d22.labels) == _brute_threshold(d22, d22.labels) == Q(27, 5)


def test_lambda_threshold_matches_brute_force():
    for k in (2, 3, 4):
        d = fp.datum_sl2(k)
        for sub in (fp.subring_T(k), fp.subring_S1(k), d.labels):
            assert fp.lambda_threshold(d, sub) == _brute_threshold(d, sub)


def test_rank_split_matches_rank_n():
    d = fp.datum_sl2(3)
    mods = (lab(3, 1, 0), lab(3, 2, 1), lab(3, 2, 0), lab(3, 3, 2), lab(3, 2, 1))
    whole = fp.rank_n(d, mods)
    for cut in range(1, len(mods)):
        assert fp.rank_split(d, mods[:cut], mods[cut:]) == whole


def test_permutation_invariance_small():
    d = fp.datum_sl2(3)
    tup = (lab(3, 1, 0), lab(3, 2, 0), lab(3, 2, 1), lab(3, 3, 2))
    degrees = {fp.degree_04(d, perm) for perm in permutations(tup)}
    ranks = {fp.rank_n(d, perm) for perm in permutations(tup)}
    assert len(degrees) == 1 and len(ranks) == 1


def test_foreign_label_rejected():
    d = fp.datum_sl2(3)
    with pytest.raises(fp.LabelDomainError):
        fp.rank_n(d, [fp.make_label(2, 3, (1, 0)), lab(3, 1, 0)])


def test_datum_construction_validation():
    with pytest.raises(fp.DomainError):
        FusionDatum(
            name="broken",
            labels=("e", "x"),
            unit="e",
            dual_fn=lambda m: "e",  # not involutive on x
            fuse_fn=lambda a, b: {"e": 1},
            cw_fn=lambda m: Q(0),
            central_charge=Q(0),
        )
    with pytest.raises(fp.DomainError):
        FusionDatum(
            name="broken",
            labels=("e",),
            unit="e",
            dual_fn=lambda m: m,
            fuse_fn=lambda a, b: {"e": 1},
            cw_fn=lambda m: Q(1),  # unit weight must vanish
            central_charge=Q(0),
        )


def test_validate_rejects_broken_unit_law():
    datum = FusionDatum(
        name="broken",
        labels=("e", "x"),
        unit="e",
        dual_fn=lambda m: m,
        fuse_fn=lambda a, b: {"x": 1},  # e (x) e should be e
        cw_fn=lambda m: Q(0),
        central_charge=Q(0),
    )
    with pytest.raises(fp.DomainError, match="unit law"):
        datum.validate()


def test_validate_rejects_dual_asymmetric_weights():
    datum = FusionDatum(
        name="Z/3",
        labels=(0, 1, 2),
        unit=0,
        dual_fn=lambda m: -m % 3,
        fuse_fn=lambda a, b: {(a + b) % 3: 1},
        cw_fn=lambda m: Q(m, 3),  # cw(1) = 1/3 but cw(dual 1) = cw(2) = 2/3
        central_charge=Q(0),
    )
    with pytest.raises(fp.DomainError, match="dual-symmetric"):
        datum.validate()
    datum.validate(check_cw_duality=False)


def test_validate_rejects_asymmetric_rank3():
    datum = FusionDatum(
        name="broken",
        labels=(0, 1),
        unit=0,
        dual_fn=lambda m: m,
        fuse_fn=lambda a, b: {max(a, b): 1},  # 1 (x) 1 = 1, so rank3(1,1,0) = 0 but rank3(1,0,1) = 1
        cw_fn=lambda m: Q(m, 2),
        central_charge=Q(0),
    )
    with pytest.raises(fp.DomainError, match="Sym\\(3\\)"):
        datum.validate()
    datum.validate(check_rank3_symmetry=False)
