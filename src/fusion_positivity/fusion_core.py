"""Generic exact-arithmetic engine over a finite fusion-category skeleton.

A FusionDatum packages simple labels, the unit (vacuum), duals, pairwise
fusion products, conformal weights and the central charge.  On top of it this
module computes, with `fractions.Fraction` throughout (no floats anywhere):

* n-point bundle ranks by factorization,
* divisor classes on the moduli of n-pointed rational curves in the
  psi / boundary basis,
* degrees of 4-point divisors,
* intersection numbers with F-curves (4-block partitions of the points),
* triviality tests, exhaustive F-positivity scans, positivity certificates,
* the genus-one tail degree and the lambda-twist threshold.

Channel-weight convention.  Boundary coefficients weight the channel attached
to the distinguished side of each node: for a 4-point degree the side holding
the first module, for an F-curve the central 4-pointed component (the legs
absorb the dual channel).  When conformal weights are dual-symmetric, as for
every self-dual-weight instance in this package with rank <= 2, the choice is
invisible and all the usual permutation/duality invariances hold; instances
whose weight table is not dual-symmetric get a well-defined value pinned by
this convention.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    ArityError,
    ClosureError,
    DomainError,
    LabelDomainError,
    PartitionError,
)

Label = Any
Q = Fraction


class FusionDatum:
    """Finite fusion-ring skeleton: labels, unit, duals, fusion, weights, central charge.

    Compiled to label indices 0..N-1 at construction: duals are a list of
    indices, weights also integers over one common denominator, and
    ``_table`` fills each ``fuse_fn`` product lazily as {channel index:
    multiplicity}.  The engine runs on indices; ``dual``, ``cw``, ``fuse`` and
    ``rank3`` are the label API over them.  Immutable after construction (the
    fusion table and the rank and leg caches fill lazily but idempotently).
    """

    __slots__ = (
        "name",
        "labels",
        "unit",
        "central_charge",
        "_index",
        "_dual",
        "_cw",
        "_cw_den",
        "_cw_num",
        "_fuse_fn",
        "_fusion",
        "_rank_cache",
        "_leg_cache",
    )

    def __init__(
        self,
        name: str,
        labels: Iterable[Label],
        unit: Label,
        dual_fn: Callable[[Label], Label],
        fuse_fn: Callable[[Label, Label], Mapping[Label, int]],
        cw_fn: Callable[[Label], Fraction],
        central_charge: Fraction,
    ) -> None:
        self.name = name
        self.labels = tuple(labels)
        self._index = {m: i for i, m in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise DomainError(f"{name}: duplicate labels")
        if unit not in self._index:
            raise DomainError(f"{name}: unit {unit!r} not among labels")
        self.unit = unit
        self.central_charge = Fraction(central_charge)
        self._dual = [self._index.get(dual_fn(m)) for m in self.labels]
        self._cw = [Fraction(cw_fn(m)) for m in self.labels]
        self._cw_den = lcm(*(w.denominator for w in self._cw))
        self._cw_num = [w.numerator * (self._cw_den // w.denominator) for w in self._cw]
        self._fuse_fn = fuse_fn
        self._fusion: dict = {}
        self._rank_cache: dict = {}
        self._leg_cache: dict = {}
        for i, m in enumerate(self.labels):
            if self._dual[i] is None:
                raise DomainError(f"{name}: dual of {m!r} leaves the label set")
            if self._dual[self._dual[i]] != i:
                raise DomainError(f"{name}: dual is not involutive at {m!r}")
        u = self._index[unit]
        if self._dual[u] != u:
            raise DomainError(f"{name}: unit is not self-dual")
        if self._cw[u] != 0:
            raise DomainError(f"{name}: unit has nonzero conformal weight")

    # -- the integer kernel ---------------------------------------------------

    def _table(self, i: int, j: int) -> dict:
        """Fusion product of label indices i and j as {channel index: multiplicity} (cached)."""
        key = (i, j) if i <= j else (j, i)
        table = self._fusion.get(key)
        if table is None:
            x, y = self.labels[key[0]], self.labels[key[1]]
            terms = dict(self._fuse_fn(x, y))
            if not terms:
                raise DomainError(f"{self.name}: empty fusion product {x!r}*{y!r}")
            for m, mult in terms.items():
                if m not in self._index or mult < 1:
                    raise DomainError(f"{self.name}: bad fusion term {m!r}:{mult} in {x!r}*{y!r}")
            table = self._fusion[key] = {self._index[m]: mult for m, mult in terms.items()}
        return table

    # -- label API --------------------------------------------------------------

    def index(self, m: Label) -> int:
        try:
            return self._index[m]
        except KeyError:
            raise LabelDomainError(f"{self.name}: unknown label {m!r}") from None

    def dual(self, m: Label) -> Label:
        return self.labels[self._dual[self.index(m)]]

    def cw(self, m: Label) -> Fraction:
        return self._cw[self.index(m)]

    def fuse(self, a: Label, b: Label) -> Mapping[Label, int]:
        """Fusion product a (x) b as a {label: multiplicity} table."""
        return {self.labels[x]: mult for x, mult in self._table(self.index(a), self.index(b)).items()}

    def rank3(self, a: Label, b: Label, c: Label) -> int:
        """Rank of the 3-pointed bundle: multiplicity of dual(c) in a (x) b."""
        return self._table(self.index(a), self.index(b)).get(self._dual[self.index(c)], 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FusionDatum({self.name}, {len(self.labels)} labels)"

    # -- structural validation ----------------------------------------------

    def validate(self, *, check_cw_duality: bool = True, check_rank3_symmetry: bool = True) -> None:
        """Check the datum axioms; raises DomainError on the first violation.

        Rank3 symmetry is checked on the nonzero fusion entries only, so it is
        quadratic in the number of labels times the channels per product.
        ``check_cw_duality`` can be switched off for instances whose shipped
        weight table is knowingly not dual-symmetric.
        """
        u = self._index[self.unit]
        for i, m in enumerate(self.labels):
            if self._table(u, i) != {i: 1}:
                raise DomainError(f"{self.name}: unit law fails at {m!r}: {self.fuse(self.unit, m)}")
            if check_cw_duality and self._cw[i] != self._cw[self._dual[i]]:
                raise DomainError(f"{self.name}: cw not dual-symmetric at {m!r}")
        # the unit law and the involutive dual (checked at construction) give
        # rank3(unit, a, b) == [b == dual(a)] for every pair, so it is not rechecked
        if check_rank3_symmetry:
            # (a b) holds since tables are keyed by the unordered pair, and with (b c) it
            # generates Sym(3); a zero side is checked from its nonzero partner's entry
            labels, dual, n = self.labels, self._dual, len(self.labels)
            for a in range(n):
                for b in range(n):
                    for x, mult in self._table(a, b).items():
                        c = dual[x]
                        if self._table(a, c).get(dual[b], 0) != mult:
                            raise DomainError(
                                f"{self.name}: rank3 not Sym(3)-invariant at "
                                f"({labels[a]!r},{labels[b]!r},{labels[c]!r})"
                            )


# -- value types -------------------------------------------------------------


@dataclass(frozen=True)
class FusionExpansion:
    """Multiset of simple labels with positive multiplicities (a fusion product)."""

    terms: tuple  # ((label, multiplicity), ...) in datum order

    def multiplicity(self, m: Label) -> int:
        for lab, mult in self.terms:
            if lab == m:
                return mult
        return 0

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


@dataclass(frozen=True)
class FCurve:
    """Unordered partition of {1..n} into four nonempty blocks, kept canonical.

    Canonical form sorts each block and orders blocks by (size, elements);
    that order is also the slot order of the central 4-pointed component.
    """

    n: int
    blocks: tuple  # four tuples of ints

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "FCurve":
        blks = [tuple(sorted(set(b))) for b in blocks]
        if len(blks) != 4 or any(not b for b in blks):
            raise PartitionError("an F-curve needs exactly four nonempty blocks")
        seen: list = []
        for b in blks:
            seen.extend(b)
        if sorted(seen) != list(range(1, n + 1)):
            raise PartitionError(f"blocks do not partition {{1..{n}}}: {blks}")
        blks.sort(key=lambda b: (len(b), b))
        return cls(n=n, blocks=tuple(blks))

    @classmethod
    def parse(cls, text: str, n: int) -> "FCurve":
        """Parse the CLI syntax ``{1,2}|{3}|{4}|{5}``."""
        blocks = []
        for part in text.split("|"):
            part = part.strip()
            if not (part.startswith("{") and part.endswith("}")):
                raise PartitionError(f"malformed block {part!r} in {text!r}")
            try:
                blocks.append([int(x) for x in part[1:-1].split(",") if x.strip()])
            except ValueError:
                raise PartitionError(f"malformed block {part!r} in {text!r}") from None
        return cls.from_blocks(blocks, n)

    def __str__(self) -> str:
        return "|".join("{" + ",".join(str(i) for i in b) + "}" for b in self.blocks)


@dataclass(frozen=True)
class DivisorClass:
    """Coefficients of a genus-0 coinvariant divisor in the psi/boundary basis.

    Boundary keys are the canonical subsets I of {1..n} with 2 <= |I| <= n/2,
    the smaller block of {I, I^c} (lexicographically least block on ties).
    """

    n: int
    mu: int
    psi_coeffs: tuple  # n Fractions
    boundary_coeffs: Mapping  # canonical tuple(I) -> Fraction

    def boundary(self, subset: Iterable[int]) -> Fraction:
        return self.boundary_coeffs[canonical_boundary_key(subset, self.n)]


@dataclass(frozen=True)
class ScanReport:
    """Outcome of an exhaustive 4-multiset F-positivity scan."""

    tuples_examined: int
    min_degree: Fraction
    counterexamples: tuple  # ((label 4-tuple, degree), ...) in enumeration order
    elapsed: float = field(compare=False, default=0.0)

    def __post_init__(self):
        if bool(self.counterexamples) != (self.min_degree < 0):
            raise DomainError("counterexamples must be nonempty exactly when min_degree < 0")


@dataclass(frozen=True)
class PositivityCertificate:
    """Conformal-weight window certificate for an abelian subring.

    ``c_interval`` is [f_max/2, f_min] and is present exactly when the subring
    is abelian, all weights are nonnegative and f_max <= 2*f_min; a non-abelian
    subring yields ``abelian=False`` with no interval (inapplicable, not an
    error).
    """

    abelian: bool
    f_min: Fraction
    f_max: Fraction
    c_interval: Optional[tuple] = None


# -- shared helpers -----------------------------------------------------------


def _check_modules(datum: FusionDatum, modules: Sequence[Label], *, minimum: int, maximum: Optional[int] = None) -> tuple:
    """The label indices of ``modules``, after checking their number and that each is a label."""
    ms = tuple(modules)
    if len(ms) < minimum or (maximum is not None and len(ms) > maximum):
        span = f"exactly {minimum}" if maximum == minimum else f"at least {minimum}"
        raise ArityError(f"need {span} modules, got {len(ms)}")
    return tuple(datum.index(m) for m in ms)


def canonical_boundary_key(subset: Iterable[int], n: int) -> tuple:
    """Canonical representative of {I, I^c}: the smaller block, lex-least on ties."""
    s = tuple(sorted(set(subset)))
    if not all(1 <= i <= n for i in s):
        raise DomainError(f"subset {s} not within 1..{n}")
    comp = tuple(i for i in range(1, n + 1) if i not in set(s))
    if len(s) != len(comp):
        return s if len(s) < len(comp) else comp
    return min(s, comp)


def validate_subring(datum: FusionDatum, subring_labels: Iterable[Label]) -> tuple:
    """Sorted, de-duplicated subring labels; raises ClosureError if not closed."""
    sub = tuple(datum.labels[i] for i in sorted({datum.index(m) for m in subring_labels}))
    if not sub:
        raise ClosureError("empty subring")
    members = set(sub)
    for m in sub:
        if datum.dual(m) not in members:
            raise ClosureError(f"subring not closed under duals at {m!r}")
    for a, b in combinations_with_replacement(sub, 2):
        for term in datum.fuse(a, b):
            if term not in members:
                raise ClosureError(f"subring not closed under fusion: {a!r}*{b!r} contains {term!r}")
    return sub


# -- engine operations --------------------------------------------------------


def expand_fusion(datum: FusionDatum, a: Label, b: Label) -> FusionExpansion:
    """Fusion product a (x) b; the multiplicity of M equals rank3(a, b, dual(M))."""
    table = datum._table(datum.index(a), datum.index(b))
    return FusionExpansion(terms=tuple((datum.labels[x], mult) for x, mult in sorted(table.items())))


def rank_n(datum: FusionDatum, modules: Sequence[Label]) -> int:
    """Rank of the n-pointed genus-0 bundle via factorization (n >= 2).

    n = 2 is the dual-pairing convention [m2 == dual(m1)], n = 3 the fusion
    rule, and n >= 4 folds over channels of the last pair.  The result is
    independent of the input order; the memo cache is keyed by the sorted
    index multiset.
    """
    return _rank(datum, tuple(sorted(_check_modules(datum, modules, minimum=2))))


def _rank(datum: FusionDatum, ms: tuple) -> int:
    """rank_n of a sorted tuple of label indices."""
    if len(ms) == 2:
        return 1 if ms[1] == datum._dual[ms[0]] else 0
    if len(ms) == 3:
        return datum._table(ms[0], ms[1]).get(datum._dual[ms[2]], 0)
    cached = datum._rank_cache.get(ms)
    if cached is not None:
        return cached
    total = 0
    head = ms[:-2]
    for channel, mult in datum._table(ms[-2], ms[-1]).items():
        total += mult * _rank(datum, tuple(sorted(head + (channel,))))
    datum._rank_cache[ms] = total
    return total


def rank_split(datum: FusionDatum, left: Sequence[Label], right: Sequence[Label]) -> int:
    """Rank computed by factorizing across an arbitrary two-block split.

    Equals rank_n(left + right); used to exercise factorization independence.
    """
    left = tuple(left)
    right = tuple(right)
    if not left or not right:
        return rank_n(datum, left + right)
    total = 0
    for w in datum.labels:
        r1 = rank_n(datum, left + (w,))
        if r1 == 0:
            continue
        total += r1 * rank_n(datum, right + (datum.dual(w),))
    return total


def degree_04(datum: FusionDatum, modules: Sequence[Label]) -> Fraction:
    """Degree of the 4-point coinvariant divisor.

    mu * sum(cw) minus, for each pairing of the first module with another, the
    channel-weight sum sum_W cw(W) * rank3(m1, mp, W) * rank3(mq, mr, dual W).
    Returns 0 whenever the rank vanishes.
    """
    return Fraction(_degree(datum, _check_modules(datum, modules, minimum=4, maximum=4)), datum._cw_den)


def _degree(datum: FusionDatum, ms: Sequence[int]) -> int:
    """degree_04 of four label indices as an integer over ``datum._cw_den``; mu counts the first pairing."""
    dual, cw, table = datum._dual, datum._cw_num, datum._table
    m1, rest = ms[0], ms[1:]
    mu = 0
    channels = 0
    for p in range(3):
        mq, mr = (rest[q] for q in range(3) if q != p)
        side2 = table(mq, mr)
        for x, mult1 in table(m1, rest[p]).items():
            xd = dual[x]
            mult2 = side2.get(xd)
            if mult2:
                channels += cw[xd] * (mult1 * mult2)
                if p == 0:
                    mu += mult1 * mult2
        if mu == 0:
            break  # every pairing counts the same rank, so the other two add nothing
    return mu * sum(cw[m] for m in ms) - channels


def divisor_class(datum: FusionDatum, modules: Sequence[Label]) -> DivisorClass:
    """Divisor class on the moduli of n-pointed rational curves (n >= 4).

    psi_coeffs[i] = mu * cw(M^i); the boundary coefficient at a canonical
    subset I is sum_W cw(W) * rank(M^I + [W]) * rank(M^{I^c} + [dual W]),
    read off the leg supports of I and I^c: rank(M^I + [W]) is the
    multiplicity of dual W in the fusion product of M^I.
    """
    ms = _check_modules(datum, modules, minimum=4)
    n = len(ms)
    mu = _rank(datum, tuple(sorted(ms)))
    psi = tuple(mu * datum._cw[m] for m in ms)
    boundary = {}
    for size in range(2, n // 2 + 1):
        for subset in combinations(range(1, n + 1), size):
            if canonical_boundary_key(subset, n) != subset:
                continue
            inside = dict(_leg_support(datum, tuple(ms[i - 1] for i in subset)))
            outside = tuple(ms[i - 1] for i in range(1, n + 1) if i not in set(subset))
            total = 0
            for w, r2 in _leg_support(datum, outside):
                r1 = inside.get(datum._dual[w])
                if r1:
                    total += datum._cw_num[w] * (r1 * r2)
            boundary[subset] = Fraction(total, datum._cw_den)
    return DivisorClass(n=n, mu=mu, psi_coeffs=psi, boundary_coeffs=boundary)


def fcurve_intersect(datum: FusionDatum, modules: Sequence[Label], curve: FCurve) -> Fraction:
    """Intersection number of the divisor with the F-curve of a 4-block partition.

    Sum over channel 4-tuples (W1..W4) of degree_04([W1..W4]) times the
    product of leg ranks rank(M^{I_p} + [dual(W^p)]): the central component
    carries the channels, each leg the dual.  Singleton legs use the 2-point
    convention, so for n = 4 with singleton blocks this is degree_04 itself.
    """
    ms = _check_modules(datum, modules, minimum=4)
    n = len(ms)
    if curve.n != n:
        raise PartitionError(f"curve on {curve.n} points used with {n} modules")
    supports = []
    for block in curve.blocks:
        sup = _leg_support(datum, tuple(ms[i - 1] for i in block))
        if not sup:
            return Fraction(0)
        supports.append(sup)
    total = 0
    for combo in product(*supports):
        weight = 1
        for _, r in combo:
            weight *= r
        total += _degree(datum, [w for w, _ in combo]) * weight
    return Fraction(total, datum._cw_den)


def _leg_support(datum: FusionDatum, leg: tuple) -> tuple:
    """Nonzero channels of an F-curve leg of label indices: (W, rank(leg + [dual W])) pairs (cached).

    rank(leg + [dual W]) is the multiplicity of W in the fusion product of the
    leg, so the support is that product, folded pair by pair in the leg's
    order, and listed in index order.
    """
    key = tuple(sorted(leg))
    cached = datum._leg_cache.get(key)
    if cached is None:
        fused = {leg[0]: 1}
        for m in leg[1:]:
            folded: dict = {}
            for x, mx in fused.items():
                for y, my in datum._table(x, m).items():
                    folded[y] = folded.get(y, 0) + mx * my
            fused = folded
        cached = datum._leg_cache[key] = tuple(sorted(fused.items()))
    return cached


def four_block_partitions(n: int):
    """All partitions of {1..n} into exactly four nonempty unordered blocks."""
    blocks: list = [[], [], [], []]

    def rec(i: int, used: int):
        if n - i < 4 - used:
            return
        if i == n:
            if used == 4:
                yield tuple(tuple(b) for b in blocks)
            return
        elem = i + 1
        for j in range(used):
            blocks[j].append(elem)
            yield from rec(i + 1, used)
            blocks[j].pop()
        if used < 4:
            blocks[used].append(elem)
            yield from rec(i + 1, used + 1)
            blocks[used].pop()

    yield from rec(0, 0)


def is_trivial(datum: FusionDatum, modules: Sequence[Label]) -> bool:
    """True iff the divisor intersects every F-curve in zero.

    Relies on the standard fact that F-curve classes span the numerical curve
    space of the moduli of n-pointed rational curves.
    """
    ms = tuple(modules)
    n = len(_check_modules(datum, ms, minimum=4))
    for blocks in four_block_partitions(n):
        curve = FCurve.from_blocks(blocks, n)
        if fcurve_intersect(datum, ms, curve) != 0:
            return False
    return True


def scan_f_positivity(datum: FusionDatum, subring_labels: Iterable[Label], jobs: int = 1) -> ScanReport:
    """Exhaustive F-positivity scan over all unordered 4-multisets of a subring.

    Records the minimum degree over the multisets of nonzero rank and every
    strictly negative instance, in label-index enumeration order.  Only those
    multisets are visited: for a <= b <= c they are the (a, b, c, d) with d the
    dual of a channel of (a (x) b) (x) c and d >= c, and d lies in the subring
    because it is closed under fusion and duals.  ``tuples_examined`` counts
    every multiset, C(N + 3, 4).  The scan is serial; ``jobs`` is accepted and
    ignored.
    """
    sub = [datum._index[m] for m in validate_subring(datum, subring_labels)]
    start = time.perf_counter()
    labels, dual, table, den = datum.labels, datum._dual, datum._table, datum._cw_den
    least: Optional[int] = None
    negatives = []
    for i, a in enumerate(sub):
        for j in range(i, len(sub)):
            b = sub[j]
            ab = table(a, b)
            for c in sub[j:]:
                closing = {dual[y] for x in ab for y in table(x, c)}
                for d in sorted(d for d in closing if d >= c):
                    deg = _degree(datum, (a, b, c, d))
                    if least is None or deg < least:
                        least = deg
                    if deg < 0:
                        negatives.append(((labels[a], labels[b], labels[c], labels[d]), Fraction(deg, den)))
    return ScanReport(
        tuples_examined=comb(len(sub) + 3, 4),
        min_degree=Fraction(0 if least is None else least, den),
        counterexamples=tuple(negatives),
        elapsed=time.perf_counter() - start,
    )


def positivity_certificate(datum: FusionDatum, subring_labels: Iterable[Label]) -> PositivityCertificate:
    """Conformal-weight window [f_max/2, f_min] for an abelian subring.

    f_min/f_max run over the non-unit simples (both 0 for the unit-only
    subring).  The interval exists iff the subring is abelian, all weights are
    nonnegative and f_max <= 2*f_min; paired with a clean F-positivity scan it
    certifies nefness of every divisor supported on the subring.
    """
    sub = [datum._index[m] for m in validate_subring(datum, subring_labels)]
    abelian = True
    for a, b in combinations_with_replacement(sub, 2):
        table = datum._table(a, b)
        if len(table) != 1 or next(iter(table.values())) != 1:
            abelian = False
            break
    unit = datum._index[datum.unit]
    weights = [datum._cw[m] for m in sub if m != unit]
    if weights:
        f_min, f_max = min(weights), max(weights)
    else:
        f_min = f_max = Fraction(0)
    interval = None
    if abelian and f_max <= 2 * f_min and all(datum._cw[m] >= 0 for m in sub):
        interval = (Fraction(f_max, 2), f_min)
    return PositivityCertificate(abelian=abelian, f_min=f_min, f_max=f_max, c_interval=interval)


def degree_11(datum: FusionDatum, w: Label) -> Fraction:
    """Degree of the genus-one 1-point divisor attached to a simple module."""
    i = datum.index(w)
    half_c = Fraction(datum.central_charge, 2)
    total = Fraction(0)
    for t in range(len(datum.labels)):
        r = datum._table(i, t).get(t, 0)  # rank3(w, wt, dual wt): the multiplicity of wt in w (x) wt
        if r:
            total += (half_c + datum._cw[i] - 12 * datum._cw[t]) * r
    return total


def lambda_threshold(datum: FusionDatum, subring_labels: Iterable[Label]) -> Fraction:
    """Least t >= 0 with t + c/2 + cw(W) - 12*cw(W~) >= 0 over all in-scope pairs.

    W ranges over the subring, W~ over all labels with rank3(W, W~, dual W~)
    nonzero (the elliptic-tail channels).
    """
    sub = [datum._index[m] for m in validate_subring(datum, subring_labels)]
    half_c = Fraction(datum.central_charge, 2)
    best: Optional[Fraction] = None
    for i in sub:
        cw_w = datum._cw[i]
        for t in range(len(datum.labels)):
            if t in datum._table(i, t):  # rank3(w, wt, dual wt) >= 1
                value = 12 * datum._cw[t] - half_c - cw_w
                if best is None or value > best:
                    best = value
    if best is None or best < 0:
        return Fraction(0)
    return best
