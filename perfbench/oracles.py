"""Answers computed apart from the engine, used to check every benchmark output.

Nothing here calls the engine's factorization code.  The oracles are:

* fusion models written from the fusion rules as published, with
  Fakhruddin's formulas for the rank, the 4-point degree and the divisor class
  evaluated over them by left folds of the fusion product:
  - the abelian group law of S_r(k) (weight max(a) - (sum a^2 -
    sum_{i<j} a_i a_j)/k) and of Z/m (weight a(m-a)/(2m)), where every
    product has the single channel "sum";
  - truncated Clebsch-Gordan fusion of affine sl2 (weight l(l+2)/(4(k+2)));
  - the sl2 parafermion as su(2)_k x u(1) charge, with the coset weight
    l(l+2)/(4(k+2)) - m^2/(4k);
* the abelian F-curve collapse: each leg has the one channel "sum of the
  leg", so an intersection number is the degree of the spine of sums;
* Keel's intersection numbers of F-curves with the psi / boundary basis,
  applied to the coefficients that the ``class`` verb prints;
* the closed forms shipped beside the engine (``rank4_closed``,
  ``degree04_closed``, ``nontrivial_S1``, ``negative_witness``) and the
  rank-aware T rule, each a method separate from factorization;
* the multiset count C(N+3, 4) of a scan.

Labels are plain tuples of ints here; the workloads translate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb


def multisets_examined(n_labels: int) -> int:
    """Unordered 4-multisets over n labels."""
    return comb(n_labels + 3, 4)


# -- F-curves and Keel's numbers --------------------------------------------------


def canonical_blocks(blocks) -> tuple:
    """Blocks sorted inside and ordered by (size, elements), as F-curves are kept."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: (len(b), b)))


def fcurve_text(blocks) -> str:
    return "|".join("{" + ",".join(str(i) for i in b) + "}" for b in canonical_blocks(blocks))


@lru_cache(maxsize=None)
def all_fcurves(n: int) -> tuple:
    """Every partition of {1..n} into four nonempty blocks (S(n,4) of them)."""
    out = []

    def grow(i, blocks):
        if n - i + 1 < 4 - len(blocks):
            return
        if i > n:
            out.append(canonical_blocks(blocks))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        if len(blocks) < 4:
            blocks.append([i])
            grow(i + 1, blocks)
            blocks.pop()

    grow(1, [])
    return tuple(out)


def boundary_key(subset, n: int) -> tuple:
    """Representative of {I, I^c}: the smaller side, the lexicographically least on ties."""
    s = tuple(sorted(subset))
    c = tuple(i for i in range(1, n + 1) if i not in s)
    if len(s) != len(c):
        return s if len(s) < len(c) else c
    return min(s, c)


def keel_intersection(n: int, psi, boundary, blocks) -> Fraction:
    """F.D = sum_{singleton {i}} c_i + sum_{|I_j|>=2} b_{I_j} - sum_{j=2..4} b_{I_1 u I_j}.

    ``psi`` lists c_1..c_n and ``boundary`` maps canonical subsets to b_I, for
    the divisor D = sum c_i psi_i - sum b_I delta_I (Keel 1992).
    """
    blocks = canonical_blocks(blocks)
    total = Fraction(0)
    for b in blocks:
        total += psi[b[0] - 1] if len(b) == 1 else boundary[boundary_key(b, n)]
    for other in blocks[1:]:
        total -= boundary[boundary_key(blocks[0] + other, n)]
    return total


# -- fusion models -------------------------------------------------------------------


class FusionModel:
    """A fusion ring given by ``channels``, ``dual``, ``weight`` and ``vacuum``."""

    vacuum: tuple

    def channels(self, x, y) -> list:
        raise NotImplementedError

    def dual(self, x):
        raise NotImplementedError

    def weight(self, x) -> Fraction:
        raise NotImplementedError

    def fold(self, xs) -> dict:
        """Multiplicity of every channel in x_1 (x) ... (x) x_n."""
        acc = {xs[0]: 1}
        for y in xs[1:]:
            nxt: dict = {}
            for x, mult in acc.items():
                for c in self.channels(x, y):
                    nxt[c] = nxt.get(c, 0) + mult
            acc = nxt
        return acc

    def rank(self, xs) -> int:
        """Multiplicity of the vacuum in the product of all n labels."""
        return self.fold(list(xs)).get(self.vacuum, 0)

    def degree4(self, xs) -> Fraction:
        """mu sum w(x_i) - sum_p sum_X w(X*) N(x_1, x_p; X) N(x_q, x_r; X*).

        The channel X of x_1 (x) x_p is weighed on the side of the other pair,
        as its dual X*.
        """
        mu = self.rank(xs)
        if mu == 0:
            return Fraction(0)
        total = mu * sum((self.weight(x) for x in xs), Fraction(0))
        for p in range(1, 4):
            q, r = (i for i in range(1, 4) if i != p)
            right = self.fold([xs[q], xs[r]])
            for x, m1 in self.fold([xs[0], xs[p]]).items():
                xd = self.dual(x)
                total -= self.weight(xd) * m1 * right.get(xd, 0)
        return total

    def divisor_class(self, xs):
        """(mu, psi, boundary): psi_i = mu w(x_i), b_I = sum_W w(W) rank(x_I + W) rank(x_{I^c} + W*)."""
        n = len(xs)
        mu = self.rank(xs)
        psi = [mu * self.weight(x) for x in xs]
        boundary = {}
        for size in range(2, n // 2 + 1):
            for subset in combinations(range(1, n + 1), size):
                if boundary_key(subset, n) != subset:
                    continue
                inside = self.fold([xs[i - 1] for i in subset])
                outside = self.fold([xs[i - 1] for i in range(1, n + 1) if i not in subset])
                # rank(x_I + W) is the multiplicity of W* in the product over I
                boundary[subset] = sum(
                    (self.weight(self.dual(wd)) * m * outside.get(self.dual(wd), 0) for wd, m in inside.items()),
                    Fraction(0),
                )
        return mu, psi, boundary

    def scan(self, elements, scale: Fraction = Fraction(1)):
        """(examined, min degree, sorted negatives) over all 4-multisets of ``elements``.

        For a <= b <= c the multisets of nonzero rank are those closed by a
        fourth label d >= c with d* in a (x) b (x) c.
        """
        index = {x: i for i, x in enumerate(elements)}
        degrees = []
        for ia, ib, ic in combinations_with_replacement(range(len(elements)), 3):
            triple = [elements[ia], elements[ib], elements[ic]]
            for x in self.fold(triple):
                d = self.dual(x)
                if index.get(d, -1) >= ic:
                    tup = (*triple, d)
                    degrees.append((tup, scale * self.degree4(tup)))
        min_degree = min((deg for _, deg in degrees), default=Fraction(0))
        negatives = sorted((tuple(sorted(t)), deg) for t, deg in degrees if deg < 0)
        return multisets_examined(len(elements)), min_degree, negatives


class AbelianModel(FusionModel):
    """(Z/k)^r with one channel per product; elements are r-tuples of residues."""

    def __init__(self, r: int, k: int, weight):
        self.r, self.k, self._weight = r, k, weight
        self.vacuum = (0,) * r

    def elements(self) -> list:
        out = [()]
        for _ in range(self.r):
            out = [x + (v,) for x in out for v in range(self.k)]
        return out

    def add(self, *xs) -> tuple:
        return tuple(sum(col) % self.k for col in zip(*xs))

    def channels(self, x, y) -> list:
        return [self.add(x, y)]

    def dual(self, x) -> tuple:
        return tuple((-v) % self.k for v in x)

    def weight(self, x) -> Fraction:
        return self._weight(x, self.k)

    def fcurve(self, xs, blocks) -> Fraction:
        """Each leg collapses to the one channel "sum of the leg"; the spine carries it."""
        return self.degree4([self.add(*(xs[i - 1] for i in b)) for b in canonical_blocks(blocks)])


def slr_weight(a: tuple, k: int) -> Fraction:
    """max(a) - (sum a^2 - sum_{i<j} a_i a_j)/k, with the cross sum from (sum a)^2."""
    s = sum(a)
    sq = sum(x * x for x in a)
    return Fraction(k * max(a) - sq + (s * s - sq) // 2, k)


def cyclic_weight(a: tuple, m: int) -> Fraction:
    return Fraction(a[0] * (m - a[0]), 2 * m)


class AffineModel(FusionModel):
    """Affine sl2 at level k; labels are 1-tuples (lam,), all self-dual."""

    def __init__(self, k: int):
        self.k = k
        self.vacuum = (0,)

    def channels(self, x, y) -> list:
        a, b = x[0], y[0]
        return [(c,) for c in range(abs(a - b), min(a + b, 2 * self.k - a - b) + 1, 2)]

    def dual(self, x) -> tuple:
        return x

    def weight(self, x) -> Fraction:
        return Fraction(x[0] * (x[0] + 2), 4 * (self.k + 2))


class Sl2Model(FusionModel):
    """The sl2 parafermion at level k: su(2)_k channels carrying the u(1) charge 2j - i.

    Labels (i, j) are canonical, 0 <= j < i <= k, under M^{i,j} ~ M^{k-i,j-i}.
    """

    def __init__(self, k: int):
        self.k = k
        self.vacuum = (k, 0)

    def canonical(self, i: int, j: int) -> tuple:
        j %= self.k
        return (i, j) if j < i else (self.k - i, (j - i) % self.k)

    def labels(self) -> list:
        return [(i, j) for i in range(1, self.k + 1) for j in range(i)]

    def channels(self, x, y) -> list:
        (i1, j1), (i2, j2) = x, y
        charge = 2 * j1 - i1 + 2 * j2 - i2
        top = min(i1 + i2, 2 * self.k - i1 - i2)
        return [self.canonical(l, (charge + l) // 2) for l in range(abs(i1 - i2), top + 1, 2)]

    def dual(self, x) -> tuple:
        return self.canonical(x[0], x[0] - x[1])

    def weight(self, x) -> Fraction:
        """Coset weight l(l+2)/(4(k+2)) - m^2/(4k) with l = i and m = i - 2j."""
        l, m = x[0], x[0] - 2 * x[1]
        return Fraction(l * (l + 2), 4 * (self.k + 2)) - Fraction(m * m, 4 * self.k)

    def lambda_threshold(self) -> Fraction:
        """Threshold of any subring holding the vacuum: max(0, 12 max h - c/2).

        The vacuum pairs with every label W~ and no weight is negative, so the
        pair (vacuum, argmax h) attains the maximum of 12 h(W~) - c/2 - h(W).
        """
        weights = [self.weight(x) for x in self.labels()]
        if min(weights) < 0:
            raise ValueError(f"negative parafermion weight at level {self.k}")
        half_c = Fraction(self.k - 1, self.k + 2)
        return max(Fraction(0), 12 * max(weights) - half_c)


# -- closed forms and rules shipped beside the engine ------------------------------------


def sl2_closed_degree(sl2mod, labels) -> Fraction:
    """Degree of a 4-multiset by ``degree04_closed``.

    The closed form wants a base module and three dualized labels sorted by
    first component; one of the four bases of the multiset or of its dual
    multiset always qualifies (degrees are duality invariant on sl2).
    """
    for cand in (list(labels), [sl2mod.dual(m) for m in labels]):
        for b in range(4):
            others = sorted((sl2mod.dual(m) for q, m in enumerate(cand) if q != b), key=lambda x: x.i)
            if cand[b].i <= others[0].i:
                return sl2mod.degree04_closed(cand[b], others)
    raise ValueError(f"no sorted base for {labels}")


def t_rule_trivial(k: int, a_values) -> bool:
    """Rank-aware T rule: M^{2a_i,a_i} is trivial iff sum a_i <= k or the rank vanishes.

    The rank is the affine sl2 rank of the weights 2a_i (the T-affine pairing).
    """
    return sum(a_values) <= k or AffineModel(k).rank([(2 * a,) for a in a_values]) == 0
