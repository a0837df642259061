"""Rademacher moments, partition combinatorics, and the moment-to-tail rule.

Exact small-K machinery for sums S = sum_k eps_k c_k of independent signs:
even moments E|S|^p by exhaustive enumeration cross-checked against the
multinomial identity

    E|S|^(2j) = sum_{k_1+..+k_K = j} (2j)! / prod (2k_i)!  *  prod c_i^(2k_i)

(real coefficients; complex sums are enumerated only, since the identity picks
up cross terms otherwise).  The Khinchine ratio ||S||_p / (sqrt(p) ||c||_2)
stays <= 1 for all tested instances.

Partition counting: Stirling numbers of the second kind by the alternating-sum
formula cross-checked against the triangular recurrence, surjection counts
r! S(N, r) with their elementary bounds, the refined bound
S(j, r) <= 1/2 C(j, r) r^(j-r) for 1 <= r < j, and multiplicity-profile
partition classes whose counts resolve S(j, r) -- all exact integers.

The moment-to-tail converter turns a moment bound ||X||_p <= C N^(-alpha)
p^(k/2) into P(X > lam) <= C1 exp(-c N^(2 alpha/k) lam^(2/k)) by Chebyshev at
the fixed exponent p* = (lam N^alpha / (e C))^(2/k), clamped to p0; then
p*^(k/2) = lam N^alpha/(e C) by construction, so the Chebyshev value is
exactly e^(-p*), and C1 = e^(p0) absorbs the clamped range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CoefficientVector",
    "exact_moment",
    "khinchine_ratio",
    "DecoupledMomentResult",
    "decoupled_moment_check",
    "stirling2",
    "surjection_count",
    "StirlingRefinedVerdict",
    "stirling_refined_bound_check",
    "PartitionClass",
    "partition_classes",
    "bell_number",
    "MomentBound",
    "tail_from_moments",
]

MAX_EXACT_K = 24
MAX_EXACT_P = 12
MC_SAMPLES = 10**6
_MC_SEED_TAG = 0x4B48


@dataclass(frozen=True)
class CoefficientVector:
    """Finite coefficient sequence c_1..c_K, K <= 24 for exact enumeration."""

    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        vals = tuple(complex(v) for v in self.values)
        if not 1 <= len(vals) <= MAX_EXACT_K:
            raise ValueError(f"need 1 <= K <= {MAX_EXACT_K}, got K = {len(vals)}")
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def is_real(self) -> bool:
        return all(v.imag == 0.0 for v in self.values)

    @property
    def l2(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.values))

    def as_array(self) -> np.ndarray:
        if self.is_real:
            return np.array([v.real for v in self.values])
        return np.array(self.values)


def _coerce(c) -> CoefficientVector:
    return c if isinstance(c, CoefficientVector) else CoefficientVector(tuple(c))


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _moment_formula(values: np.ndarray, p: int) -> float:
    j = p // 2
    two_j_fact = math.factorial(2 * j)
    sq = values.astype(float) ** 2
    total = 0.0
    for ks in _compositions(j, len(values)):
        coef = two_j_fact
        for k in ks:
            coef //= math.factorial(2 * k)
        term = float(coef)
        for base, k in zip(sq, ks):
            if k:
                term *= base**k
        total += term
    return total


def _enumerated_sums(values: np.ndarray) -> np.ndarray:
    sums = np.zeros(1, dtype=values.dtype if values.dtype.kind == "c" else float)
    for ck in values:
        sums = np.concatenate([sums + ck, sums - ck])
    return sums


def exact_moment(c, p: int) -> float:
    """E|sum eps_k c_k|^p over all 2^K sign patterns, p even.

    Real vectors are cross-checked against the multinomial identity to 1e-12
    relative; a mismatch raises.
    """
    cv = _coerce(c)
    if p < 2 or p % 2 or p > MAX_EXACT_P:
        raise ValueError(f"p must be an even integer in [2, {MAX_EXACT_P}], got {p}")
    sums = _enumerated_sums(cv.as_array())
    enum = float(np.mean(np.abs(sums) ** p))
    if cv.is_real:
        formula = _moment_formula(cv.as_array(), p)
        scale = max(abs(enum), abs(formula), 1e-300)
        if abs(enum - formula) > 1e-12 * scale:
            raise AssertionError(
                f"enumeration {enum!r} and multinomial formula {formula!r} disagree")
    return enum


def khinchine_ratio(c, p: float) -> float:
    """||sum eps_k c_k||_p / (sqrt(p) ||c||_2).

    Even integer p <= 12: exact enumeration.  Other p >= 2: Monte Carlo with
    10^6 sign draws from a fixed counter-based stream (deterministic).
    """
    cv = _coerce(c)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if float(p).is_integer() and int(p) % 2 == 0 and p <= MAX_EXACT_P:
        moment = exact_moment(cv, int(p))
    else:
        rng = np.random.Generator(np.random.Philox(
            seed=np.random.SeedSequence((_MC_SEED_TAG, len(cv.values)))))
        signs = rng.integers(0, 2, size=(MC_SAMPLES, len(cv.values))) * 2 - 1
        s = signs @ cv.as_array()
        moment = float(np.mean(np.abs(s) ** p))
    ratio = moment ** (1.0 / p) / (math.sqrt(p) * cv.l2)
    if ratio > 1.0 + 1e-9:
        raise AssertionError(f"Khinchine ratio {ratio!r} exceeds 1 at p = {p}")
    return ratio


@dataclass(frozen=True)
class DecoupledMomentResult:
    """Measured decoupling constant plus the exact coefficient-identity check."""

    c_measured: float
    term_identity_ok: bool
    trials: int
    threshold: float = 1.2

    @property
    def ok(self) -> bool:
        return self.term_identity_ok and self.c_measured <= self.threshold


def _term_coefficient_identity(j: int, ks: tuple[int, ...]) -> bool:
    """(2j)!/prod(2k_i)! == [j!/prod k_i!] * [(2j)!/j!] * prod[k_i!/(2k_i)!],
    and the middle factor bound prod[k_i!/(2k_i)!] <= 1."""
    from fractions import Fraction

    best1 = Fraction(math.factorial(2 * j))
    for k in ks:
        best1 /= math.factorial(2 * k)
    best2 = Fraction(math.factorial(j))
    for k in ks:
        best2 /= math.factorial(k)
    factor = Fraction(math.factorial(2 * j), math.factorial(j))
    ratio = Fraction(1)
    for k in ks:
        ratio *= Fraction(math.factorial(k), math.factorial(2 * k))
    return best1 == best2 * factor * ratio and ratio <= 1


def decoupled_moment_check(b_sampler, K: int, p: int, trials: int,
                           seed: int = 0) -> DecoupledMomentResult:
    """Monte Carlo check of ||sum eps_k b_k||_p <= C sqrt(p) ||(sum b_k^2)^(1/2)||_p.

    ``b_sampler(rng, shape)`` draws the independent sequence b; the eps signs
    come from a separate stream.  Reports the measured C and verifies the
    exact coefficient identity behind the term-by-term comparison on all
    multi-indices of a small sweep.
    """
    if trials < 10**4:
        raise ValueError(f"need at least 1e4 trials, got {trials}")
    if p < 2 or p % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    rng_b = np.random.Generator(np.random.Philox(
        seed=np.random.SeedSequence((int(seed), 0xB5EED))))
    rng_e = np.random.Generator(np.random.Philox(
        seed=np.random.SeedSequence((int(seed), 0xE5EED))))
    b = np.asarray(b_sampler(rng_b, (trials, K)), dtype=float)
    if b.shape != (trials, K):
        raise ValueError(f"b_sampler returned shape {b.shape}, expected {(trials, K)}")
    eps = rng_e.integers(0, 2, size=(trials, K)) * 2 - 1
    lhs = float(np.mean(np.abs(np.sum(eps * b, axis=1)) ** p)) ** (1.0 / p)
    rhs = float(np.mean(np.sum(b**2, axis=1) ** (p / 2))) ** (1.0 / p)
    c_measured = lhs / (math.sqrt(p) * rhs) if rhs > 0 else math.inf

    j = p // 2
    identity_ok = all(
        _term_coefficient_identity(j, ks)
        for ks in _compositions(j, min(K, 4))
    )
    return DecoupledMomentResult(c_measured=c_measured, term_identity_ok=identity_ok,
                                 trials=trials)


# ---------------------------------------------------------------------------
# Stirling / partition combinatorics (exact integers throughout)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _stirling2_recurrence(j: int, r: int) -> int:
    if r == 0:
        return 1 if j == 0 else 0
    if j == 0 or r > j:
        return 0
    return r * _stirling2_recurrence(j - 1, r) + _stirling2_recurrence(j - 1, r - 1)


def stirling2(j: int, r: int) -> int:
    """Stirling number of the second kind S(j, r), exact.

    Alternating-sum formula, cross-checked against the triangular recurrence;
    a mismatch raises.
    """
    if not 0 <= r <= j <= 30:
        raise ValueError(f"need 0 <= r <= j <= 30, got j={j}, r={r}")
    total = 0
    for i in range(r + 1):
        total += (-1) ** i * math.comb(r, i) * (r - i) ** j
    formula = total // math.factorial(r)
    if total % math.factorial(r):
        raise AssertionError(f"alternating sum for S({j},{r}) not divisible by r!")
    if formula != _stirling2_recurrence(j, r):
        raise AssertionError(f"S({j},{r}): formula {formula} != recurrence value")
    return formula


def surjection_count(n_items: int, r: int) -> int:
    """Number r! S(N, r) of surjections [N] -> [r], exact.

    Enforces the elementary bounds r! S(N, r) <= r^N (equivalently
    r! S(N, r) / r^(N-r) <= r^r) before returning.
    """
    if not 1 <= r <= n_items <= 30:
        raise ValueError(f"need 1 <= r <= N <= 30, got N={n_items}, r={r}")
    count = math.factorial(r) * stirling2(n_items, r)
    if count > r**n_items:
        raise AssertionError(f"surjection count {count} exceeds r^N = {r**n_items}")
    from fractions import Fraction

    if Fraction(count, r ** (n_items - r)) > r**r:
        raise AssertionError(
            f"surjection count / r^(N-r) exceeds r^r for N={n_items}, r={r}")
    return count


@dataclass(frozen=True)
class StirlingRefinedVerdict:
    j: int
    r: int
    refined_ok: "bool | None"  # None at the excluded r = j boundary
    binomial_ok: bool

    @property
    def ok(self) -> bool:
        return self.binomial_ok and self.refined_ok is not False


def stirling_refined_bound_check(j: int, r: int) -> StirlingRefinedVerdict:
    """Check S(j,r) <= 1/2 C(j,r) r^(j-r) (for r < j) and C(j,r) <= (ej/r)^r.

    The r = j boundary is excluded from the refined bound (S = 1 > 1/2 there);
    the binomial bound is still checked.  Integer comparisons where possible.
    """
    if not 1 <= r <= j <= 20:
        raise ValueError(f"need 1 <= r <= j <= 20, got j={j}, r={r}")
    binom = math.comb(j, r)
    refined: bool | None
    if r < j:
        refined = 2 * stirling2(j, r) <= binom * r ** (j - r)
    else:
        refined = None
    binomial_ok = math.log(binom) <= r * (1.0 + math.log(j / r))
    return StirlingRefinedVerdict(j=j, r=r, refined_ok=refined, binomial_ok=binomial_ok)


@dataclass(frozen=True)
class PartitionClass:
    """Multiplicity profile of a set partition: r blocks of sizes alpha_1 >= ... >= alpha_r."""

    j: int
    r: int
    multiplicities: tuple[int, ...]
    count: int
    r_odd: int


def _descending_partitions(total: int, cap: int):
    if total == 0:
        yield ()
        return
    for first in range(min(cap, total), 0, -1):
        for rest in _descending_partitions(total - first, first):
            yield (first,) + rest


def partition_classes(j: int) -> list[PartitionClass]:
    """All multiplicity profiles of partitions of j labeled items.

    The count of set partitions realizing profile (alpha_1..alpha_r) is
    j! / (prod alpha_i! * prod_m mult_m!) with mult_m the number of blocks of
    size m; per r the counts sum to S(j, r).
    """
    if not 1 <= j <= 12:
        raise ValueError(f"need 1 <= j <= 12, got {j}")
    out = []
    for profile in _descending_partitions(j, j):
        denom = 1
        for a in profile:
            denom *= math.factorial(a)
        size_mult: dict[int, int] = {}
        for a in profile:
            size_mult[a] = size_mult.get(a, 0) + 1
        for m in size_mult.values():
            denom *= math.factorial(m)
        count = math.factorial(j) // denom
        if math.factorial(j) % denom:
            raise AssertionError(f"profile {profile}: count not integral")
        out.append(PartitionClass(
            j=j,
            r=len(profile),
            multiplicities=profile,
            count=count,
            r_odd=sum(1 for a in profile if a % 2),
        ))
    return out


def bell_number(j: int) -> int:
    """Bell number: total set partitions of j items, via sum_r S(j, r)."""
    return sum(stirling2(j, r) for r in range(0 if j == 0 else 1, j + 1))


# ---------------------------------------------------------------------------
# Moment-to-tail conversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentBound:
    """Moment growth ||X||_p <= c * n_scale^(-alpha) * p^(k/2) for p >= p0."""

    c: float
    alpha: float
    n_scale: float
    k: float
    p0: float = 2.0

    def __post_init__(self) -> None:
        if self.c <= 0 or self.n_scale <= 0 or self.k < 1 or self.p0 < 1:
            raise ValueError(f"invalid moment bound parameters: {self}")


def p_star(bound: MomentBound, lam: float) -> float:
    """The fixed Chebyshev exponent (lam N^alpha / (e c))^(2/k), clamped to p0."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    raw = (lam * bound.n_scale**bound.alpha / (math.e * bound.c)) ** (2.0 / bound.k)
    return max(raw, bound.p0)


def tail_from_moments(bound: MomentBound, lam: float) -> float:
    """P(X > lam) <= C1 exp(-c_exp N^(2 alpha/k) lam^(2/k)), C1 = e^(p0).

    The exponent equals the unclamped p*, so for p* >= p0 this dominates the
    Chebyshev value e^(-p*) and for smaller lam it exceeds 1 (vacuous but
    valid).  Monotone decreasing in lam, increasing in the moment constant.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    c_exp = (math.e * bound.c) ** (-2.0 / bound.k)
    exponent = c_exp * (bound.n_scale**bound.alpha * lam) ** (2.0 / bound.k)
    return math.exp(bound.p0) * math.exp(-exponent)
