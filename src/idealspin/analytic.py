"""The analytic experiment harness: prime-spin sums, congruence sums,
bilinear forms, the exact sieve decomposition of Lambda-weighted sums, and
sliding-window character-sum scans.

Every log-weighted quantity is carried as a formal integer combination of
{log p} (see logcomb), so the decomposition identity is checked with zero
tolerance.  Floats only appear in rendered reports and Burgess ratios.
"""

import bisect
from dataclasses import dataclass
from math import gcd

from .arith import iroot_ceil
from .errors import CostGuard, HypothesisViolated
from .ideals import (
    IdealFactorization,
    apply_galois_ideal,
    enumerate_ideals,
    enumerate_prime_ideals,
    mangoldt,
    moebius,
    log_norm,
    prime_power_ideal,
    tau,
)
from .logcomb import LogCombination
from .spin import spin, spin_prime_stream
from .symbols import DirichletChar
from .units import FundamentalDomain

DEFAULT_BUDGET = 10_000_000


class SequenceA:
    """A bounded ideal sequence a_n with |a_n| <= 1, cached per ideal."""

    def __init__(self, fn, name="custom", ctx=None):
        self.fn = fn
        self.name = name
        self.ctx = ctx
        self._cache: dict = {}

    def __call__(self, ideal: IdealFactorization) -> int:
        key = ideal.factors
        if key not in self._cache:
            v = self.fn(ideal)
            if not -1 <= v <= 1:
                raise ValueError("sequence values must lie in [-1, 1]")
            self._cache[key] = v
        return self._cache[key]


def ones_sequence() -> SequenceA:
    return SequenceA(lambda I: 1, name="ones")


def spin_sequence(ctx, dom: FundamentalDomain) -> SequenceA:
    """a_n = spin(sigma, n) on odd principal ideals, 0 on the unit ideal and
    on even ideals."""

    def fn(ideal: IdealFactorization) -> int:
        if ideal.is_unit_ideal() or not ideal.is_odd():
            return 0
        return spin(ctx, dom, ideal, 1)

    return SequenceA(fn, name="spin", ctx=ctx)


# ---------------------------------------------------------------------------
# prime sums


def spin_sum(ctx, dom: FundamentalDomain, X: int, k: int = 1, mod8_class=None):
    """Sum of spin(sigma^k, p) over prime ideals of norm <= X, optionally
    restricted to generators in one class mod 8.  Returns (sum,
    prime_count)."""
    total = 0
    count = 0
    for rec in spin_prime_stream(ctx, dom, X, mod8_class=mod8_class):
        count += 1
        total += rec.spins[k - 1]
    return total, count


def congruence_sum(ctx, seq: SequenceA, d: IdealFactorization, X: int,
                   F: int | None = None) -> int:
    """A_d(x) = sum of a_n over n = 0 mod d with Nn <= x, with the section-5
    hypotheses checked: d odd, coprime to its conjugate and to F."""
    if not d.is_odd():
        raise HypothesisViolated("congruence modulus must be odd")
    if not d.coprime_to(apply_galois_ideal(ctx, d, 1)):
        raise HypothesisViolated("modulus shares a factor with its conjugate")
    if F is not None and gcd(d.norm, F) != 1:
        raise HypothesisViolated("modulus must be coprime to F")
    bound = X // d.norm
    total = 0
    for L in enumerate_ideals(ctx, bound):
        n = d * L
        if F is not None and gcd(n.norm, F) != 1:
            continue
        total += seq(n)
    return total


def bilinear_form(ctx, seq: SequenceA, M: int, N: int, v, w,
                  budget: int = DEFAULT_BUDGET):
    """B(M,N) = sum_{Nm<=M} sum_{Nn<=N} v_m w_n a_{mn}, exactly.

    Coefficient callables may return ints/Fractions or LogCombinations (at
    most one side formal).  Bounds |v| <= Lambda, |w| <= tau are spot-checked
    by sampling."""
    if M * N > budget:
        raise CostGuard(f"bilinear grid {M}x{N} exceeds budget {budget}")
    ms = enumerate_ideals(ctx, M)
    ns = enumerate_ideals(ctx, N)
    _sample_bound_check(ms, v, lambda I: abs(mangoldt(I).value()) + 1e-9, "Lambda")
    _sample_bound_check(ns, w, lambda I: tau(I), "tau")
    total_log = LogCombination()
    total_num = 0
    for m in ms:
        vm = v(m)
        if vm == 0 or (isinstance(vm, LogCombination) and vm.is_zero()):
            continue
        for n in ns:
            wn = w(n)
            if wn == 0:
                continue
            a = seq(m * n)
            if a == 0:
                continue
            term_is_log, term = _mul3(vm, wn, a)
            if term_is_log:
                total_log = total_log + term
            else:
                total_num += term
    if total_log.is_zero():
        return total_num
    if total_num != 0:
        raise TypeError("mixed formal and numeric contributions")
    return total_log


def _mul3(vm, wn, a):
    if isinstance(vm, LogCombination) and isinstance(wn, LogCombination):
        raise TypeError("cannot multiply two formal log combinations")
    if isinstance(vm, LogCombination):
        return True, (wn * a) * vm
    if isinstance(wn, LogCombination):
        return True, (vm * a) * wn
    return False, vm * wn * a


def _sample_bound_check(ideals, coeff, bound_fn, name):
    step = max(1, len(ideals) // 40)
    for I in ideals[::step]:
        c = coeff(I)
        mag = abs(c.value()) if isinstance(c, LogCombination) else abs(float(c))
        if mag > bound_fn(I) + 1e-9:
            raise ValueError(f"coefficient exceeds the {name} bound at {I!r}")


# ---------------------------------------------------------------------------
# the exact decomposition of S(x) - S(z)


@dataclass
class VaughanReport:
    x: int
    y: int
    z: int
    S_x: LogCombination
    S_z: LogCombination
    S1: LogCombination
    S2: LogCombination
    S3: LogCombination

    @property
    def exact_identity_holds(self) -> bool:
        return (self.S_x - self.S_z) == (self.S1 - self.S2 - self.S3)


def _weighted_prime_power_sum(seq, ideals_upto):
    total = LogCombination()
    for I in ideals_upto:
        lam = mangoldt(I)
        if lam.is_zero():
            continue
        a = seq(I)
        if a:
            total = total + a * lam
    return total


def vaughan_verify(ctx, seq: SequenceA, x: int, y: int, z: int,
                   budget: int = DEFAULT_BUDGET) -> VaughanReport:
    """Compute S(x), S(z) and the three partial sums of the sieve
    decomposition exactly and report whether
    S(x) - S(z) = S1 - S2 - S3 holds as a formal identity (it must, for any
    bounded sequence)."""
    if x != y * z or not (2 <= y <= z):
        raise ValueError("need x = y z with z >= y >= 2")
    if x > budget:
        raise CostGuard(f"x = {x} exceeds budget")
    ideals = enumerate_ideals(ctx, x)
    norms = [I.norm for I in ideals]

    def upto(bound):
        return ideals[: bisect.bisect_right(norms, bound)]

    S_x = _weighted_prime_power_sum(seq, ideals)
    S_z = _weighted_prime_power_sum(seq, upto(z))

    # S1 = sum_{Nm<=y} mu(m) sum_{l: Nl <= x/Nm} a_{ml} log Nl
    S1 = LogCombination()
    for m in upto(y):
        mu_m = moebius(m)
        if mu_m == 0:
            continue
        for L in upto(x // m.norm):
            a = seq(m * L)
            if a:
                S1 = S1 + (mu_m * a) * log_norm(L)

    squarefree_y = [I for I in upto(y) if moebius(I) != 0]

    def lambda_mu_sum(prime_powers):
        # sum over d = a*m, a in prime_powers, Nm <= y: mu(m) Lambda(a) A_d(x)
        total = LogCombination()
        for A in prime_powers:
            lam = mangoldt(A)
            for Mm in squarefree_y:
                d = A * Mm
                if d.norm > x:
                    continue
                coeff = 0
                for L in upto(x // d.norm):
                    coeff += seq(d * L)
                if coeff:
                    total = total + (moebius(Mm) * coeff) * lam
        return total

    # S2 over prime powers Na <= y, S3 over y < Na <= z
    S2 = lambda_mu_sum([I for I in upto(y) if len(I.factors) == 1])
    S3 = lambda_mu_sum([I for I in upto(z) if I.norm > y and len(I.factors) == 1])
    return VaughanReport(x, y, z, S_x, S_z, S1, S2, S3)


# ---------------------------------------------------------------------------
# character-sum scans


def char_sum_scan(chi: DirichletChar, N: int, M_range=None, progression=None):
    """Sliding-window maximum of |sum_{M < n <= M+N} chi(n)| over all window
    starts M (full period by default), O(1) per shift.  The progression
    variant keeps only n = l mod k.  Returns (max_abs, argmax_M)."""
    q = chi.modulus
    table = chi.table()
    if M_range is None:
        M_range = range(q)
    ms = list(M_range)
    if not ms:
        raise ValueError("empty M range")

    if progression is not None:
        k, l = progression
        if gcd(k, q) != 1:
            raise ValueError("progression modulus must be coprime to q")

        def term(n):
            return table[n % q] if n % k == l % k else 0
    else:
        def term(n):
            return table[n % q]

    start = ms[0]
    cur = sum(term(n) for n in range(start + 1, start + N + 1))
    best, arg = abs(cur), start
    prev = start
    for M in ms[1:]:
        if M == prev + 1:
            cur = cur - term(M) + term(M + N)
        else:
            cur = sum(term(n) for n in range(M + 1, M + N + 1))
        if abs(cur) > best:
            best, arg = abs(cur), M
        prev = M
    return best, arg


def burgess_scan(ctx, q_max: int) -> dict:
    """For every real nonprincipal character chi_q from degree-one primes of
    norm q <= q_max: slide a window of length ceil(q^(1/3)) over a full
    period and record max |S| / (N^(5/6) q^(7/144)).  Conjugate primes give
    the same character, so each rational prime is scanned once."""
    rows = []
    best = (0.0, None)
    seen = set()
    for pr in enumerate_prime_ideals(ctx, q_max, degree_one_only=True):
        if pr.p in seen or pr.p == 2:
            continue
        seen.add(pr.p)
        chi = DirichletChar(ctx, prime_power_ideal(pr))
        if chi.is_principal():
            continue  # impossible for non-squarefull norms; kept as a guard
        q = chi.modulus
        N = iroot_ceil(q, 3)
        max_abs, arg = char_sum_scan(chi, N)
        ratio = max_abs / (N ** (5.0 / 6.0) * q ** (7.0 / 144.0))
        rows.append({"q": q, "N": N, "max_abs": max_abs, "argmax_M": arg,
                     "ratio": ratio})
        if ratio > best[0]:
            best = (ratio, q)
    return {"max_ratio": best[0], "argmax_q": best[1], "rows": rows}
