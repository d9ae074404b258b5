"""Spins for the involution of a real quadratic field, the closed-form
half-trace evaluation, and the §-level statistics.

Here the fixed field is Q, so the closed form is a classical Jacobi symbol
of the half-trace beta against the field discriminant d.  That symbol is
computed by the rational Jacobi routine, fully independent of the field
residue-symbol machinery, which is what makes the agreement check a genuine
dual pipeline.
"""

from dataclasses import dataclass

from .arith import jacobi, legendre
from .errors import HypothesisViolated
from .fields import FieldElement
from .ideals import (
    IdealFactorization,
    PrimeIdealData,
    apply_galois_ideal,
    elements_coprime,
    galois_prime,
    prime_ideals_in_norm_range,
)
from .spin import canonical_ideal_generator
from .symbols import prime_symbol, residue_symbol
from .units import FundamentalDomain, square_multiplier


@dataclass(frozen=True)
class QuadSpinRecord:
    p: int
    prime: PrimeIdealData
    pi: FieldElement          # totally positive generator, = 1 mod 8
    beta: int                 # half trace, a rational integer
    spin_direct: int
    spin_formula: int

    @property
    def agree(self) -> bool:
        return self.spin_direct == self.spin_formula


def _require_quadratic(ctx):
    if ctx.degree != 2:
        raise ValueError("involution spins need a real quadratic field")


def qualifying_generator(ctx, dom: FundamentalDomain, prime):
    """A totally positive generator = 1 mod 8 of a prime (or an ideal
    factorization): g * eps^(2k) for the canonical generator g and the least
    k >= 0, read from the table of unit-square classes mod 8
    (units.square_multiplier); None if no eps^(2k) reaches the class."""
    _require_quadratic(ctx)
    g = canonical_ideal_generator(ctx, dom, prime)
    w = square_multiplier(ctx, ((8, ctx.coords_mod(ctx.one, 8)),), g)
    return None if w is None else g * w


def spin_involution_direct(ctx, dom: FundamentalDomain, ideal) -> int:
    """(pi / a^sigma) with the field's own symbol machinery, for an odd
    principal ideal with a qualifying generator."""
    _require_quadratic(ctx)
    if isinstance(ideal, PrimeIdealData):
        if ideal.e > 1 or ideal.f > 1 or ideal.p == 2:
            return 0  # conjugate shares the prime (or even): symbol vanishes
        conj = galois_prime(ctx, ideal, 1)
    elif isinstance(ideal, IdealFactorization):
        conj = apply_galois_ideal(ctx, ideal, 1)
        if not ideal.coprime_to(conj):
            return 0
    else:
        raise TypeError("need a prime or an ideal factorization")
    pi = qualifying_generator(ctx, dom, ideal)
    if pi is None:
        raise HypothesisViolated("no totally positive generator = 1 mod 8")
    return residue_symbol(ctx, pi, conj)


def spin_involution_formula(ctx, pi: FieldElement) -> int:
    """Closed form: the rational Jacobi symbol (beta / d) of the half-trace.

    Hypotheses: pi totally positive, = 1 mod 8, coprime to its conjugate."""
    _require_quadratic(ctx)
    d = ctx.disc_field
    if ctx.coords_mod(pi, 8) != ctx.coords_mod(ctx.one, 8):
        raise HypothesisViolated("generator must be = 1 mod 8")
    if not ctx.is_totally_positive(pi):
        raise HypothesisViolated("generator must be totally positive")
    if not elements_coprime(ctx, pi, pi.galois(1)):
        raise HypothesisViolated("generator shares a factor with its conjugate")
    t = pi.trace()
    if t % 2:
        raise ArithmeticError("half-trace is not integral")  # pragma: no cover
    beta = t // 2
    return jacobi(beta % d, d)


def half_trace_invariants(ctx, pi: FieldElement) -> dict:
    """Exact checks around beta and gamma: beta = 1 mod 4, gamma = 0 mod 4,
    N(pi) = beta^2 - gamma^2."""
    beta = pi.trace() // 2
    gamma = pi - ctx.coerce(beta)            # (pi - sigma pi)/2 as an element
    gamma2 = (gamma * gamma).coords          # rational integer: coords (g2, 0)
    ok = {
        "beta_1_mod_4": beta % 4 == 1,
        "gamma_0_mod_4": all(int(c) % 4 == 0 for c in gamma.coords),
        "norm_split": pi.norm() == beta * beta - int(gamma2[0]),
    }
    ok["all"] = all(ok.values())
    return ok


def lemma_10_3_check(ctx, x: int, prime: PrimeIdealData) -> bool:
    """(x/P)_K = (x/p)_Q for odd split P over p, rational x coprime to p."""
    _require_quadratic(ctx)
    if prime.p == 2 or prime.e > 1 or prime.f > 1:
        raise ValueError("need an odd split degree-one prime")
    if x % prime.p == 0:
        raise ValueError("x must be coprime to p")
    lhs = prime_symbol(ctx, ctx.coerce(x), prime)
    rhs = legendre(x, prime.p)
    return lhs == rhs


def eq_10_11_sum(ctx) -> int:
    """Exact full residue sum of Jacobi(trace, d) over the classes of O/dO
    coprime to the ramified prime; the change-of-variable argument makes it
    vanish."""
    _require_quadratic(ctx)
    d = ctx.disc_field
    total = 0
    for x in range(d):
        for y in range(d):
            if ctx.norm_coords((x, y)) % d == 0:
                continue
            total += jacobi((ctx.trace_coords((x, y))) % d, d)
    return total


def quad_spin_records(ctx, dom: FundamentalDomain, X: int, lo: int = 1):
    """QuadSpinRecords for qualifying rational primes lo <= p <= X: odd,
    split, and the prime P at position 0 has a totally positive generator
    pi = 1 mod 8, which qualifying_generator reads from the unit-square
    table as g * eps^(2k) with the least k.  One record per rational prime:
    the canonical generators of P and its conjugate differ by a totally
    positive unit eps^(2k), and sigma(eps^2) = eps^-2 while sigma fixes the
    class 1 mod 8, so both primes qualify alike and carry the same spin."""
    _require_quadratic(ctx)
    for prime in prime_ideals_in_norm_range(ctx, lo, X, degree_one_only=True):
        p = prime.p
        if p == 2 or prime.e > 1 or prime.position != 0:
            continue
        pi = qualifying_generator(ctx, dom, prime)
        if pi is None:
            continue
        direct = prime_symbol(ctx, pi, galois_prime(ctx, prime, 1))
        formula = spin_involution_formula(ctx, pi)
        yield QuadSpinRecord(p, prime, pi, pi.trace() // 2, direct, formula)


def involution_spin_sum(ctx, dom: FundamentalDomain, X: int) -> dict:
    """Sum and count of involution spins over qualifying rational primes
    p <= X (one per p), plus the exact vanishing of the full residue sum."""
    total = 0
    count = 0
    disagreements = 0
    for rec in quad_spin_records(ctx, dom, X):
        total += rec.spin_direct
        count += 1
        if not rec.agree:
            disagreements += 1
    return {
        "sum": total,
        "count": count,
        "disagreements": disagreements,
        "complete_sum": eq_10_11_sum(ctx),
    }
