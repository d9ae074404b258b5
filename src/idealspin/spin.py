"""The spin of odd principal ideals: canonical totally positive generators,
per-prime spin records, congruence-filtered prime streams, and the
structural relations (conjugation, twisted multiplicativity).

The canonical generator of an ideal is fixed once: totally positive,
trace-minimal in the closed fundamental domain, lexicographic tie-break.
Congruence filters never move the generator; they ask units.square_multiplier
whether some unit-square multiple of it lies in the target classes, one
lookup in a table of the unit squares' classes modulo the filter moduli.
"""

from dataclasses import dataclass

from .errors import EvenIdeal, GeneratorNotFound, NotCoprime
from .fields import FieldElement
from .ideals import (
    IdealFactorization,
    PrimeIdealData,
    apply_galois_ideal,
    find_generator,
    galois_prime,
    prime_ideals_in_norm_range,
    prime_power_ideal,
)
from .symbols import mu_and_mu2, prime_symbol, residue_symbol
from .units import FundamentalDomain, canonical_generator, square_multiplier


@dataclass(frozen=True)
class SpinRecord:
    prime: PrimeIdealData
    generator: FieldElement
    spins: tuple[int, ...]          # index k-1 holds spin(sigma^k)


def canonical_ideal_generator(ctx, dom: FundamentalDomain, ideal) -> FieldElement:
    if isinstance(ideal, PrimeIdealData):
        ideal = prime_power_ideal(ideal)
    g = find_generator(ctx, ideal)
    return canonical_generator(dom, g)


def spin(ctx, dom: FundamentalDomain, ideal, k: int) -> int:
    """spin(sigma^k, a) = (alpha / a^{an sigma^k}) for an odd principal ideal."""
    if isinstance(ideal, PrimeIdealData):
        ideal = prime_power_ideal(ideal)
    if not ideal.is_odd():
        raise EvenIdeal("spin is defined for odd ideals")
    if not 1 <= k <= ctx.degree - 1:
        raise ValueError("automorphism power out of range")
    g = canonical_ideal_generator(ctx, dom, ideal)
    return residue_symbol(ctx, g, apply_galois_ideal(ctx, ideal, k))


# ---------------------------------------------------------------------------
# spin records and streams


def spin_record(ctx, dom: FundamentalDomain, prime: PrimeIdealData) -> SpinRecord:
    """Canonical generator and all n-1 spin values for one prime ideal.
    Even primes carry zero spins (the symbol has no +-1 value there)."""
    n = ctx.degree
    p = prime.p
    if prime.f == n:
        g = canonical_generator(dom, ctx.coerce(p))
    else:
        g = canonical_ideal_generator(ctx, dom, prime)
    if p == 2 or prime.f > 1 or prime.e > 1:
        # no +-1 symbol at 2; otherwise sigma fixes the prime and the
        # generator sits in it, so every spin is 0
        spins = (0,) * (n - 1)
    else:
        spins = tuple(prime_symbol(ctx, g, galois_prime(ctx, prime, k)) for k in range(1, n))
    return SpinRecord(prime, g, spins)


def spin_prime_stream(ctx, dom: FundamentalDomain, X: int,
                      degree_one_only: bool = False,
                      mod8_class: tuple[int, ...] | None = None,
                      mod_M: tuple[int, tuple[int, ...]] | None = None,
                      lo: int = 1):
    """SpinRecords for prime ideals with lo <= norm <= X, in the order of
    prime_ideals_in_norm_range.  Yields ('record', SpinRecord) and, for
    primes whose generator search failed, ('generator_not_found',
    PrimeIdealData); the caller decides how to account for those.  With
    mod8_class or mod_M = (M, class), a record is kept only for an odd prime
    with a unit-square multiple of its generator in every given class."""
    conditions = []
    if mod8_class is not None:
        conditions.append((8, mod8_class))
    if mod_M is not None:
        conditions.append(mod_M)
    for prime in prime_ideals_in_norm_range(ctx, lo, X, degree_one_only):
        try:
            rec = spin_record(ctx, dom, prime)
        except GeneratorNotFound:
            yield ("generator_not_found", prime)
            continue
        if conditions and (prime.p == 2
                           or square_multiplier(ctx, conditions, rec.generator) is None):
            continue  # filtered streams keep odd primes only
        yield ("record", rec)


def collect_spin_records(ctx, dom, X, **kw):
    """Materialize the stream: (records_sorted, failures)."""
    recs, fails = [], []
    for kind, item in spin_prime_stream(ctx, dom, X, **kw):
        if kind == "record":
            recs.append(item)
        else:
            fails.append(item)
    recs.sort(key=lambda r: r.prime.sort_key)
    return recs, fails


# ---------------------------------------------------------------------------
# structural relations


def twisted_multiplicativity_check(ctx, dom: FundamentalDomain,
                                   A: IdealFactorization,
                                   B: IdealFactorization) -> bool:
    """Exact h=1 factorization rule:
    spin(AB) = mu(beta^-, alpha) (alpha / B' B^-) spin(A) spin(B)."""
    n = ctx.degree
    if not (A.is_odd() and B.is_odd()):
        raise EvenIdeal("twisted multiplicativity needs odd ideals")
    for k in range(n):
        if not A.coprime_to(apply_galois_ideal(ctx, B, k)):
            raise NotCoprime("ideals must be coprime to all conjugates of each other")
    alpha = canonical_ideal_generator(ctx, dom, A)
    beta = canonical_ideal_generator(ctx, dom, B)
    lhs = spin(ctx, dom, A * B, 1)
    beta_minus = beta.galois(n - 1)
    mu, _ = mu_and_mu2(ctx, beta_minus, alpha)
    cross = residue_symbol(
        ctx, alpha,
        apply_galois_ideal(ctx, B, 1) * apply_galois_ideal(ctx, B, n - 1),
    )
    rhs = mu * cross * spin(ctx, dom, A, 1) * spin(ctx, dom, B, 1)
    return lhs == rhs


def conjugation_relation_check(ctx, dom: FundamentalDomain,
                               prime: PrimeIdealData) -> bool:
    """spin(sigma) = spin(sigma^{-1}) mu_2(g, g^sigma); with g = 1 mod 4 the
    dyadic factor is +1 and the two spins agree."""
    n = ctx.degree
    rec = spin_record(ctx, dom, prime)
    first, last = rec.spins[0], rec.spins[n - 2]
    if prime.f > 1 or prime.e > 1 or prime.p == 2:
        return first == 0 and last == 0
    g = rec.generator
    _, m2 = mu_and_mu2(ctx, g, g.galois(1))
    ok = first == last * m2
    if all(c % 4 == (1 if i == 0 else 0) for i, c in enumerate(g.coords)):
        ok = ok and (first == last)
    return ok
