"""The spin of odd principal ideals: canonical totally positive generators,
per-prime spin records, congruence-filtered prime streams, and the
structural relations (conjugation, twisted multiplicativity).

The canonical generator of an ideal is fixed once: totally positive,
trace-minimal in the closed fundamental domain, lexicographic tie-break.
The prime stream first certifies h+ = 1 (units.certify_h_plus_one), so
every prime of degree one has such a generator; it reads them from the
census of the norm window, and the primes above p, their positions and
their spins from one root of gcd(g, f) mod p, its Galois orbit and each
generator's values on it.  Only inert primes are split, and
spin_record's lattice search serves single ideals and the tests.
Congruence filters never move the generator; they ask units.square_multiplier
whether some unit-square multiple of it lies in the target classes, one
lookup in a table of the unit squares' classes modulo the filter moduli.
"""

from dataclasses import dataclass

from .arith import iroot_ceil, legendre, poly_gcd_modp, sieve_primes
from .errors import EvenIdeal, NotCoprime
from .fields import FieldElement
from .ideals import (
    IdealFactorization,
    PrimeIdealData,
    apply_galois_ideal,
    find_generator,
    galois_orbit,
    galois_prime,
    prime_power_ideal,
    split_prime,
)
from .symbols import mu_and_mu2, prime_symbol, residue_symbol
from .units import (
    FundamentalDomain,
    canonical_generator,
    census_window,
    certify_h_plus_one,
    square_multiplier,
)


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
    """SpinRecords for the prime ideals with lo <= norm <= X, ascending by
    (norm, p, position), once h+ = 1 is certified (HypothesisViolated
    otherwise).  With mod8_class or mod_M = (M, class), a record is kept
    only when a unit-square multiple of its generator lies in every given
    class.

    Every prime of degree one is principal with a totally positive
    generator, so its canonical generator is a census element of norm p:
    the least one lying in it when several lie on the domain boundary, as
    in reduce_to_domain.  Only the inert primes, of norm p^n, and the
    ramified ones are split."""
    certify_h_plus_one(dom)
    conditions = []
    if mod8_class is not None:
        conditions.append((8, mod8_class))
    if mod_M is not None:
        conditions.append(mod_M)
    n = ctx.degree
    records = _degree_one_records(ctx, dom, lo, X)
    if not degree_one_only:
        small = sieve_primes(iroot_ceil(X + 1, n) - 1, lo=iroot_ceil(lo, n))
        records += [spin_record(ctx, dom, prime) for p in small
                    for prime in split_prime(ctx, p) if prime.f == n]
    records.sort(key=lambda rec: rec.prime.sort_key)
    for rec in records:
        if not conditions or square_multiplier(ctx, conditions, rec.generator) is not None:
            yield rec


def _degree_one_records(ctx, dom: FundamentalDomain, lo: int, hi: int) -> list:
    """SpinRecords of the primes of degree one with lo <= p <= hi, from the
    census elements of prime norm in that window, grouped by p.  A ramified
    p has one prime, from split_prime.  For unramified p, the root of
    gcd(g(x), f(x)) mod p for one element g gives the Galois orbit
    [s_0(r), ..., s_(n-1)(r)] of the n roots, and each element lies in the
    one prime (p, alpha - orbit[j]) where it vanishes; its position is the
    rank of orbit[j] in the sorted orbit.  s_a(orbit[b]) = orbit[(a + b) mod
    n], so spin k, the symbol at sigma^k(P) = (p, alpha - s_(n-k)(orbit[j])),
    reads the value at orbit[(j + n - k) mod n]."""
    n = ctx.degree
    primes = set(sieve_primes(hi, lo=lo))
    by_p: dict = {}  # p -> census elements of norm p
    for p, coords in census_window(dom, lo, hi):
        if p in primes:
            by_p.setdefault(p, []).append(coords)
    out = []
    for p, elements in by_p.items():
        if ctx.disc_field % p == 0:
            out.append(SpinRecord(split_prime(ctx, p)[0], ctx.element(min(elements)),
                                  (0,) * (n - 1)))
            continue
        root = poly_gcd_modp(list(elements[0]), list(ctx.poly), p)
        if len(root) != 2:
            raise ArithmeticError(f"{elements[0]} of norm {p} is not in one prime above {p}")
        orbit = galois_orbit(ctx, -root[0] % p, p)
        least: dict = {}  # j -> (least coordinates, their values on the orbit)
        for coords in elements:
            values = []
            for x in orbit:
                acc = 0
                for c in reversed(coords):
                    acc = acc * x + c
                values.append(acc % p)
            if values.count(0) != 1:
                raise ArithmeticError(f"{coords} of norm {p} is not in one prime above {p}")
            j = values.index(0)
            if j not in least or coords < least[j][0]:
                least[j] = coords, values
        ranks = sorted(orbit)
        for j, (coords, values) in least.items():
            prime = PrimeIdealData(p, 1, 1, orbit[j], ranks.index(orbit[j]))
            # no +-1 symbol at 2
            spins = tuple(0 if p == 2 else legendre(values[(j + n - k) % n], p)
                          for k in range(1, n))
            out.append(SpinRecord(prime, ctx.element(coords), spins))
    return out


def collect_spin_records(ctx, dom, X, **kw) -> list:
    """The stream as a list, sorted by prime."""
    return list(spin_prime_stream(ctx, dom, X, **kw))


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
