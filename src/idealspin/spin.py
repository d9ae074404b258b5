"""The spin of odd principal ideals: canonical totally positive generators,
per-prime spin records, congruence-filtered prime streams, and the
structural relations (conjugation, twisted multiplicativity).

The canonical generator of an ideal is fixed once: totally positive,
trace-minimal in the closed fundamental domain, lexicographic tie-break.
Congruence filters never move the generator; they search the finite image
of unit squares modulo the filter modulus.
"""

from dataclasses import dataclass
from math import lcm

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
from .lattice import det
from .symbols import mu_and_mu2, prime_symbol, residue_symbol
from .units import FundamentalDomain, canonical_generator, unit_square_image


@dataclass(frozen=True)
class SpinRecord:
    prime: PrimeIdealData
    generator: FieldElement
    spins: tuple[int, ...]          # index k-1 holds spin(sigma^k)
    gen_mod8: tuple[int, ...]
    gen_mod_M: tuple[int, ...] | None = None


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
# inverse of a residue modulo a rational modulus


def invert_mod(ctx, coords, modulus: int) -> tuple[int, ...]:
    """Inverse of an element in O/(modulus), by Cramer's rule on its
    multiplication matrix; requires gcd(N(element), modulus) = 1."""
    n = ctx.degree
    # multiplication matrix M[i][j] = (g * alpha^j)_i mod modulus
    cols = []
    basis = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    for b in basis:
        cols.append([int(c) % modulus for c in ctx.mul_coords(coords, b)])
    M = [[cols[j][i] % modulus for j in range(n)] for i in range(n)]
    dinv = pow(det(M) % modulus, -1, modulus)
    # the inverse solves M x = e0: x_i = det(M with column i set to e0) / det(M)
    return tuple(
        det([row[:i] + [1 if r == 0 else 0] + row[i + 1:] for r, row in enumerate(M)])
        * dinv % modulus
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# spin records and streams


def spin_record(ctx, dom: FundamentalDomain, prime: PrimeIdealData,
                mod_M: int | None = None) -> SpinRecord:
    """Canonical generator and all n-1 spin values for one prime ideal.
    Even primes carry zero spins (the symbol has no +-1 value there)."""
    n = ctx.degree
    p = prime.p
    if prime.f == n:
        g = canonical_generator(dom, ctx.coerce(p))
    else:
        g = canonical_ideal_generator(ctx, dom, prime)
    if p == 2:
        spins = (0,) * (n - 1)
    elif prime.f > 1 or prime.e > 1:
        # sigma fixes the prime; the generator sits in it, so every spin is 0
        spins = (0,) * (n - 1)
    else:
        spins = tuple(prime_symbol(ctx, g, galois_prime(ctx, prime, k)) for k in range(1, n))
    return SpinRecord(
        prime,
        g,
        spins,
        ctx.coords_mod(g, 8),
        ctx.coords_mod(g, mod_M) if mod_M else None,
    )


class CongruenceFilter:
    """Tests whether some unit-square multiple of a generator lies in fixed
    residue classes: one joint search over the image of unit squares modulo
    the lcm of all filter moduli."""

    def __init__(self, ctx, conditions: list[tuple[int, tuple[int, ...]]]):
        self.ctx = ctx
        self.conditions = conditions
        self.joint = lcm(*(m for m, _ in conditions)) if conditions else 1
        image = unit_square_image(ctx, self.joint) if conditions else frozenset()
        self.image_keys = {
            tuple(tuple(c % m for c in s) for m, _ in conditions) for s in image
        }

    def admits(self, g: FieldElement) -> bool:
        if not self.conditions:
            return True
        key = []
        for m, target in self.conditions:
            ginv = invert_mod(self.ctx, g.coords, m)
            key.append(tuple(c % m for c in self.ctx.mul_coords(target, ginv)))
        return tuple(key) in self.image_keys


def spin_prime_stream(ctx, dom: FundamentalDomain, X: int,
                      degree_one_only: bool = False,
                      mod8_class: tuple[int, ...] | None = None,
                      mod_M: tuple[int, tuple[int, ...]] | None = None,
                      lo: int = 1):
    """SpinRecords for prime ideals with lo <= norm <= X, in the order of
    prime_ideals_in_norm_range.  Yields ('record', SpinRecord) and, for
    primes whose generator search failed, ('generator_not_found',
    PrimeIdealData); the caller decides how to account for those."""
    conditions = []
    if mod8_class is not None:
        conditions.append((8, tuple(mod8_class)))
    if mod_M is not None:
        M, mu = mod_M
        conditions.append((M, tuple(mu)))
    filt = CongruenceFilter(ctx, conditions)
    for prime in prime_ideals_in_norm_range(ctx, lo, X, degree_one_only):
        try:
            rec = spin_record(ctx, dom, prime, mod_M=mod_M[0] if mod_M else None)
        except GeneratorNotFound:
            yield ("generator_not_found", prime)
            continue
        if conditions and prime.p == 2:
            continue  # even primes cannot satisfy odd congruence filters
        if not filt.admits(rec.generator):
            continue
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
