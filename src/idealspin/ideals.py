"""Prime splitting, ideal factorizations, principal generators, and the
arithmetic functions Lambda / mu / tau on ideals.

Ideals are always handled in factored form; an integral-basis (HNF)
representation exists only internally, to drive the generator search and
residue enumeration.  Splitting data is only meaningful where the power
basis is the maximal order, which every FieldContext guarantees.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .arith import factorint, iroot_ceil, poly_powmod, poly_roots_modp, sieve_primes, split_linear
from .errors import GeneratorNotFound
from .lattice import hnf_det, hnf_residue, lattice_product, lll_reduce, short_vectors
from .logcomb import LogCombination


@dataclass(frozen=True)
class PrimeIdealData:
    """One prime ideal: (p, alpha - r) when f = 1, or the inert (p)."""

    p: int
    f: int
    e: int
    r: int | None
    position: int

    @property
    def norm(self) -> int:
        return self.p**self.f

    @property
    def sort_key(self):
        return (self.norm, self.p, self.position)

    def __repr__(self):
        if self.f == 1 and self.e == 1:
            return f"P({self.p},r={self.r})"
        if self.e > 1:
            return f"P({self.p},ram,e={self.e},r={self.r})"
        return f"P({self.p},inert,f={self.f})"


@dataclass(frozen=True)
class IdealFactorization:
    factors: tuple[tuple[PrimeIdealData, int], ...]

    @property
    def norm(self) -> int:
        n = 1
        for pr, k in self.factors:
            n *= pr.norm**k
        return n

    def is_unit_ideal(self) -> bool:
        return not self.factors

    def is_odd(self) -> bool:
        return all(pr.p != 2 for pr, _ in self.factors)

    def is_squarefree(self) -> bool:
        return all(k == 1 for _, k in self.factors)

    def __mul__(self, other: "IdealFactorization") -> "IdealFactorization":
        acc: dict[PrimeIdealData, int] = {}
        for pr, k in self.factors:
            acc[pr] = acc.get(pr, 0) + k
        for pr, k in other.factors:
            acc[pr] = acc.get(pr, 0) + k
        return make_ideal(acc.items())

    def coprime_to(self, other: "IdealFactorization") -> bool:
        mine = {pr for pr, _ in self.factors}
        return all(pr not in mine for pr, _ in other.factors)

    def __repr__(self):
        if not self.factors:
            return "(1)"
        return "*".join(
            f"{pr!r}" + (f"^{k}" if k > 1 else "") for pr, k in self.factors
        )


def make_ideal(items) -> IdealFactorization:
    factors = tuple(
        sorted(((pr, k) for pr, k in items if k > 0), key=lambda t: (t[0].p, t[0].position))
    )
    return IdealFactorization(factors)


UNIT_IDEAL = IdealFactorization(())


def prime_power_ideal(prime: PrimeIdealData, k: int = 1) -> IdealFactorization:
    return make_ideal([(prime, k)])


# ---------------------------------------------------------------------------

_split_caches: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def split_prime(ctx, p: int) -> list[PrimeIdealData]:
    """Factor p in the field: split / inert / totally ramified.

    Valid at every prime, since the power basis of a FieldContext is the
    maximal order (Dedekind-Kummer).  For degree >= 3 and an
    unramified p >= 60 the field, cyclic of prime degree, splits p
    completely or keeps it inert: one x^p powmod decides which, and the
    roots are one root's Galois orbit.
    """
    cache = _split_caches.setdefault(ctx, {})
    got = cache.get(p)
    if got is not None:
        return got
    n = ctx.degree
    if n >= 3 and p >= 60 and ctx.disc_field % p:
        roots = _orbit_roots(ctx, p)
    else:
        roots = poly_roots_modp(list(ctx.poly), p)
    if len(roots) == n:
        out = [PrimeIdealData(p, 1, 1, r, i) for i, r in enumerate(sorted(roots))]
    elif not roots:
        out = [PrimeIdealData(p, n, 1, None, 0)]
    elif len(roots) == 1 and ctx.disc_field % p == 0:
        out = [PrimeIdealData(p, 1, n, roots[0], 0)]
    else:
        raise ValueError(f"unexpected factorization pattern of p={p}")
    cache[p] = out
    return out


def _orbit_roots(ctx, p: int) -> list[int]:
    """The roots of the defining polynomial mod an unramified p: none, or
    the Galois orbit of one root.  The power basis is the maximal order, so
    every sigma^k(alpha) has integer coordinates."""
    f = [c % p for c in ctx.poly]
    if poly_powmod([0, 1], p, f, p) != [0, 1]:
        return []
    return sorted(galois_orbit(ctx, next(split_linear(f, p)), p))


def galois_orbit(ctx, r: int, p: int) -> list[int]:
    """[s_0(r), ..., s_(n-1)(r)] mod p, with s_k the coordinates of
    sigma^k(alpha), for a root r of f mod an unramified p: sigma^(n-k) maps
    the prime (p, alpha - r) to (p, alpha - s_k(r)) (see galois_prime)."""
    orbit = [eval_coords_mod_p(sk[1], r, p) for sk in ctx.automorphisms]
    if len(set(orbit)) != ctx.degree:
        raise ArithmeticError(f"Galois orbit of a root mod {p} is not {ctx.degree} roots")
    return orbit


def galois_prime(ctx, prime: PrimeIdealData, k: int) -> PrimeIdealData:
    """sigma^k applied to a prime ideal."""
    k %= ctx.degree
    if k == 0 or prime.f > 1 or prime.e > 1:
        return prime
    # sigma^k(P_t) contains sigma^k(alpha) - t, and alpha = s_(n-k)(sigma^k(alpha))
    # with s_j the coords of sigma^j(alpha): sigma^k(P_t) = P_r, r = s_(n-k)(t)
    r = eval_coords_mod_p(ctx.automorphisms[ctx.degree - k][1], prime.r, prime.p)
    return next(pr for pr in split_prime(ctx, prime.p) if pr.r == r)


def eval_coords_mod_p(coords, r: int, p: int) -> int:
    """Evaluate a coordinate vector (rational entries allowed) at alpha = r
    modulo p."""
    acc = 0
    for c in reversed(coords):
        if isinstance(c, Fraction):
            den = c.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            c = c.numerator * pow(den, -1, p)
        acc = (acc * r + c) % p
    return acc


def residue_of(ctx, element, prime: PrimeIdealData) -> int:
    """Residue of an element at a degree-one prime, as an integer mod p."""
    if prime.f != 1:
        raise ValueError("residue_of requires a degree-one prime")
    return eval_coords_mod_p(element.coords, prime.r, prime.p)


def prime_ideals_in_norm_range(ctx, lo: int, hi: int, degree_one_only: bool = False):
    """Every prime ideal with lo <= norm <= hi, ascending by (p, position).

    The rational primes p < lo are split as well when p <= isqrt(hi): a
    prime of degree f >= 2 above them can have its norm p^f in the range.
    Cutting [1, X] into norm ranges therefore yields each prime ideal of
    norm <= X exactly once."""
    if hi < 2:
        return
    small = [] if degree_one_only else sieve_primes(min(isqrt(hi), lo - 1))
    for p in small + sieve_primes(hi, lo=lo):
        for pr in split_prime(ctx, p):
            if lo <= pr.norm <= hi and (not degree_one_only or pr.f == 1):
                yield pr


def enumerate_prime_ideals(ctx, X: int, degree_one_only: bool = False):
    """All prime ideals of norm <= X, ascending by (norm, p, position)."""
    return sorted(prime_ideals_in_norm_range(ctx, 1, X, degree_one_only),
                  key=lambda pr: pr.sort_key)


_ideal_caches: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def enumerate_ideals(ctx, X: int) -> list[IdealFactorization]:
    """All integral ideals of norm <= X, ascending by norm (then by the
    factorization key, so the order is total and deterministic)."""
    cache = _ideal_caches.setdefault(ctx, {})
    best = cache.get("X", 0)
    if X <= best:
        return [I for I in cache["ideals"] if I.norm <= X]
    primes = enumerate_prime_ideals(ctx, X)
    ideals: list[IdealFactorization] = [UNIT_IDEAL]
    for pr in primes:
        nrm = pr.norm
        extra = []
        for I in ideals:
            acc = I.norm * nrm
            k = 1
            while acc <= X:
                extra.append(I * prime_power_ideal(pr, k))
                k += 1
                acc *= nrm
        ideals.extend(extra)
    ideals.sort(key=_ideal_sort_key)
    cache["X"] = X
    cache["ideals"] = ideals
    return ideals


def _ideal_sort_key(I: IdealFactorization):
    return (I.norm, tuple((pr.p, pr.position, k) for pr, k in I.factors))


# ---------------------------------------------------------------------------
# HNF lattices of ideals and generators


def _prime_hnf(ctx, prime: PrimeIdealData):
    """Closed-form HNF of a prime ideal: p*I when inert, diag(p, 1, ..., 1)
    for (p, alpha), and for (p, alpha - r) with r != 0 mod p the rows
    alpha^i - r^(i-n+1) alpha^(n-1) (last entry reduced mod p) and
    p*alpha^(n-1)."""
    n = ctx.degree
    p = prime.p
    if prime.f == n:
        return [[p if i == j else 0 for j in range(n)] for i in range(n)]
    if prime.r % p == 0:
        return [[p if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    inv = pow(prime.r, -1, p)
    rows = [[1 if i == j else 0 for j in range(n - 1)]
            + [-pow(inv, n - 1 - i, p) % p] for i in range(n - 1)]
    return rows + [[0] * (n - 1) + [p]]


def ideal_lattice(ctx, ideal: IdealFactorization):
    """Upper-triangular HNF basis of the ideal as a Z-lattice in the power
    basis coordinates: the closed form for a prime, and products of prime
    HNFs otherwise."""
    n = ctx.degree
    primes = [pr for pr, k in ideal.factors for _ in range(k)]
    if not primes:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows = _prime_hnf(ctx, primes[0])
    for pr in primes[1:]:
        rows = lattice_product(ctx, rows, _prime_hnf(ctx, pr))
    if hnf_det(rows) != ideal.norm:
        raise ArithmeticError("ideal lattice determinant != ideal norm")  # pragma: no cover
    return rows


def element_in_ideal(ctx, element, ideal: IdealFactorization) -> bool:
    if not element.is_integral():
        return False
    return not any(hnf_residue(ideal_lattice(ctx, ideal), [int(c) for c in element.coords]))


def element_in_prime(ctx, element, prime: PrimeIdealData) -> bool:
    p = prime.p
    if prime.f == 1:
        return eval_coords_mod_p(element.coords, prime.r, p) == 0
    return all(int(c) % p == 0 for c in element.coords)


def find_generator(ctx, ideal: IdealFactorization, kappa_start: int = 4, kappa_max: int = 64):
    """A generator of a principal ideal, by LLL plus bounded short-vector
    enumeration under the trace form.  Deterministic: the lexicographically
    first qualifying short vector is returned.

    Raises GeneratorNotFound when the search bound is exhausted (non
    principal ideal, or bound too small)."""
    n = ctx.degree
    target = ideal.norm
    if ideal.is_unit_ideal():
        return ctx.one
    rows = ideal_lattice(ctx, ideal)
    red = lll_reduce(ctx, rows)
    # Minkowski-flavored bound: Q(g) ~ n * norm^(2/n) for a balanced generator
    base = n * iroot_ceil(target**2, n)
    kappa = kappa_start
    while kappa <= kappa_max:
        for vec in short_vectors(ctx, red, kappa * base):
            if abs(ctx.norm_coords(vec)) == target:
                return ctx.element(vec)
        kappa *= 2
    raise GeneratorNotFound(f"no generator of {ideal!r} within bound {kappa_max}")


def factor_element(ctx, element) -> IdealFactorization:
    """Factor the principal ideal generated by a nonzero integral element."""
    if element.is_zero():
        raise ValueError("cannot factor the zero ideal")
    if not element.is_integral():
        raise ValueError("factor_element requires an integral element")
    nrm = abs(element.norm())
    acc: dict[PrimeIdealData, int] = {}
    for p, vp in factorint(nrm).items():
        primes = split_prime(ctx, p)
        found = 0
        for pr in primes:
            if not element_in_prime(ctx, element, pr):
                continue
            # valuation via membership in increasing prime powers
            k = 1
            lat = _prime_hnf(ctx, pr)
            cur = lat
            coords = [int(c) for c in element.coords]
            while True:
                cur = lattice_product(ctx, cur, lat)
                if k * pr.f >= vp or any(hnf_residue(cur, coords)):
                    break
                k += 1
            acc[pr] = k
            found += k * pr.f
        if found != vp:
            raise ArithmeticError(
                f"valuations above {p} do not account for the norm"
            )  # pragma: no cover
    return make_ideal(acc.items())


def elements_coprime(ctx, a, b) -> bool:
    """Do the principal ideals (a), (b) share no prime factor?"""
    g = gcd(abs(a.norm()), abs(b.norm()))
    if g == 1:
        return True
    for p in factorint(g):
        for pr in split_prime(ctx, p):
            if element_in_prime(ctx, a, pr) and element_in_prime(ctx, b, pr):
                return False
    return True


def apply_galois_ideal(ctx, ideal: IdealFactorization, k: int) -> IdealFactorization:
    return make_ideal((galois_prime(ctx, pr, k), e) for pr, e in ideal.factors)


# ---------------------------------------------------------------------------
# arithmetic functions


def mangoldt(ideal: IdealFactorization) -> LogCombination:
    """Von Mangoldt: f*log p for a prime power P^l, zero otherwise, carried
    as an exact formal combination of {log p}."""
    if len(ideal.factors) != 1:
        return LogCombination()
    pr, _ = ideal.factors[0]
    return LogCombination({pr.p: pr.f})


def moebius(ideal: IdealFactorization) -> int:
    if not ideal.is_squarefree():
        return 0
    return -1 if len(ideal.factors) % 2 else 1


def tau(ideal: IdealFactorization) -> int:
    t = 1
    for _, k in ideal.factors:
        t *= k + 1
    return t


def log_norm(ideal: IdealFactorization) -> LogCombination:
    acc: dict[int, int] = {}
    for pr, k in ideal.factors:
        acc[pr.p] = acc.get(pr.p, 0) + pr.f * k
    return LogCombination(acc)
