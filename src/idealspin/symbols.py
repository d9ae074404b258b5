"""Quadratic residue symbols in the field, the completed and bracket
symbols, the reciprocity factors mu / mu_2 / mu_infty, and the rational
Dirichlet character attached to an odd ideal.

mu_2 is only ever obtained through the reciprocity law for odd coprime
pairs; no dyadic local computation is performed.  Even upper entries are
supported by the completed symbol, which needs the archimedean factor only.
"""

from math import gcd

from .arith import legendre, poly_powmod, squarefull
from .errors import CostGuard, EvenEntry, EvenModulus, NotCoprime
from .fields import FieldElement
from .ideals import (
    IdealFactorization,
    PrimeIdealData,
    apply_galois_ideal,
    eval_coords_mod_p,
    factor_element,
    element_in_prime,
    elements_coprime,
    ideal_lattice,
    prime_power_ideal,
)


def _as_factorization(ctx, lower) -> IdealFactorization:
    if isinstance(lower, IdealFactorization):
        return lower
    if isinstance(lower, PrimeIdealData):
        return prime_power_ideal(lower)
    if isinstance(lower, FieldElement):
        return factor_element(ctx, lower)
    raise TypeError(f"cannot interpret {lower!r} as an ideal")


def prime_symbol(ctx, e: FieldElement, prime: PrimeIdealData) -> int:
    """(e / P) for one prime ideal: 0 if P | (e), else the square-indicator
    in the residue field of P."""
    p = prime.p
    if p == 2:
        if element_in_prime(ctx, e, prime):
            return 0
        raise EvenModulus("residue symbol with an even prime in the lower entry")
    if prime.f == 1:
        return legendre(eval_coords_mod_p(e.coords, prime.r, p), p)
    # inert prime: Euler criterion in F_p[x]/(poly mod p)
    fmod = [c % p for c in ctx.poly]
    z = [int(c) % p for c in e.coords]
    if not any(z):
        return 0
    w = poly_powmod(z, (p**prime.f - 1) // 2, fmod, p)
    if w == [1]:
        return 1
    if w == [p - 1]:
        return -1
    if not w:
        return 0
    raise ArithmeticError("Euler criterion returned a non-scalar")  # pragma: no cover


def residue_symbol(ctx, e: FieldElement, lower) -> int:
    """(e / b): multiplicative over the prime factorization of the odd
    lower ideal (or odd element)."""
    fac = _as_factorization(ctx, lower)
    out = 1
    for pr, k in fac.factors:
        s = prime_symbol(ctx, e, pr)
        if s == 0:
            return 0
        if k % 2:
            out *= s
    return out


def mu_infty(ctx, a: FieldElement, b: FieldElement) -> int:
    """Product of the real-place Hilbert symbols: -1 at each embedding where
    both entries are negative."""
    sa = ctx.sign_vector(a)
    sb = ctx.sign_vector(b)
    out = 1
    for x, y in zip(sa, sb):
        if x < 0 and y < 0:
            out = -out
    return out


def _is_odd_element(ctx, e: FieldElement) -> bool:
    n = e.norm()
    return isinstance(n, int) and n % 2 != 0


def mu_and_mu2(ctx, a: FieldElement, b: FieldElement) -> tuple[int, int]:
    """(mu, mu_2) for odd coprime a, b via the reciprocity law:
    mu = (a/b)(b/a), mu_2 = mu * mu_infty."""
    if not (_is_odd_element(ctx, a) and _is_odd_element(ctx, b)):
        raise EvenEntry("mu/mu_2 need odd entries")
    if not elements_coprime(ctx, a, b):
        raise NotCoprime("mu/mu_2 need coprime entries")
    s_ab = residue_symbol(ctx, a, b)
    s_ba = residue_symbol(ctx, b, a)
    mu = s_ab * s_ba
    return mu, mu * mu_infty(ctx, a, b)


def completed_symbol(ctx, a: FieldElement, b: FieldElement) -> int:
    """|a/b| = mu_infty(a,b) (a/b), defined for any a and odd b; periodic in
    b modulo (8a)."""
    if not _is_odd_element(ctx, b):
        raise EvenModulus("completed symbol needs an odd lower entry")
    s = residue_symbol(ctx, a, b)
    if s == 0:
        return 0
    return mu_infty(ctx, a, b) * s


def bracket_symbol(ctx, a: FieldElement, b: FieldElement) -> int:
    """[a/b] = mu(a,b) (a/b) for odd coprime entries; periodic in b modulo
    (2a) whenever 1+a is odd."""
    mu, _ = mu_and_mu2(ctx, a, b)
    return mu * residue_symbol(ctx, a, b)


# ---------------------------------------------------------------------------
# mu_2 residue table (Lemma-level: depends only on entries mod 8)


def build_mu2_table(ctx, pairs) -> dict:
    """Accumulate mu_2 over sampled odd coprime pairs into (a mod 8, b mod 8)
    cells; raises if any cell receives two different values."""
    table: dict = {}
    for a, b in pairs:
        _, m2 = mu_and_mu2(ctx, a, b)
        key = (ctx.coords_mod(a, 8), ctx.coords_mod(b, 8))
        if key in table and table[key] != m2:
            raise ArithmeticError(f"mu_2 not constant on the mod-8 cell {key}")
        table[key] = m2
    return table


# ---------------------------------------------------------------------------
# rational Dirichlet character of an odd ideal


class DirichletChar:
    """l -> (l / q) on rational integers: a real character of modulus Nq."""

    def __init__(self, ctx, ideal: IdealFactorization):
        if not ideal.is_odd():
            raise EvenModulus("character modulus must be odd")
        self.ctx = ctx
        self.ideal = ideal
        self.modulus = ideal.norm
        self._table: list[int] | None = None

    def __call__(self, l: int) -> int:
        out = 1
        for pr, k in self.ideal.factors:
            p = pr.p
            if l % p == 0:
                return 0
            if k % 2 == 0:
                continue
            if pr.f == 1:
                s = legendre(l, p)
            else:
                t = pow(l % p, (p**pr.f - 1) // 2, p)
                s = -1 if t == p - 1 else t
            out *= s
        return out

    def table(self) -> list[int]:
        if self._table is None:
            self._table = [self(l) for l in range(self.modulus)]
        return self._table

    def is_principal(self) -> bool:
        q = self.modulus
        return all(self(l) != -1 for l in range(1, q) if gcd(l, q) == 1)


def dirichlet_char(ctx, ideal) -> DirichletChar:
    if isinstance(ideal, PrimeIdealData):
        ideal = prime_power_ideal(ideal)
    return DirichletChar(ctx, ideal)


# ---------------------------------------------------------------------------
# complete character sums (vanishing checks)

_COMPLETE_SUM_GUARD = 200_000


def residues_mod(ctx, ideal: IdealFactorization):
    """All residue classes mod the ideal, as coordinate tuples in the HNF
    fundamental box."""
    H = ideal_lattice(ctx, ideal)
    n = ctx.degree
    reps = [()]
    for i in range(n - 1, -1, -1):
        reps = [(v,) + rest for rest in reps for v in range(H[i][i])]
    # entry i ranges over [0, H[i][i]); no further reduction needed since the
    # box is a transversal of the lattice
    return reps


def complete_sum_check(ctx, q: IdealFactorization, variant: str = "full"):
    """Exact full-period symbol sum.

    variant 'full':      sum over residues mod q of (a/q)          (zero when
                         q is odd and not a perfect square of an ideal),
    variant 'conjugate': sum over residues mod q' q^- of (a/q' q^-) (zero when
                         Nq is not squarefull).

    Returns (value, hypothesis_ok)."""
    if not q.is_odd():
        raise EvenModulus("complete sums need an odd ideal")
    if variant == "full":
        modulus = q
        # Nonzero full sums only occur when q is the square of an ideal
        hypothesis = not all(k % 2 == 0 for _, k in q.factors)
    elif variant == "conjugate":
        modulus = apply_galois_ideal(ctx, q, 1) * apply_galois_ideal(ctx, q, ctx.degree - 1)
        hypothesis = not squarefull(q.norm)
    else:
        raise ValueError("variant must be 'full' or 'conjugate'")
    if modulus.norm > _COMPLETE_SUM_GUARD:
        raise CostGuard(f"complete sum over norm {modulus.norm} exceeds the budget")
    total = 0
    for coords in residues_mod(ctx, modulus):
        total += residue_symbol(ctx, ctx.element(coords), modulus)
    return total, hypothesis
