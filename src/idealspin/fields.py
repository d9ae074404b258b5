"""Explicit totally real cyclic fields with exact power-basis arithmetic.

Three families are supported:

* ``shanks_cubic(m)``   -- the simplest cubics  x^3 + m x^2 + (m-3)x - 1,
* ``lehmer_quintic(m)`` -- the quintic family with unit root of norm -1,
* ``real_quadratic(d)`` -- Q(sqrt d) for squarefree d = 1 mod 4 whose
  fundamental unit has norm -1.

The power basis of every FieldContext is the ring of integers: the
constructor computes the polynomial discriminant, proves p-maximality by
Dedekind's criterion at each p with p^2 | disc, and raises
HypothesisViolated otherwise.  Prime splitting, ideal lattices and the
generator search rely on this.

All element arithmetic is exact (integer or Fraction coordinates in the
power basis).  Real embeddings are certified interval enclosures, and
``FieldContext.sign_vector`` is the one path by which the library decides
the sign of an element at a real embedding: every sign either resolves
exactly or raises PrecisionExhausted.  Exact Q[x] arithmetic lives in
``roots``.
"""

from fractions import Fraction
from itertools import permutations
from math import isqrt

from .arith import (
    factorint,
    is_prime,
    p_maximal,
    poly_gcd_modp,
    poly_powmod,
    poly_trim,
    squarefree,
)
from .errors import (
    EvenDiscriminant,
    HypothesisViolated,
    IrreduciblePolyFailure,
    NormMinusOneUnitAbsent,
    PrecisionExhausted,
)
from .lattice import det, gauss_jordan
from .roots import (
    INITIAL_BITS,
    MAX_BITS,
    RootIsolator,
    _qdivmod,
    _qmul,
    _qtrim,
    integer_coords,
    interval_eval,
)

SHANKS_CUBIC = "shanks_cubic"
LEHMER_QUINTIC = "lehmer_quintic"
REAL_QUADRATIC = "real_quadratic"


# ---------------------------------------------------------------------------
# exact polynomial helpers, used during construction


def _sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of integer polynomials: determinant of the Sylvester matrix."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    mat = [[0] * size for _ in range(size)]
    for i in range(m):
        for j, c in enumerate(reversed(f)):
            mat[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(reversed(g)):
            mat[m + i][i + j] = c
    return det(mat)


def poly_discriminant(coeffs: tuple[int, ...]) -> int:
    """Discriminant of a monic integer polynomial."""
    n = len(coeffs) - 1
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    res = _sylvester_resultant(list(coeffs), deriv)
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    return s * res


# ---------------------------------------------------------------------------


class FieldElement:
    """Element of a FieldContext in power-basis coordinates.

    Coordinates are ints for integral elements, Fractions otherwise.
    """

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx, coords):
        self.ctx = ctx
        self.coords = tuple(coords)

    def __add__(self, other):
        other = self.ctx.coerce(other)
        return FieldElement(self.ctx, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self.ctx.coerce(other)
        return FieldElement(self.ctx, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return self.ctx.coerce(other) - self

    def __neg__(self):
        return FieldElement(self.ctx, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.ctx, tuple(a * other for a in self.coords))
        other = self.ctx.coerce(other)
        return FieldElement(self.ctx, self.ctx.mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.ctx.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.coords == other.coords and self.ctx is other.ctx
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"FieldElement{self.coords}"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_integral(self) -> bool:
        return all(isinstance(c, int) or c.denominator == 1 for c in self.coords)

    def norm(self):
        return self.ctx.norm_coords(self.coords)

    def trace(self):
        return self.ctx.trace_coords(self.coords)

    def galois(self, k: int):
        """Image under sigma^k."""
        return apply_automorphism(self, k)

    def inverse(self):
        return FieldElement(self.ctx, _field_inverse(self.ctx.poly, self.coords))


def _field_inverse(poly, coords):
    """Inverse in Q[x]/(poly) by the extended Euclidean algorithm."""
    f = [Fraction(c) for c in poly]
    a = _qtrim([Fraction(c) for c in coords])
    if not a:
        raise ZeroDivisionError("inverse of zero field element")
    r0, r1 = f, a
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _qtrim(list(r1)):
        q, r = _qdivmod(r0, r1)
        t = _qmul(q, s1)
        news = [x - y for x, y in
                zip(s0 + [Fraction(0)] * max(0, len(t) - len(s0)),
                    t + [Fraction(0)] * max(0, len(s0) - len(t)))]
        r0, r1 = r1, r
        s0, s1 = s1, _qtrim(news) or [Fraction(0)]
    c = r0[0]
    n = len(poly) - 1
    inv = [x / c for x in s0][:n]
    inv += [Fraction(0)] * (n - len(inv))
    return tuple(int(x) if x.denominator == 1 else x for x in inv)


class FieldContext:
    """Immutable description of one explicit field: defining polynomial,
    Galois action, certified embeddings and unit generators.

    Embedding order is fixed once and for all: roots sorted in decreasing
    real value, so index 0 is the largest embedding.
    """

    def __init__(self, family, param, poly, sigma_alpha_coords, unit_gen_coords):
        self.family = family
        self.param = param
        self.poly = tuple(int(c) for c in poly)
        self.degree = len(poly) - 1
        self.disc_field = poly_discriminant(self.poly)
        for p, e in factorint(self.disc_field).items():
            if e >= 2 and not p_maximal(self.poly, p):
                raise HypothesisViolated(
                    f"the power basis of {family}({param}) is not the maximal "
                    f"order at p = {p}"
                )
        n = self.degree

        # alpha^d for d in [n, 2n-2], reduced; integer since poly is monic
        red = {}
        cur = [-c for c in self.poly[:-1]]
        red[n] = tuple(cur)
        for d in range(n + 1, 2 * n - 1):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(n):
                    nxt[i] -= top * self.poly[i]
            cur = nxt
            red[d] = tuple(cur)
        self._reduction = red

        # power sums of the roots via Newton's identities
        a = self.poly
        ps = [n]
        for k in range(1, 2 * n - 1):
            if k <= n:
                acc = -k * a[n - k]
                for i in range(1, k):
                    acc -= a[n - i] * ps[k - i]
            else:
                acc = 0
                for i in range(1, n + 1):
                    acc -= a[n - i] * ps[k - i]
            ps.append(acc)
        self._power_sums = ps
        self.trace_form = tuple(
            tuple(ps[i + j] for j in range(n)) for i in range(n)
        )

        self._roots = RootIsolator(self.poly)

        # Galois action: matrices of sigma^k, rows = coords of sigma^k(alpha^j)
        sig = tuple(
            int(c) if isinstance(c, int) or c.denominator == 1 else c
            for c in sigma_alpha_coords
        )
        mats = [tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))]
        powers = [self._coord_powers(sig)]
        for _ in range(n - 1):
            mats.append(powers[-1])
            powers.append(tuple(self._apply_rows(powers[-1], row) for row in powers[0]))
        self.automorphisms = tuple(mats)
        self._verify_galois()

        self.unit_generators = tuple(FieldElement(self, c) for c in unit_gen_coords)
        for u in self.unit_generators:
            if abs(self.norm_coords(u.coords)) != 1:
                raise ValueError(f"unit generator {u} has |norm| != 1")

    # -- basic arithmetic ---------------------------------------------------

    def coerce(self, v):
        if isinstance(v, FieldElement):
            return v
        if isinstance(v, (int, Fraction)):
            return FieldElement(self, (v,) + (0,) * (self.degree - 1))
        if isinstance(v, (tuple, list)):
            return FieldElement(self, tuple(v))
        raise TypeError(f"cannot coerce {v!r}")

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise ValueError("wrong coordinate length")
        return FieldElement(self, coords)

    @property
    def zero(self):
        return FieldElement(self, (0,) * self.degree)

    @property
    def one(self):
        return FieldElement(self, (1,) + (0,) * (self.degree - 1))

    @property
    def alpha(self):
        n = self.degree
        return FieldElement(self, tuple(1 if i == 1 else 0 for i in range(n)))

    def mul_coords(self, a, b):
        n = self.degree
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = prod[:n]
        for d in range(n, 2 * n - 1):
            c = prod[d]
            if c:
                row = self._reduction[d]
                for i in range(n):
                    out[i] += c * row[i]
        return tuple(out)

    def _coord_powers(self, coords):
        """Rows = coords of coords^j for j = 0..n-1 (matrix of the map
        alpha^j -> y^j for y the given element)."""
        n = self.degree
        rows = [tuple(1 if i == 0 else 0 for i in range(n))]
        for _ in range(n - 1):
            rows.append(self.mul_coords(rows[-1], coords))
        return tuple(rows)

    def _apply_rows(self, rows, coords):
        n = self.degree
        out = [0] * n
        for j, cj in enumerate(coords):
            if cj:
                row = rows[j]
                for i in range(n):
                    out[i] += cj * row[i]
        return tuple(int(x) if isinstance(x, Fraction) and x.denominator == 1 else x
                     for x in out)

    def trace_coords(self, coords):
        t = sum(c * t for c, t in zip(coords, self._power_sums[: self.degree]))
        if isinstance(t, Fraction) and t.denominator == 1:
            return int(t)
        return t

    def norm_coords(self, coords):
        """Exact norm: determinant of the multiplication matrix."""
        n = self.degree
        rows = [list(coords)]
        for _ in range(n - 1):
            prev = rows[-1]
            nxt = [0] + prev[:-1]
            top = prev[-1]
            if top:
                row = self._reduction[n]
                for i in range(n):
                    nxt[i] += top * row[i]
            rows.append(nxt)
        d = det(rows)
        if isinstance(d, Fraction) and d.denominator == 1:
            return int(d)
        return d

    # -- Galois -------------------------------------------------------------

    def _verify_galois(self):
        n = self.degree
        sig = self.automorphisms[1 % n]
        # f(sigma(alpha)) = 0 exactly in the quotient ring
        y = FieldElement(self, sig[1])
        val = self.coerce(self.poly[0])
        ypow = self.one
        for c in self.poly[1:]:
            ypow = ypow * y
            val = val + ypow * c
        if not val.is_zero():
            raise ValueError("sigma(alpha) is not a root of the defining polynomial")
        # sigma^n = identity, and the images of alpha are pairwise distinct
        comp = self._apply_rows(self.automorphisms[-1], sig[1])
        ident = tuple(1 if i == 1 else 0 for i in range(n))
        if tuple(comp) != ident:
            raise ValueError("automorphism does not have order n")
        if len({self.automorphisms[k][1] for k in range(n)}) != n:
            raise ValueError("automorphism powers are not distinct")

    # -- embeddings ---------------------------------------------------------

    def embedding_intervals(self, bits: int = INITIAL_BITS):
        """Root enclosures as dyadic triples (A, C, B), embedding order."""
        return self._roots.dyadic(bits)

    def interval_embeddings(self, element, bits: int = INITIAL_BITS):
        """Enclosures of all real embeddings of the element, embedding order."""
        coords, den = integer_coords(element.coords)
        d = len(coords) - 1
        out = []
        for iv in self.embedding_intervals(bits):
            lo, hi = interval_eval(coords, iv)
            scale = den << (iv[2] * d)
            out.append((Fraction(lo, scale), Fraction(hi, scale)))
        return out

    def sign_vector(self, element) -> tuple[int, ...]:
        """Exact signs (+1/-1) of the element at every real embedding."""
        element = self.coerce(element)
        if element.is_zero():
            raise ValueError("sign_vector of zero")
        coords = integer_coords(element.coords)[0]
        signs: list[int | None] = [None] * self.degree
        bits = INITIAL_BITS
        while True:
            ivs = self.embedding_intervals(bits)
            for k in range(self.degree):
                if signs[k] is None:
                    lo, hi = interval_eval(coords, ivs[k])
                    if lo > 0:
                        signs[k] = 1
                    elif hi < 0:
                        signs[k] = -1
            if all(s is not None for s in signs):
                return tuple(signs)  # type: ignore[arg-type]
            if bits >= MAX_BITS:
                raise PrecisionExhausted(
                    "sign unresolved at precision cap; check for exact zero first"
                )
            bits = min(2 * bits, MAX_BITS)

    def is_totally_positive(self, element) -> bool:
        return all(s == 1 for s in self.sign_vector(element))

    # -- residue helpers ----------------------------------------------------

    def coords_mod(self, element, modulus: int) -> tuple[int, ...]:
        """Coordinate vector mod a rational modulus (integral elements only)."""
        if not element.is_integral():
            raise ValueError("residue of a non-integral element")
        return tuple(int(c) % modulus for c in element.coords)

    def __repr__(self):
        return f"FieldContext({self.family}, {self.param})"


# ---------------------------------------------------------------------------
# constructors


def _rational_roots_excluded(poly) -> None:
    # candidate rational roots of a monic integer polynomial are divisors
    # of the constant term
    c0 = poly[0]
    if c0 == 0:
        raise IrreduciblePolyFailure("zero constant term")
    for r in {1, -1, c0, -c0}:
        if sum(c * r**i for i, c in enumerate(poly)) == 0:
            raise IrreduciblePolyFailure(f"rational root {r}")


def _shanks_context(m: int) -> FieldContext:
    poly = (-1, m - 3, m, 1)
    _rational_roots_excluded(poly)
    # sigma(alpha) = -1/(1+alpha): f(-1/(1+x))*(1+x)^3 = -f(x), so it is a
    # root; integral because N(1+alpha) = -f(-1) = -1
    one_plus = _field_inverse(poly, (1, 1, 0))
    sigma_alpha = tuple(-c for c in one_plus)
    ctx = FieldContext(
        SHANKS_CUBIC, m, poly, sigma_alpha,
        unit_gen_coords=[(-1, 0, 0), (0, 1, 0), sigma_alpha],
    )
    if ctx.disc_field != (m * m - 3 * m + 9) ** 2:
        raise ArithmeticError("discriminant identity failed")  # pragma: no cover
    return ctx


def _quadratic_context(d: int) -> FieldContext:
    if d < 2 or not squarefree(d):
        raise ValueError("d must be a squarefree integer >= 2")
    if d % 4 != 1:
        raise EvenDiscriminant(f"d = {d} is not 1 mod 4; field discriminant is even")
    poly = ((1 - d) // 4, -1, 1)  # x^2 - x + (1-d)/4, root (1+sqrt d)/2
    sigma_alpha = (1, -1)  # sigma(alpha) = 1 - alpha
    ctx = FieldContext(
        REAL_QUADRATIC, d, poly, sigma_alpha,
        unit_gen_coords=[(-1, 0), _cf_fundamental_unit(d)],
    )
    # normalize to the unit > 1 at the first embedding, alpha = (1+sqrt d)/2
    eps = ctx.unit_generators[1]
    if ctx.sign_vector(eps)[0] < 0:
        eps = -eps
    if ctx.sign_vector(eps - 1)[0] < 0:
        eps = -eps.galois(1)  # norm -1: eps^{-1} = -sigma(eps)
    ctx.unit_generators = (ctx.unit_generators[0], eps)
    return ctx


def _cf_fundamental_unit(d: int) -> tuple[int, int]:
    """Fundamental unit of Z[(1+sqrt d)/2] from the continued fraction of
    (1+sqrt d)/2; raises if its norm is +1.  Returns coords (x, y) of the
    unit x + y*alpha, up to sign and inversion."""
    P, Q = 1, 2
    h0, h1 = 1, 0  # p_{-1}, p_{-2}
    k0, k1 = 0, 1
    s = isqrt(d)
    unit = None
    for _ in range(200000):
        a = (P + s) // Q
        h0, h1 = a * h0 + h1, h0
        k0, k1 = a * k0 + k1, k0
        # e = h - k*alpha has norm h^2 - hk + k^2 (1-d)/4
        nrm = h0 * h0 - h0 * k0 + k0 * k0 * (1 - d) // 4
        if abs(nrm) == 1:
            unit = (h0, -k0, nrm)
            break
        P = a * Q - P
        Q = (d - P * P) // Q
    if unit is None:
        raise ArithmeticError("continued fraction did not terminate")  # pragma: no cover
    x, y, nrm = unit
    if nrm != -1:
        raise NormMinusOneUnitAbsent(
            f"fundamental unit of Q(sqrt {d}) has norm +1"
        )
    return (x, y)


_LEHMER_RECON_BITS = (256, 512, 1024, 2048)


def _lehmer_poly(m: int) -> tuple[int, ...]:
    return (
        1,
        m**3 + 4 * m**2 + 10 * m + 10,
        m**4 + 5 * m**3 + 11 * m**2 + 15 * m + 5,
        -2 * (m**3 + 3 * m**2 + 5 * m + 5),
        m**2,
        1,
    )


def _certify_irreducible_quintic(poly) -> None:
    """A quintic with no factor of degree <= 2 over F_p for some good p is
    irreducible over Q."""
    _rational_roots_excluded(poly)
    disc = poly_discriminant(poly)
    p = 2
    while p < 2000:
        if is_prime(p) and disc % p != 0:
            f = [c % p for c in poly]
            ok = True
            for k in (1, 2):
                xq = poly_powmod([0, 1], p**k, f, p)
                xq = list(xq) + [0] * (2 - len(xq))
                xq[1] = (xq[1] - 1) % p
                g = poly_gcd_modp(xq, f, p)
                if len(poly_trim(g)) - 1 > 0:
                    ok = False
                    break
            if ok:
                return
        p += 1
    raise IrreduciblePolyFailure("no irreducibility certificate found")


def _lehmer_sigma(poly) -> tuple:
    """Find sigma(beta) by matching embeddings over all 5-cycles of the
    roots (perm[k] = the root that sigma(beta) is at embedding k)."""
    def is_5_cycle(p):
        seen = {0}
        k = p[0]
        while k not in seen:
            seen.add(k)
            k = p[k]
        return len(seen) == 5

    iso = RootIsolator(poly)
    cycles = [p for p in permutations(range(5)) if is_5_cycle(p)]
    sigma = _match_embeddings(poly, iso.intervals, iso.intervals, poly, cycles,
                             _LEHMER_RECON_BITS)
    if sigma is None:
        raise ArithmeticError("could not reconstruct the quintic Galois action")
    return sigma


def _match_embeddings(poly, roots, images, g, perms, bit_levels):
    """The smallest y in Q[x]/(poly) with g(y) = 0 that takes the value of
    the image root perm[k] at the k-th root of poly, over the given perms;
    None if no precision level finds one.  roots(bits) and images(bits)
    give the root enclosures of poly and g.

    At each precision: midpoints of the enclosures, one Vandermonde solve
    for every perm, rational reconstruction, then the exact check."""
    n = len(poly) - 1
    for bits in bit_levels:
        mids = [(lo + hi) / 2 for lo, hi in roots(bits)]
        tmids = [(lo + hi) / 2 for lo, hi in images(bits)]
        vand = [[mids[k] ** i for i in range(n)] for k in range(n)]
        sols = gauss_jordan(vand, [[tmids[perm[k]] for perm in perms] for k in range(n)])
        cands = (tuple(_rationalize(x, bits) for x in col) for col in zip(*sols))
        found = [y for y in cands if _is_root_mod(poly, g, y)]
        if found:
            return min(found)
    return None


def _rationalize(x: Fraction, bits: int) -> Fraction:
    return Fraction(x).limit_denominator(2 ** (bits // 4))


def _is_root_mod(poly, g, y) -> bool:
    """Is g(y) = 0 for y given by its coordinates in Q[x]/(poly)?  Exact
    Horner evaluation, reduced mod poly after every step."""
    acc = []
    for c in reversed(g):
        acc = _qmul(acc, y) or [Fraction(0)]
        acc[0] += c
        acc = _qdivmod(acc, poly)[1]
    return not any(acc)


def _lehmer_context(m: int) -> FieldContext:
    poly = _lehmer_poly(m)
    _certify_irreducible_quintic(poly)
    sigma_beta = _lehmer_sigma(poly)
    ctx = FieldContext(
        LEHMER_QUINTIC, m, poly, sigma_beta,
        unit_gen_coords=[(-1, 0, 0, 0, 0), (0, 1, 0, 0, 0)],
    )
    # unit generators: -1, beta and its first three conjugates
    beta = ctx.alpha
    gens = [ctx.coerce(-1), beta]
    for k in (1, 2, 3):
        gens.append(beta.galois(k))
    ctx.unit_generators = tuple(gens)
    for u in ctx.unit_generators:
        if abs(ctx.norm_coords(u.coords)) != 1:
            raise ValueError("conjugate unit has |norm| != 1")  # pragma: no cover
    return ctx


def find_root_in_field(ctx, coeffs: tuple[int, ...]):
    """A root in the field of a monic integer polynomial whose splitting
    field this is (None when no root exists).  Numeric matching of the
    embeddings followed by rational reconstruction; the winner is verified
    exactly, so a non-None answer is certified."""
    n = ctx.degree
    if len(coeffs) - 1 != n:
        raise ValueError("degree mismatch")
    try:
        other = RootIsolator(tuple(coeffs))
    except ValueError:
        return None  # repeated or complex roots: not this splitting field
    y = _match_embeddings(ctx.poly, ctx._roots.intervals, other.intervals, coeffs,
                          list(permutations(range(n))), (192, 384, 768, 1536))
    if y is None:
        return None
    return FieldElement(ctx, (int(c) if c.denominator == 1 else c for c in y))


def construct_field(family: str, param: int) -> FieldContext:
    """Build a FieldContext for one of the supported families."""
    if family == SHANKS_CUBIC:
        return _shanks_context(param)
    if family == REAL_QUADRATIC:
        return _quadratic_context(param)
    if family == LEHMER_QUINTIC:
        return _lehmer_context(param)
    raise ValueError(f"unknown family {family!r}")


def apply_automorphism(e: FieldElement, k: int) -> FieldElement:
    """Exact image of the element under sigma^k (0 <= k < degree)."""
    ctx = e.ctx
    if not 0 <= k < ctx.degree:
        raise ValueError("automorphism index out of range")
    return FieldElement(ctx, ctx._apply_rows(ctx.automorphisms[k], e.coords))
