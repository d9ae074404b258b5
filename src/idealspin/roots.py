"""Exact Q[x] arithmetic and certified real root enclosures for squarefree
integer polynomials with all roots real (the defining polynomials of totally
real fields).

The Q[x] helpers (``_qtrim``, ``_qmul``, ``_qdivmod``) are the library's one
exact polynomial kernel over the rationals: the Sturm chains below and the
field constructions in ``fields`` both use them.

Roots are isolated with Sturm sequences and refined by bisection, all on
dyadic triples (A, C, B) that stand for the interval [A/2^B, C/2^B];
``intervals`` derives Fraction pairs for callers that need rationals.
Refinement is memoized and monotone: asking for more bits only ever shrinks
the stored enclosures.

``interval_eval`` is the certified sign kernel: interval Horner on integer
numerators, which encloses 2^(B*d) * f on a triple (d the degree) without
building a Fraction.  That is the rational enclosure times a positive
number, so it decides every sign the same way.
"""

from fractions import Fraction
from math import lcm

from .errors import PrecisionExhausted

INITIAL_BITS = 64
MAX_BITS = 8192


# ---------------------------------------------------------------------------
# exact polynomial arithmetic over Q (coefficient lists, low degree first)


def _qtrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _qmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _qdivmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b; b trimmed and nonzero."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while _qtrim(a) and len(a) >= len(b):
        c = a[-1] / b[-1]
        off = len(a) - len(b)
        q[off] = c
        for i, bi in enumerate(b):
            a[off + i] -= c * bi
        a.pop()
        _qtrim(a)
    return q, a


# ---------------------------------------------------------------------------
# root isolation


def _sturm_chain(poly: list[Fraction]) -> list[list[Fraction]]:
    chain = [list(poly), [i * c for i, c in enumerate(poly)][1:]]
    while chain[-1]:
        r = _qdivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def integer_coords(coeffs) -> tuple[list[int], int]:
    """(D*coeffs, D) for D the positive lcm of the denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _point_eval(coeffs, m: int, b: int) -> int:
    """2^(b*d) * f(m/2^b) for integer coefficients, d the degree."""
    acc, shift = coeffs[-1], b
    for c in reversed(coeffs[:-1]):
        acc = acc * m + (c << shift)
        shift += b
    return acc


def _variations(chain, m: int, b: int) -> int:
    """Sign variations of an integer Sturm chain at m/2^b."""
    signs = [v > 0 for v in (_point_eval(f, m, b) for f in chain) if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


class RootIsolator:
    """Isolates and refines the real roots of a monic integer polynomial.

    Intervals are kept sorted by decreasing root value, matching the fixed
    embedding order used throughout the library.
    """

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = tuple(coeffs)
        # positive multiples of the Sturm chain have the same sign variations
        self._chain = [integer_coords(f)[0]
                       for f in _sturm_chain([Fraction(c) for c in coeffs])]
        bound = 1 + max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 1
        n_roots = _variations(self._chain, -bound, 0) - _variations(self._chain, bound, 0)
        if n_roots != len(coeffs) - 1:
            raise ValueError("polynomial is not totally real / squarefree")
        stack = [(-bound, bound, 0, n_roots)]
        done = []
        while stack:
            a, c, b, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                done.append((a, c, b))
                continue
            a, c, b, mid = 2 * a, 2 * c, b + 1, a + c  # mid/2^b halves [a, c]
            if _point_eval(self.coeffs, mid, b) == 0:
                # cannot happen for irreducible poly of degree >= 2;
                # nudge the cut point to keep endpoints sign-definite
                a, c, b, mid = 2 * a, 2 * c, b + 1, (3 * a + c) // 2
            left = _variations(self._chain, a, b) - _variations(self._chain, mid, b)
            stack.append((a, mid, b, left))
            stack.append((mid, c, b, cnt - left))
        done.sort(key=lambda iv: Fraction(iv[0], 1 << iv[2]), reverse=True)
        self._dyadic = done
        self._bits = 0
        self.refine(INITIAL_BITS)

    def refine(self, bits: int) -> None:
        """Shrink all enclosures to width <= 2^-bits."""
        if bits <= self._bits:
            return
        if bits > MAX_BITS:
            raise PrecisionExhausted(f"refinement beyond {MAX_BITS} bits requested")
        new = []
        for a, c, b in self._dyadic:
            slo = _point_eval(self.coeffs, a, b) > 0
            # width (c - a)/2^b > 2^-bits: bisect at (a + c)/2^(b+1)
            while (c - a) << bits > 1 << b:
                mid = a + c
                b += 1
                v = _point_eval(self.coeffs, mid, b)
                if v == 0:
                    raise ArithmeticError("rational root in irreducible polynomial")
                if (v > 0) == slo:
                    a, c = mid, 2 * c
                else:
                    a, c = 2 * a, mid
            new.append((a, c, b))
        self._dyadic = new
        self._bits = bits

    def dyadic(self, bits: int = INITIAL_BITS) -> list[tuple[int, int, int]]:
        """The enclosures as dyadic triples (A, C, B), width <= 2^-bits."""
        self.refine(bits)
        return list(self._dyadic)

    def intervals(self, bits: int = INITIAL_BITS) -> list[tuple[Fraction, Fraction]]:
        return [(Fraction(a, 1 << b), Fraction(c, 1 << b)) for a, c, b in self.dyadic(bits)]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def interval_eval(coeffs, iv):
    """Certified Horner on a dyadic interval iv = (A, C, B): for integer
    coefficients, the integer pair (lo, hi) that is the exact
    interval-arithmetic enclosure of 2^(B*d) * f([A/2^B, C/2^B]), d the
    degree."""
    a, c, b = iv
    lo = hi = coeffs[-1]
    shift = b
    for k in reversed(coeffs[:-1]):
        p, q, r, s = lo * a, lo * c, hi * a, hi * c
        k <<= shift
        lo = min(p, q, r, s) + k
        hi = max(p, q, r, s) + k
        shift += b
    return lo, hi
