"""Exact Q[x] arithmetic and certified real root enclosures for squarefree
integer polynomials with all roots real (the defining polynomials of totally
real fields).

The Q[x] helpers (``_qtrim``, ``_qmul``, ``_qdivmod``) are the library's one
exact polynomial kernel over the rationals: the Sturm chains below and the
field constructions in ``fields`` both use them.

Roots are isolated with Sturm sequences and refined by dyadic bisection, so
every interval endpoint is a dyadic rational.  Refinement is memoized and
monotone: asking for more bits only ever shrinks the stored enclosures.
"""

from fractions import Fraction

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


def _eval(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _variations(chain, x: Fraction) -> int:
    signs = []
    for f in chain:
        v = _eval(f, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class RootIsolator:
    """Isolates and refines the real roots of a monic integer polynomial.

    Intervals are kept sorted by decreasing root value, matching the fixed
    embedding order used throughout the library.
    """

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = tuple(coeffs)
        poly = [Fraction(c) for c in coeffs]
        self._chain = _sturm_chain(poly)
        bound = 1 + max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 1
        n_roots = _variations(self._chain, Fraction(-bound)) - _variations(
            self._chain, Fraction(bound)
        )
        if n_roots != len(coeffs) - 1:
            raise ValueError("polynomial is not totally real / squarefree")
        stack = [(Fraction(-bound), Fraction(bound), n_roots)]
        done = []
        while stack:
            lo, hi, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                done.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            if _eval(poly, mid) == 0:
                # cannot happen for irreducible poly of degree >= 2;
                # nudge the cut point to keep endpoints sign-definite
                mid = (3 * lo + hi) / 4
            left = _variations(self._chain, lo) - _variations(self._chain, mid)
            stack.append((lo, mid, left))
            stack.append((mid, hi, cnt - left))
        done.sort(key=lambda iv: iv[0], reverse=True)
        self._intervals = done
        self._bits = 0
        self.refine(INITIAL_BITS)

    def refine(self, bits: int) -> None:
        """Shrink all enclosures to width <= 2^-bits."""
        if bits <= self._bits:
            return
        if bits > MAX_BITS:
            raise PrecisionExhausted(f"refinement beyond {MAX_BITS} bits requested")
        width = Fraction(1, 2**bits)
        poly = [Fraction(c) for c in self.coeffs]
        new = []
        for lo, hi in self._intervals:
            slo = 1 if _eval(poly, lo) > 0 else -1
            while hi - lo > width:
                mid = (lo + hi) / 2
                v = _eval(poly, mid)
                if v == 0:
                    raise ArithmeticError("rational root in irreducible polynomial")
                if (1 if v > 0 else -1) == slo:
                    lo = mid
                else:
                    hi = mid
            new.append((lo, hi))
        self._intervals = new
        self._bits = bits

    def intervals(self, bits: int = INITIAL_BITS) -> list[tuple[Fraction, Fraction]]:
        self.refine(bits)
        return list(self._intervals)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def interval_mul(a, b):
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(prods), max(prods))


def interval_eval(coeffs, iv):
    """Evaluate a polynomial with exact rational coefficients on an interval
    by Horner's rule; returns a rigorous enclosure of the range."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = interval_mul(acc, iv)
        acc = (acc[0] + c, acc[1] + c)
    return acc


def interval_sign(iv) -> int | None:
    """+1/-1 if the enclosure is sign-definite, 0 if identically zero,
    None if the sign is unresolved."""
    lo, hi = iv
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == 0 and hi == 0:
        return 0
    return None
