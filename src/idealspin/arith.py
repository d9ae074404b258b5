"""Rational-integer utilities: sieves, primality, factoring, Jacobi symbols,
and dense polynomial arithmetic over F_p.

Everything here is exact and deterministic (Pollard rho uses a fixed
increment schedule, not randomness).
"""

from itertools import compress
from math import gcd, isqrt, lcm

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int, lo: int = 2) -> list[int]:
    """All rational primes p with lo <= p <= limit, ascending.  Only the
    window [lo, limit] is sieved, by the primes up to isqrt(limit)."""
    lo = max(lo, 2)
    if limit < lo:
        return []
    mark = bytearray([1]) * (limit - lo + 1)
    for p in sieve_primes(isqrt(limit)):
        start = max(p * p, -(-lo // p) * p) - lo
        mark[start::p] = bytearray(len(range(start, len(mark), p)))
    return list(compress(range(lo, limit + 1), mark))


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant with deterministic c schedule.
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: exponent}; factorint(1) == {}."""
    n = abs(n)
    if n <= 1:
        return {}
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def squarefree(n: int) -> bool:
    return all(e == 1 for e in factorint(n).values())


def squarefull(n: int) -> bool:
    """Every prime factor appears at least squared (1 is squarefull)."""
    return all(e >= 2 for e in factorint(n).values())


def jacobi(a: int, n: int) -> int:
    """Classical Jacobi symbol (a/n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi requires positive odd n")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def iroot_ceil(v: int, n: int) -> int:
    """Smallest integer >= v^(1/n)."""
    if v <= 1:
        return v
    r = int(round(v ** (1.0 / n)))
    while r**n < v:
        r += 1
    while (r - 1) ** n >= v:
        r -= 1
    return r


def legendre(a: int, p: int) -> int:
    """Legendre symbol via Euler's criterion; p an odd prime."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


# ---------------------------------------------------------------------------
# Dense polynomials over F_p, coefficient lists low-degree-first.

def poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a*b reduced mod (f, p); f monic with leading coefficient 1 mod p."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return poly_modred(prod, f, p)


def poly_modred(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod (f, p), trimmed; f monic mod p.  Each coefficient is reduced
    mod p once, when it is final."""
    n = len(f) - 1
    a = list(a)
    for d in range(len(a) - 1, n - 1, -1):
        c = a[d] % p
        if c:
            for k in range(n):
                a[d - n + k] -= c * f[k]
    return poly_trim([c % p for c in a[:n]])


def poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = poly_modred(list(a), f, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, f, p)
        base = poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def poly_gcd_modp(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    a = poly_trim([c % p for c in a])
    b = poly_trim([c % p for c in b])
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r over F_p and deg r < deg b; b trimmed mod p
    and nonzero."""
    a = poly_trim([c % p for c in a])
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        off = len(a) - len(b)
        q[off] = c
        for i, bi in enumerate(b):
            a[off + i] = (a[off + i] - c * bi) % p
        a.pop()
        poly_trim(a)
    return poly_trim(q), a


def p_maximal(f, p: int) -> bool:
    """Is Z[x]/(f) maximal at the prime p?  Dedekind's criterion for a monic
    integer f: with g the product of the distinct irreducible factors of
    f mod p, h = f/g mod p and F = (g*h - f)/p, the order is p-maximal iff
    gcd(F, g, h) = 1 mod p."""
    fbar = [c % p for c in f]
    n = len(f) - 1
    # x^(p^L) - x with L = lcm(1..n) is the product of every monic
    # irreducible whose degree divides L, so its gcd with f is g
    xq = poly_powmod([0, 1], p ** lcm(*range(1, n + 1)), fbar, p) + [0, 0]
    xq[1] -= 1
    g = poly_gcd_modp(xq, fbar, p)
    h = _poly_divmod(fbar, g, p)[0]
    # g*h and f are monic of degree n: one reduction mod (f, p^2) is g*h - f
    F = [c // p for c in poly_mulmod(g, h, f, p * p)]
    return poly_gcd_modp(poly_gcd_modp(F, g, p), h, p) == [1]


def poly_roots_modp(f: list[int], p: int) -> list[int]:
    """All roots of f in F_p, ascending, with deterministic splitting."""
    f = poly_trim([c % p for c in f])
    if not f:
        raise ValueError("zero polynomial")
    if p < 60 or len(f) - 1 >= p:
        return [r for r in range(p) if _poly_eval_modp(f, r, p) == 0]
    lead = pow(f[-1], -1, p)
    f = [c * lead % p for c in f]  # monic, as the powering below needs
    if len(f) == 3:
        # x^2 + bx + c: (-b +- sqrt(disc)) / 2, p odd here
        c, b, _ = f
        disc = (b * b - 4 * c) % p
        if jacobi(disc, p) == -1:
            return []
        s = _sqrt_modp(disc, p)
        half = (p + 1) // 2
        return sorted({(-b + s) * half % p, (-b - s) * half % p})
    # restrict to the product of linear factors: gcd(x^p - x, f)
    xp = poly_powmod([0, 1], p, f, p)
    xp_minus_x = list(xp) + [0] * (2 - len(xp))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    return sorted(split_linear(poly_gcd_modp(xp_minus_x, f, p), p))


def _sqrt_modp(a: int, p: int) -> int:
    """A square root of the residue a mod an odd prime p, by deterministic
    Tonelli-Shanks (the smallest non-residue as the generator)."""
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _poly_eval_modp(f: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def split_linear(g: list[int], p: int):
    """Yield the roots of g, a squarefree product of distinct linear factors
    mod p, splitting with deterministic shifts.  The smaller factor of each
    split is searched first, so the first root comes cheaply."""
    deg = len(g) - 1
    if deg <= 0:
        return
    if deg == 1:
        # monic x + c -> root -c; normalize first
        yield -g[0] * pow(g[1], -1, p) % p
        return
    if g[0] == 0:
        yield 0
        yield from split_linear(poly_trim(g[1:]), p)
        return
    # gcd((x+c)^((p-1)/2) - 1, g) splits g for some shift c
    for c in range(p):
        h = poly_powmod([c, 1], (p - 1) // 2, g, p)
        h = list(h) + [0] * (1 - len(h))
        h[0] = (h[0] - 1) % p
        d = poly_gcd_modp(h, g, p)
        if 0 < len(d) - 1 < deg:
            for part in sorted((d, _poly_divmod(g, d, p)[0]), key=len):
                yield from split_linear(part, p)
            return
    raise ArithmeticError("root splitting failed")
