"""The integral LLL against the Fraction LLL it replaced, and the half-space
short-vector enumeration against the full-space one."""

import random
from fractions import Fraction

import pytest

from idealspin.fields import construct_field
from idealspin.arith import iroot_ceil
from idealspin.ideals import (
    enumerate_ideals,
    enumerate_prime_ideals,
    ideal_lattice,
    make_ideal,
    split_prime,
)
from idealspin.lattice import (
    _integral_gso,
    _round_div,
    _trace_dot,
    gram,
    hnf,
    lll_reduce,
    short_vectors,
)


def _gso_from_gram(G):
    """Reference Gram-Schmidt data (mu, B) from an exact Gram matrix."""
    n = len(G)
    mu = [[Fraction(0)] * n for _ in range(n)]
    c = [[Fraction(0)] * n for _ in range(n)]  # c[i][j] = <b_i, b*_j>
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i + 1):
            s = Fraction(G[i][j])
            for k in range(j):
                s -= mu[j][k] * c[i][k]
            c[i][j] = s
            if j < i:
                mu[i][j] = s / B[j]
        B[i] = c[i][i]
    return mu, B


def _fraction_lll(ctx, rows):
    """Reference LLL (delta = 3/4): recomputes the Fraction Gram-Schmidt
    data after every size-reduction step."""
    b = [list(r) for r in rows]
    n = len(b)
    delta = Fraction(3, 4)
    k = 1
    while k < n:
        mu, B = _gso_from_gram(gram(ctx, b))
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                mu, B = _gso_from_gram(gram(ctx, b))
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(k - 1, 1)
    return b


def _assert_lll_reduced(ctx, rows, basis):
    assert hnf(basis, ctx.degree) == hnf(rows, ctx.degree)
    mu, B = _gso_from_gram(gram(ctx, basis))
    for i in range(len(basis)):
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
        if i:
            assert B[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * B[i - 1]


def _skewed(rows, rng):
    """The same lattice under a random unimodular change of basis."""
    b = [list(r) for r in rows]
    for _ in range(12):
        i, j = rng.sample(range(len(b)), 2)
        q = rng.randint(-9, 9)
        b[i] = [x + q * y for x, y in zip(b[i], b[j])]
    return b


def test_round_div_matches_fraction_round():
    for num in range(-40, 41):
        for den in range(1, 9):
            assert _round_div(num, den) == round(Fraction(num, den)), (num, den)


@pytest.mark.parametrize("fixture", ["shanks1", "quad5"])
def test_lll_matches_fraction_lll_on_prime_lattices(fixture, request):
    ctx = request.getfixturevalue(fixture)
    primes = enumerate_prime_ideals(ctx, 3000)
    assert len(primes) > 400
    for pr in primes:
        rows = ideal_lattice(ctx, make_ideal([(pr, 1)]))
        got = lll_reduce(ctx, rows)
        assert got == _fraction_lll(ctx, rows), pr
        _assert_lll_reduced(ctx, rows, got)


def test_lll_matches_fraction_lll_on_composite_lattices(shanks1, quad5):
    for ctx in (shanks1, quad5):
        # 29, 41 and 71 split in both fields
        a, b, c = split_prime(ctx, 29)[0], split_prime(ctx, 41)[-1], split_prime(ctx, 71)[1]
        for ideal in (make_ideal([(a, 2)]), make_ideal([(c, 3)]),
                      make_ideal([(a, 1), (b, 1)]), make_ideal([(b, 1), (c, 2)])):
            rows = ideal_lattice(ctx, ideal)
            got = lll_reduce(ctx, rows)
            assert got == _fraction_lll(ctx, rows), ideal
            _assert_lll_reduced(ctx, rows, got)


def test_lll_matches_fraction_lll_on_skewed_bases(shanks1):
    # skewed bases force many swaps; degree 5 exercises the swap update of
    # every row above k
    rng = random.Random(7)
    lehmer = construct_field("lehmer_quintic", -1)
    for ctx in (shanks1, lehmer):
        for pr in enumerate_prime_ideals(ctx, 400)[:25]:
            rows = _skewed(ideal_lattice(ctx, make_ideal([(pr, 1)])), rng)
            got = lll_reduce(ctx, rows)
            assert got == _fraction_lll(ctx, rows), pr
            _assert_lll_reduced(ctx, rows, got)


def _full_space_short_vectors(ctx, basis, bound):
    """Reference: the enumeration before the half-space cut.  It walks both
    x and -x, normalizes each vector's sign and drops the duplicates."""
    n = len(basis)
    d, lam = _integral_gso(gram(ctx, basis))
    q = [[lam[i][j] / d[j + 1] for j in range(n)] for i in range(n)]
    Bf = [d[i + 1] / d[i] for i in range(n)]
    out = []
    x = [0] * n

    def recurse(i, rem, center_shift):
        if i < 0:
            if all(v == 0 for v in x):
                return
            vec = [0] * ctx.degree
            for j in range(n):
                if x[j]:
                    for t in range(ctx.degree):
                        vec[t] += x[j] * basis[j][t]
            if _trace_dot(ctx.trace_form, vec, vec) <= bound:
                for v in vec:
                    if v:
                        if v < 0:
                            vec = [-t for t in vec]
                        break
                out.append(tuple(vec))
            return
        center = -center_shift[i]
        radius = (max(rem, 0.0) / Bf[i]) ** 0.5 + 1.0
        lo = int(center - radius) - 1
        hi = int(center + radius) + 1
        for xi in range(lo, hi + 1):
            x[i] = xi
            dd = xi - center
            rem2 = rem - Bf[i] * dd * dd
            if rem2 < -1.0:
                continue
            shift2 = list(center_shift)
            for j in range(i):
                shift2[j] += xi * q[i][j]
            recurse(i - 1, rem2, shift2)
        x[i] = 0

    recurse(n - 1, float(bound) * (1.0 + 1e-9) + 1.0, [0.0] * n)
    seen = set()
    uniq = []
    for v in out:
        if v not in seen:
            seen.add(v)
            uniq.append(v)
    uniq.sort()
    return uniq


@pytest.mark.parametrize("fixture,X", [("shanks1", 3000), ("quad5", 3000), ("lehmer", 400)])
def test_half_space_short_vectors_match_full_space(fixture, X, request):
    """Every ideal of norm <= X, at the generator search's bounds for kappa
    in {1, 4, 16}: the same list, element for element."""
    ctx = (construct_field("lehmer_quintic", -1) if fixture == "lehmer"
           else request.getfixturevalue(fixture))
    n = ctx.degree
    cases = vectors = 0
    for ideal in enumerate_ideals(ctx, X)[1:]:
        basis = lll_reduce(ctx, ideal_lattice(ctx, ideal))
        base = n * iroot_ceil(ideal.norm**2, n)
        for kappa in (1, 4, 16):
            got = short_vectors(ctx, basis, kappa * base)
            assert got == _full_space_short_vectors(ctx, basis, kappa * base), (ideal, kappa)
            cases += 1
            vectors += len(got)
    assert vectors > cases
