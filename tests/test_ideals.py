import random

import pytest

from idealspin.arith import (
    _poly_divmod,
    poly_modred,
    poly_mulmod,
    poly_powmod,
    poly_roots_modp,
    poly_trim,
    sieve_primes,
)
from idealspin.errors import GeneratorNotFound
from idealspin.fields import construct_field
from idealspin.ideals import (
    UNIT_IDEAL,
    _orbit_roots,
    apply_galois_ideal,
    element_in_ideal,
    element_in_prime,
    enumerate_ideals,
    enumerate_prime_ideals,
    factor_element,
    find_generator,
    galois_prime,
    ideal_lattice,
    log_norm,
    make_ideal,
    mangoldt,
    moebius,
    prime_power_ideal,
    residue_of,
    split_prime,
    tau,
)
from idealspin.lattice import hnf_det, lattice_product
from idealspin.logcomb import LogCombination


@pytest.mark.parametrize("family,param", [
    ("shanks_cubic", 1), ("shanks_cubic", 4), ("real_quadratic", 5), ("real_quadratic", 13),
])
def test_poly_roots_modp_matches_brute_force(family, param):
    # 60 < p < 3000 has p = 3 mod 4, p = 5 mod 8 and p = 1 mod 8 (the
    # Tonelli-Shanks loop); below 60 the function itself is brute force
    f = list(construct_field(family, param).poly)
    for p in sieve_primes(3000, lo=61):
        brute = [r for r in range(p) if sum(c * r**i for i, c in enumerate(f)) % p == 0]
        assert poly_roots_modp(f, p) == brute, p


def test_poly_roots_modp_non_monic():
    for p in sieve_primes(700, lo=61):
        for f in ([22, 47, -7], [-1, 0, 3], [1, 0, 0, 2], [3, 1, 0, 5]):
            brute = [r for r in range(p) if sum(c * r**i for i, c in enumerate(f)) % p == 0]
            assert poly_roots_modp(f, p) == brute, (f, p)


def test_poly_divmod_identity():
    """q*b + r = a over F_p with deg r < deg b, for monic and non-monic b."""
    rng = random.Random(7)
    for p in (2, 3, 7, 61, 461):
        for _ in range(40):
            a = [rng.randrange(p) for _ in range(rng.randint(0, 8))]
            b = poly_trim([rng.randrange(p) for _ in range(rng.randint(1, 5))])
            if not b:
                continue
            if rng.random() < 0.5:
                b[-1] = 1  # monic half of the time, arbitrary otherwise
            q, r = _poly_divmod(a, b, p)
            assert len(r) < len(b)
            qb = [0] * (len(q) + len(b))
            for i, qi in enumerate(q):
                for j, bj in enumerate(b):
                    qb[i + j] += qi * bj
            total = poly_trim([(x + (r[i] if i < len(r) else 0)) % p
                               for i, x in enumerate(qb + [0] * len(a))])
            assert total == poly_trim([c % p for c in a])
    # a non-monic divisor with an exact quotient: (3x + 2)(5x^2 + 1) mod 7
    assert _poly_divmod([2, 3, 10, 15], [2, 3], 7) == ([1, 0, 5], [])


def _naive_mulmod(a, b, f):
    """a*b over Z, then its remainder by the monic f over Z."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    n = len(f) - 1
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        for k in range(n + 1):
            prod[d - n + k] -= c * f[k]
    return prod[:n]


@pytest.mark.parametrize("p", [2, 3, 61, 461, 2**31 - 1])
def test_poly_mulmod_matches_naive(p):
    """The product reduces mod p only once per output coefficient; it must
    equal reducing mod f over Z and then mod p, for negative and unreduced
    inputs and moduli f with negative coefficients."""
    rng = random.Random(p)
    for _ in range(300):
        n = rng.randint(1, 6)
        f = [rng.randint(-50, 50) for _ in range(n)] + [1]
        size = rng.choice((5, p, 10**12))
        a, b = ([rng.randint(-size, size) for _ in range(rng.randint(0, 2 * n))]
                for _ in range(2))
        want = poly_trim([c % p for c in _naive_mulmod(a, b, f)])
        assert poly_mulmod(a, b, f, p) == want, (a, b, f)
        assert poly_modred(a, f, p) == poly_trim([c % p for c in _naive_mulmod(a, [1], f)])
        e = rng.randint(0, 9)
        acc = [1]
        for _ in range(e):
            acc = _naive_mulmod(acc, a, f)
        assert poly_powmod(a, e, f, p) == poly_trim([c % p for c in acc]), (a, e, f)


@pytest.mark.parametrize("family,param,limit", [
    ("shanks_cubic", 1, 30000), ("shanks_cubic", 4, 30000), ("shanks_cubic", 5, 30000),
    ("shanks_cubic", 7, 30000), ("lehmer_quintic", -1, 3000),
])
def test_orbit_roots_match_poly_roots_modp(family, param, limit):
    """split_prime's Galois-orbit roots against the general root finder at
    every prime where the orbit path applies (p >= 60, p unramified)."""
    ctx = construct_field(family, param)
    f = list(ctx.poly)
    split = 0
    for p in sieve_primes(limit, lo=60):
        if ctx.disc_field % p == 0:
            continue
        roots = _orbit_roots(ctx, p)
        assert roots == poly_roots_modp(f, p), p
        assert [pr.r for pr in split_prime(ctx, p)] == (roots or [None]), p
        split += bool(roots)
    assert split > len(sieve_primes(limit, lo=60)) // (2 * ctx.degree)


@pytest.mark.parametrize("family,param", [
    ("shanks_cubic", 1), ("real_quadratic", 5), ("lehmer_quintic", -1), ("real_quadratic", 13),
])
def _prime_generator_rows(ctx, prime):
    """Generators of a prime ideal as a Z-module: p*I when inert, else p
    and alpha^i - r^i."""
    n, p = ctx.degree, prime.p
    if prime.f == n:
        return [[p if i == j else 0 for j in range(n)] for i in range(n)]
    return [[p] + [0] * (n - 1)] + [
        [-pow(prime.r, i, p) % p] + [int(i == j) for j in range(1, n)] for i in range(1, n)]


@pytest.mark.parametrize("family,param", [
    ("shanks_cubic", 1), ("real_quadratic", 5), ("lehmer_quintic", -1), ("real_quadratic", 13),
])
def test_ideal_lattice_closed_form_matches_hnf(family, param):
    """The closed-form HNF of a prime ideal, and of its square, against the
    HNF of the products of its generators with the power basis.  quad:13
    has the root r = 0 at p = 3."""
    ctx = construct_field(family, param)
    n = ctx.degree
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    zero_roots = 0
    for pr in enumerate_prime_ideals(ctx, 3000):
        gens = _prime_generator_rows(ctx, pr)
        want = lattice_product(ctx, identity, gens)
        assert ideal_lattice(ctx, prime_power_ideal(pr)) == want, pr
        if pr.norm <= 300:
            want = lattice_product(ctx, want, gens)
            assert ideal_lattice(ctx, prime_power_ideal(pr, 2)) == want, pr
        zero_roots += pr.f == 1 and pr.r % pr.p == 0
    assert zero_roots == (1 if param == 13 else 0)


def test_split_examples(shanks1):
    p13 = split_prime(shanks1, 13)
    assert sorted(pr.r for pr in p13) == [7, 8, 10]
    assert all(pr.f == 1 and pr.e == 1 for pr in p13)
    (p7,) = split_prime(shanks1, 7)
    assert (p7.e, p7.f, p7.r) == (3, 1, 2)
    (p2,) = split_prime(shanks1, 2)
    assert (p2.e, p2.f) == (1, 3)
    assert p2.norm == 8


def test_efg_sum(shanks1):
    for p in sieve_primes(200):
        assert sum(pr.e * pr.f for pr in split_prime(shanks1, p)) == 3


def test_ramified_iff_disc(shanks1):
    for p in sieve_primes(100):
        ram = any(pr.e > 1 for pr in split_prime(shanks1, p))
        assert ram == (shanks1.disc_field % p == 0)


def test_enumeration_order(shanks1):
    primes = enumerate_prime_ideals(shanks1, 13)
    assert [pr.norm for pr in primes] == [7, 8, 13, 13, 13]
    assert enumerate_prime_ideals(shanks1, 1) == []
    keys = [pr.sort_key for pr in enumerate_prime_ideals(shanks1, 500)]
    assert keys == sorted(keys)


def test_chebotarev_density(shanks1):
    # split rational primes have density 1/3
    degree_one = enumerate_prime_ideals(shanks1, 10**4, degree_one_only=True)
    split_ps = {pr.p for pr in degree_one if pr.e == 1}
    total = len(sieve_primes(10**4))
    assert abs(len(split_ps) / total - 1 / 3) < 0.1 / 3


def test_residues(shanks1):
    p13 = split_prime(shanks1, 13)
    pr7 = next(pr for pr in p13 if pr.r == 7)
    a = shanks1.alpha
    assert residue_of(shanks1, a, pr7) == 7
    assert residue_of(shanks1, shanks1.element((7, 13, 0)), pr7) == 7
    assert residue_of(shanks1, a.galois(1), pr7) in (8, 10)


def test_galois_prime_permutes(shanks1):
    for p in (13, 29, 41):
        prs = split_prime(shanks1, p)
        imgs = {galois_prime(shanks1, pr, 1).r for pr in prs}
        assert imgs == {pr.r for pr in prs}
        for pr in prs:
            assert galois_prime(shanks1, galois_prime(shanks1, pr, 1), 2) == pr


@pytest.mark.parametrize("family,param", [
    ("shanks_cubic", 4), ("real_quadratic", 13), ("lehmer_quintic", -1),
])
def test_galois_prime_contains_image_of_generator(family, param):
    """sigma^k(P) for P = (p, alpha - r) contains sigma^k(alpha - r); this
    fixes the direction of the action, which a permutation check does not."""
    ctx = construct_field(family, param)
    for pr in enumerate_prime_ideals(ctx, 1500, degree_one_only=True):
        for k in range(ctx.degree):
            img = galois_prime(ctx, pr, k)
            assert img.p == pr.p and element_in_prime(ctx, (ctx.alpha - pr.r).galois(k), img)


def test_generator_roundtrip(shanks1):
    rng = random.Random(5)
    ideals = [I for I in enumerate_ideals(shanks1, 500) if not I.is_unit_ideal()]
    for I in rng.sample(ideals, 40):
        g = find_generator(shanks1, I)
        assert abs(g.norm()) == I.norm
        assert element_in_ideal(shanks1, g, I)
        assert factor_element(shanks1, g) == I


def test_generator_of_unit_ideal(shanks1):
    assert find_generator(shanks1, UNIT_IDEAL) == shanks1.one


def test_full_rational_prime_generator(shanks1):
    I = make_ideal([(split_prime(shanks1, 7)[0], 3)])  # (7, a-2)^3 = (7)
    g = find_generator(shanks1, I)
    assert abs(g.norm()) == 343
    assert factor_element(shanks1, g) == I


def test_ideal_lattice_det(shanks1):
    for I in enumerate_ideals(shanks1, 200):
        assert hnf_det(ideal_lattice(shanks1, I)) == I.norm


def test_mangoldt_moebius_tau(shanks1):
    p13 = split_prime(shanks1, 13)
    sq = make_ideal([(p13[0], 2)])
    assert mangoldt(sq) == LogCombination({13: 1})
    assert moebius(UNIT_IDEAL) == 1
    assert moebius(make_ideal([(p13[0], 2), (p13[1], 1)])) == 0
    assert moebius(make_ideal([(p13[0], 1), (p13[1], 1)])) == 1
    assert tau(make_ideal([(p13[0], 2), (p13[1], 1)])) == 6


def test_log_norm_collisions(shanks1):
    # distinct primes over the same p must accumulate, not collide
    p13 = split_prime(shanks1, 13)
    I = make_ideal([(p13[0], 1), (p13[1], 1)])
    assert log_norm(I) == LogCombination({13: 2})


def test_mangoldt_partial_sums(shanks1):
    # sum over divisors of Lambda equals log of the norm, for all ideals
    ideals = enumerate_ideals(shanks1, 10**4)
    import bisect

    norms = [I.norm for I in ideals]
    rng = random.Random(6)
    for I in rng.sample(ideals, 60):
        total = LogCombination()
        for D in ideals[: bisect.bisect_right(norms, I.norm)]:
            # D | I iff every factor's exponent fits
            exps = dict(I.factors)
            if all(exps.get(pr, 0) >= k for pr, k in D.factors):
                total = total + mangoldt(D)
        assert total == log_norm(I)


def test_moebius_orthogonality(shanks1):
    ideals = enumerate_ideals(shanks1, 10**4)
    rng = random.Random(7)
    for I in rng.sample(ideals, 60):
        exps = dict(I.factors)
        tot = 0
        # divisors of I: iterate over the (small) factor exponent grid
        from itertools import product

        keys = list(exps)
        ranges = [range(exps[k] + 1) for k in keys]
        for combo in product(*ranges):
            D = make_ideal(zip(keys, combo))
            tot += moebius(D)
        assert tot == (1 if I.is_unit_ideal() else 0)


def test_apply_galois_ideal(shanks1):
    p13 = split_prime(shanks1, 13)
    I = make_ideal([(p13[0], 2), (p13[1], 1)])
    J = apply_galois_ideal(shanks1, I, 1)
    assert J.norm == I.norm
    assert apply_galois_ideal(shanks1, J, 2) == I


def test_generator_not_found_surfaces(shanks1):
    I = prime_power_ideal(split_prime(shanks1, 13)[0])
    with pytest.raises(GeneratorNotFound):
        find_generator(shanks1, I, kappa_start=1, kappa_max=0)
