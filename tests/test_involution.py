import random

import pytest

from idealspin.arith import jacobi, legendre, sieve_primes
from idealspin.errors import HypothesisViolated
from idealspin.fields import construct_field
from idealspin.ideals import prime_power_ideal, split_prime
from idealspin.involution import (
    eq_10_11_sum,
    half_trace_invariants,
    involution_spin_sum,
    lemma_10_3_check,
    quad_spin_records,
    qualifying_generator,
    spin_involution_direct,
    spin_involution_formula,
)
from idealspin.spin import canonical_ideal_generator
from idealspin.units import build_domain


def test_qualifying_generator(quad5, dom5):
    found = 0
    for p in sieve_primes(600):
        if p in (2, 5) or legendre(5, p) != 1:
            continue
        pr = split_prime(quad5, p)[0]
        pi = qualifying_generator(quad5, dom5, pr)
        if pi is None:
            continue
        found += 1
        assert quad5.coords_mod(pi, 8) == quad5.coords_mod(quad5.one, 8)
        assert quad5.is_totally_positive(pi)
        assert abs(pi.norm()) == p
    assert found > 0


def _walk_qualifying_generator(ctx, dom, prime):
    """Reference: walk g * eps^(2k), k = 0, 1, ..., mod 8 until it reaches
    1 or repeats; g the canonical generator."""
    g = canonical_ideal_generator(ctx, dom, prime)
    eps2 = ctx.unit_generators[1] ** 2
    target = ctx.coords_mod(ctx.one, 8)
    cur = ctx.coords_mod(g, 8)
    step = ctx.coords_mod(eps2, 8)
    pi = g
    seen = set()
    while cur not in seen:
        if cur == target:
            return pi
        seen.add(cur)
        cur = tuple(c % 8 for c in ctx.mul_coords(cur, step))
        pi = pi * eps2
    return None


@pytest.mark.parametrize("d", [5, 13, 41])
def test_qualifying_generator_matches_eps2_walk(d):
    """The table lookup returns the walk's generator (least k) for the prime
    at position 0 above every split odd p <= 20000, so the beta column of
    quad-spins does not move."""
    ctx = construct_field("real_quadratic", d)
    dom = build_domain(ctx)
    found = 0
    for p in sieve_primes(20000):
        if p == 2 or d % p == 0 or legendre(d, p) != 1:
            continue
        pr = split_prime(ctx, p)[0]
        pi = qualifying_generator(ctx, dom, pr)
        assert pi == _walk_qualifying_generator(ctx, dom, pr), p
        found += pi is not None
    assert found > 50


def test_ramified_direct_zero(quad5, dom5):
    (pr5,) = split_prime(quad5, 5)
    assert pr5.e == 2
    assert spin_involution_direct(quad5, dom5, pr5) == 0


def test_dual_pipeline_small(quad5, dom5):
    count = 0
    for rec in quad_spin_records(quad5, dom5, 3000):
        assert rec.agree
        count += 1
    assert count > 10


def test_formula_is_jacobi(quad5, dom5):
    # d = 5 prime: the formula value is the plain Legendre symbol of beta
    for rec in quad_spin_records(quad5, dom5, 2000):
        assert rec.spin_formula == legendre(rec.beta % 5, 5)


def test_formula_d13_brute_squares(dom5):
    ctx = construct_field("real_quadratic", 13)
    dom = build_domain(ctx)
    squares = {x * x % 13 for x in range(1, 13)}
    n = 0
    for rec in quad_spin_records(ctx, dom, 10**4):
        expect = 1 if rec.beta % 13 in squares else -1
        assert rec.spin_formula == expect
        n += 1
        if n >= 20:
            break
    assert n >= 20


def test_generator_mod8_orbit_invariance(quad5, dom5):
    eps2 = quad5.unit_generators[1] ** 2
    img8 = quad5.coords_mod(eps2, 8)
    # walk eps^2 powers preserving the mod-8 class: spin must not move
    for rec in quad_spin_records(quad5, dom5, 2000):
        pi = rec.pi
        order = 1
        cur = img8
        one = quad5.coords_mod(quad5.one, 8)
        while cur != one:
            cur = tuple(c % 8 for c in quad5.mul_coords(cur, img8))
            order += 1
        pi2 = pi * eps2**order
        assert quad5.coords_mod(pi2, 8) == quad5.coords_mod(pi, 8)
        assert spin_involution_formula(quad5, pi2) == rec.spin_formula


def test_half_trace_invariants(quad5, dom5):
    for rec in quad_spin_records(quad5, dom5, 3000):
        inv = half_trace_invariants(quad5, rec.pi)
        assert inv["all"], rec


def test_formula_hypotheses(quad5, dom5):
    with pytest.raises(HypothesisViolated):
        spin_involution_formula(quad5, quad5.element((3, 0)))  # not 1 mod 8


def test_lemma_10_3(quad5):
    p11 = split_prime(quad5, 11)[0]
    assert lemma_10_3_check(quad5, 1, p11)
    assert lemma_10_3_check(quad5, 4, p11)
    assert lemma_10_3_check(quad5, 2, p11)
    rng = random.Random(51)
    split_ps = [p for p in sieve_primes(2000)
                if p not in (2, 5) and legendre(5, p) == 1]
    for _ in range(100):
        p = rng.choice(split_ps)
        x = rng.randint(1, 10**6)
        if x % p == 0:
            continue
        pr = split_prime(quad5, p)[rng.randint(0, 1)]
        assert lemma_10_3_check(quad5, x, pr)


def test_eq_10_11(quad5):
    assert eq_10_11_sum(quad5) == 0
    for d in (13, 17):
        assert eq_10_11_sum(construct_field("real_quadratic", d)) == 0


def test_involution_sum_trivial(quad5, dom5):
    stats = involution_spin_sum(quad5, dom5, 10)
    assert stats["sum"] == 0 and stats["count"] == 0


def test_conjugate_prime_same_spin(quad5, dom5):
    # the stream keeps the prime at position 0; its conjugate must qualify
    # alike.  beta itself depends on which eps^(2k) the unit-square table
    # picks; only the spin (its symbol against d) is a prime invariant
    records = {rec.p: rec for rec in quad_spin_records(quad5, dom5, 3000)}
    for p in sieve_primes(3000):
        if p in (2, 5) or legendre(5, p) != 1:
            continue
        first, conj = split_prime(quad5, p)
        pi = qualifying_generator(quad5, dom5, conj)
        assert (pi is None) == (p not in records)
        if pi is None:
            continue
        rec = records[p]
        assert rec.prime == first
        assert spin_involution_formula(quad5, pi) == rec.spin_formula
        assert spin_involution_direct(quad5, dom5, conj) == rec.spin_direct
    assert len(records) > 10
