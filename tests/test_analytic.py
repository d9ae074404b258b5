import random

import pytest

from idealspin.analytic import (
    SequenceA,
    bilinear_form,
    burgess_scan,
    char_sum_scan,
    congruence_sum,
    ones_sequence,
    spin_sequence,
    spin_sum,
    vaughan_verify,
)
from idealspin.errors import CostGuard, HypothesisViolated
from idealspin.ideals import (
    UNIT_IDEAL,
    enumerate_ideals,
    mangoldt,
    prime_power_ideal,
    split_prime,
)
from idealspin.logcomb import LogCombination
from idealspin.symbols import dirichlet_char


def test_logcomb_arithmetic():
    a = LogCombination({2: 3, 13: 1})
    b = LogCombination({13: 1, 7: -2})
    assert a + b == LogCombination({2: 3, 13: 2, 7: -2})
    assert a - a == LogCombination()
    assert 2 * b == LogCombination({13: 2, 7: -4})
    assert (a - a).is_zero()
    assert abs(a.value() - (3 * 0.6931471805599453 + 2.5649493574615367)) < 1e-12


def test_spin_sum_trivial(shanks1, dom1):
    assert spin_sum(shanks1, dom1, 2) == (0, 0)


def test_spin_sum_small(shanks1, dom1):
    total, count = spin_sum(shanks1, dom1, 13)
    # records at norms 7, 8, 13x3: ramified/even contribute 0
    assert count == 5
    assert total == sum(r.spins[0] for r in _records(shanks1, dom1, 13))


def _records(ctx, dom, X):
    from idealspin.spin import collect_spin_records

    recs = collect_spin_records(ctx, dom, X)
    return recs


def test_spin_sum_k_symmetry_mod4(shanks1, dom1):
    # restricted to canonical generators = 1 mod 4 the k=1 and k=2 sums agree
    recs = _records(shanks1, dom1, 3000)
    s1 = s2 = 0
    for r in recs:
        g = r.generator
        if all(int(c) % 4 == (1 if i == 0 else 0) for i, c in enumerate(g.coords)):
            s1 += r.spins[0]
            s2 += r.spins[1]
    assert s1 == s2


def test_congruence_sum_full(shanks1, dom1):
    seq = ones_sequence()
    total = congruence_sum(shanks1, seq, UNIT_IDEAL, 400)
    assert total == len(enumerate_ideals(shanks1, 400))


def test_congruence_sum_bound(shanks1, dom1):
    seq = spin_sequence(shanks1, dom1)
    d = prime_power_ideal(split_prime(shanks1, 13)[0])
    X = 3000
    val = congruence_sum(shanks1, seq, d, X)
    assert abs(val) <= X // d.norm + 1


def test_congruence_sum_hypotheses(shanks1):
    seq = ones_sequence()
    p7 = prime_power_ideal(split_prime(shanks1, 7)[0])  # ramified: conj = itself
    with pytest.raises(HypothesisViolated):
        congruence_sum(shanks1, seq, p7, 100)
    p2 = prime_power_ideal(split_prime(shanks1, 2)[0])
    with pytest.raises(HypothesisViolated):
        congruence_sum(shanks1, seq, p2, 100)
    d13 = prime_power_ideal(split_prime(shanks1, 13)[0])
    with pytest.raises(HypothesisViolated):
        congruence_sum(shanks1, seq, d13, 100, F=13 * 32)


def test_congruence_blockwise_additivity(shanks1, dom1):
    seq = spin_sequence(shanks1, dom1)
    d = prime_power_ideal(split_prime(shanks1, 13)[0])
    total = congruence_sum(shanks1, seq, d, 2000)
    # blockwise: count ideals with norm in (0,1000] and (1000,2000]
    lo = congruence_sum(shanks1, seq, d, 1000)
    hi = 0
    for L in enumerate_ideals(shanks1, 2000 // 13):
        I = d * L
        if 1000 < I.norm <= 2000:
            hi += seq(I)
    assert lo + hi == total


def test_bilinear_zero_coefficients(shanks1, dom1):
    seq = spin_sequence(shanks1, dom1)
    assert bilinear_form(shanks1, seq, 50, 50, lambda I: 0, lambda I: 1) == 0


def test_bilinear_against_nested_loop(shanks1, dom1):
    seq = spin_sequence(shanks1, dom1)
    val = bilinear_form(shanks1, seq, 50, 50, mangoldt, lambda I: 1)
    # independent oracle: fresh sequence, plain double loop
    seq2 = spin_sequence(shanks1, dom1)
    expect = LogCombination()
    for m in enumerate_ideals(shanks1, 50):
        lam = mangoldt(m)
        if lam.is_zero():
            continue
        for n in enumerate_ideals(shanks1, 50):
            a = seq2(m * n)
            if a:
                expect = expect + a * lam
    assert val == expect


def test_bilinear_triangle_bound(shanks1, dom1):
    seq = spin_sequence(shanks1, dom1)
    val = bilinear_form(shanks1, seq, 50, 50, mangoldt, lambda I: 1)
    crude = sum(abs(mangoldt(m).value()) for m in enumerate_ideals(shanks1, 50)) * len(
        enumerate_ideals(shanks1, 50)
    )
    assert abs(val.value()) <= crude


def test_bilinear_cost_guard(shanks1, dom1):
    with pytest.raises(CostGuard):
        bilinear_form(shanks1, ones_sequence(), 10**5, 10**5, mangoldt, lambda I: 1)


def test_bilinear_bad_coefficient_rejected(shanks1):
    with pytest.raises(ValueError):
        bilinear_form(shanks1, ones_sequence(), 50, 50, lambda I: 99, lambda I: 1)


def test_vaughan_ones(shanks1):
    rep = vaughan_verify(shanks1, ones_sequence(), 100, 4, 25)
    assert rep.exact_identity_holds


def test_vaughan_random_sweep(shanks1):
    for seed in (1, 2):
        for y in (2, 4, 5, 8, 10, 16, 20):
            rng = random.Random(seed)
            seq = SequenceA(lambda I: rng.choice((-1, 0, 1)))
            rep = vaughan_verify(shanks1, seq, 400, y, 400 // y)
            assert rep.exact_identity_holds, (seed, y)


def test_vaughan_spin(shanks1, dom1):
    seq = spin_sequence(shanks1, dom1)
    rep = vaughan_verify(shanks1, seq, 2000, 10, 200)
    assert rep.exact_identity_holds


def test_vaughan_rejects_bad_shape(shanks1):
    with pytest.raises(ValueError):
        vaughan_verify(shanks1, ones_sequence(), 100, 3, 25)
    with pytest.raises(ValueError):
        vaughan_verify(shanks1, ones_sequence(), 100, 50, 2)


def test_char_scan_full_period_zero(shanks1):
    chi = dirichlet_char(shanks1, split_prime(shanks1, 13)[0])
    # window of a full period sums to zero: max over that window length is 0
    sums = [sum(chi(n) for n in range(M + 1, M + 14)) for M in range(13)]
    assert all(s == 0 for s in sums)


def test_char_scan_brute_force(shanks1):
    chi = dirichlet_char(shanks1, split_prime(shanks1, 13)[0])
    for N in (1, 2, 3, 5, 8):
        mx, arg = char_sum_scan(chi, N)
        brute = [abs(sum(chi(n) for n in range(M + 1, M + N + 1))) for M in range(13)]
        assert mx == max(brute)
        assert brute[arg] == mx


def test_char_scan_random_windows(shanks1):
    rng = random.Random(41)
    pr = split_prime(shanks1, 41)[0]
    chi = dirichlet_char(shanks1, pr)
    for _ in range(200):
        N = rng.randint(1, 60)
        M0 = rng.randint(0, 40)
        mx, arg = char_sum_scan(chi, N, M_range=range(M0, M0 + 7))
        brute = {M: abs(sum(chi(n) for n in range(M + 1, M + N + 1)))
                 for M in range(M0, M0 + 7)}
        assert mx == max(brute.values())
        assert brute[arg] == mx


def test_char_scan_progression(shanks1):
    chi = dirichlet_char(shanks1, split_prime(shanks1, 29)[0])
    mx, arg = char_sum_scan(chi, 10, progression=(3, 1))
    brute = [
        abs(sum(chi(n) for n in range(M + 1, M + 11) if n % 3 == 1))
        for M in range(29)
    ]
    assert mx == max(brute)


def test_burgess_scan_small(shanks1):
    rep = burgess_scan(shanks1, 600)
    assert rep["rows"]
    assert rep["max_ratio"] > 0
    again = burgess_scan(shanks1, 600)
    assert again["max_ratio"] == rep["max_ratio"]
    assert again["argmax_q"] == rep["argmax_q"]
