import io
import random

import pytest

from idealspin import cli
from idealspin.arith import sieve_primes
from idealspin.errors import EvenIdeal, GeneratorNotFound, NotCoprime
from idealspin.fields import construct_field
from idealspin.ideals import (
    apply_galois_ideal,
    enumerate_prime_ideals,
    find_generator,
    make_ideal,
    prime_power_ideal,
    split_prime,
)
from idealspin.lattice import lll_reduce, short_vectors
from idealspin.spin import (
    canonical_ideal_generator,
    collect_spin_records,
    conjugation_relation_check,
    spin,
    spin_record,
    twisted_multiplicativity_check,
)
from idealspin.symbols import residue_symbol
from idealspin.units import build_domain, canonical_generator, square_multiplier


def test_spin_ramified_zero(shanks1, dom1):
    p7 = split_prime(shanks1, 7)[0]
    assert spin(shanks1, dom1, p7, 1) == 0


def test_spin_even_rejected(shanks1, dom1):
    p2 = split_prime(shanks1, 2)[0]
    with pytest.raises(EvenIdeal):
        spin(shanks1, dom1, p2, 1)


def test_spin_unit_square_invariance(shanks1, dom1):
    rng = random.Random(31)
    for p in (13, 29, 41, 43):
        for prime in split_prime(shanks1, p):
            g = canonical_ideal_generator(shanks1, dom1, prime)
            tgt = apply_galois_ideal(shanks1, prime_power_ideal(prime), 1)
            base = residue_symbol(shanks1, g, tgt)
            for _ in range(5):
                u = shanks1.unit_generators[rng.randint(1, 2)] ** rng.randint(1, 3)
                assert residue_symbol(shanks1, g * u * u, tgt) == base


def test_spin_independent_generator_pipeline(shanks1, dom1):
    # an exhaustive short-vector search picks different raw generators; the
    # spin must not care
    from idealspin.ideals import ideal_lattice
    from idealspin.units import make_totally_positive

    for p in (13, 29, 41):
        prime = split_prime(shanks1, p)[0]
        I = prime_power_ideal(prime)
        rows = lll_reduce(shanks1, ideal_lattice(shanks1, I))
        tgt = apply_galois_ideal(shanks1, I, 1)
        values = set()
        for vec in short_vectors(shanks1, rows, 16 * 3 * p):
            if abs(shanks1.norm_coords(vec)) == p:
                g = make_totally_positive(shanks1, shanks1.element(vec))
                values.add(residue_symbol(shanks1, g, tgt))
        assert len(values) == 1
        assert values.pop() == spin(shanks1, dom1, I, 1)


def test_galois_invariance(shanks1, dom1):
    for p in sieve_primes(500):
        prs = split_prime(shanks1, p)
        if len(prs) != 3:
            continue
        assert len({spin_record(shanks1, dom1, q).spins for q in prs}) == 1


def test_zero_locus_degree_one(shanks1, dom1):
    for p in sieve_primes(300):
        for q in split_prime(shanks1, p):
            if q.f != 1 or q.p == 2:
                continue
            rec = spin_record(shanks1, dom1, q)
            if q.e > 1:
                assert rec.spins == (0, 0)
            else:
                assert 0 not in rec.spins


def test_stream_example(shanks1, dom1):
    recs = collect_spin_records(shanks1, dom1, 13)
    assert [r.prime.norm for r in recs] == [7, 8, 13, 13, 13]
    # degree-one filter drops norm 8; nothing below 7 remains
    recs = collect_spin_records(shanks1, dom1, 6, degree_one_only=True)
    assert recs == []


def test_stream_mod8_filter(shanks1, dom1):
    """The filtered stream keeps exactly the primes whose generator has a
    unit-square multiple = 1 mod 8 (square_multiplier is checked against
    the brute-force image in test_units)."""
    one = shanks1.coords_mod(shanks1.one, 8)
    recs = collect_spin_records(shanks1, dom1, 3000, mod8_class=one)
    assert recs  # some primes qualify
    all_recs = collect_spin_records(shanks1, dom1, 3000)
    expect = [r for r in all_recs
              if square_multiplier(shanks1, ((8, one),), r.generator) is not None]
    assert [r.prime for r in recs] == [r.prime for r in expect]


def test_twisted_multiplicativity(shanks1, dom1):
    rng = random.Random(33)
    split_ps = [p for p in sieve_primes(2000) if len(split_prime(shanks1, p)) == 3]
    pairs = 0
    while pairs < 30:
        pa, pb = rng.sample(split_ps, 2)
        A = prime_power_ideal(split_prime(shanks1, pa)[rng.randint(0, 2)])
        B = prime_power_ideal(split_prime(shanks1, pb)[rng.randint(0, 2)])
        assert twisted_multiplicativity_check(shanks1, dom1, A, B)
        pairs += 1


def test_twisted_multiplicativity_unit_ideal(shanks1, dom1):
    from idealspin.ideals import UNIT_IDEAL

    A = prime_power_ideal(split_prime(shanks1, 13)[0])
    assert twisted_multiplicativity_check(shanks1, dom1, A, UNIT_IDEAL)


def test_twisted_multiplicativity_rejects_conjugates(shanks1, dom1):
    prs = split_prime(shanks1, 13)
    with pytest.raises(NotCoprime):
        twisted_multiplicativity_check(
            shanks1, dom1, prime_power_ideal(prs[0]), prime_power_ideal(prs[1])
        )


def test_conjugation_relation(shanks1, dom1):
    for p in sieve_primes(500):
        for q in split_prime(shanks1, p):
            assert conjugation_relation_check(shanks1, dom1, q)


def test_spin_composite_ideal(shanks1, dom1):
    # spin of a product ideal is defined and matches the direct symbol
    pa = split_prime(shanks1, 13)[0]
    pb = split_prime(shanks1, 29)[0]
    I = prime_power_ideal(pa) * prime_power_ideal(pb)
    g = canonical_ideal_generator(shanks1, dom1, I)
    assert abs(g.norm()) == 13 * 29
    s = spin(shanks1, dom1, I, 1)
    assert s == residue_symbol(shanks1, g, apply_galois_ideal(shanks1, I, 1))


def test_canonical_generator_is_canonical(shanks1, dom1):
    from idealspin.units import domain_contains

    for p in (13, 29, 43):
        prime = split_prime(shanks1, p)[0]
        g = canonical_ideal_generator(shanks1, dom1, prime)
        assert shanks1.is_totally_positive(g)
        assert domain_contains(dom1, g) in ("inside", "boundary")
        # re-canonicalizing any unit-square associate reproduces it
        u = shanks1.unit_generators[1]
        assert canonical_generator(dom1, g * u * u) == g


@pytest.mark.parametrize("family,param", [
    ("shanks_cubic", 1), ("shanks_cubic", 4), ("shanks_cubic", 7), ("real_quadratic", 5),
    ("real_quadratic", 17),
])
def test_stream_matches_the_search(family, param):
    """Differential check: for every prime ideal of norm < 2000 the census
    stream gives the record of the lattice search, the ramified prime, the
    primes above 2 (split on quad:17) and the boundary ties of test_units
    included.  On shanks:7, sigma(alpha) = -2 + 6 alpha + alpha^2, so the
    positions and spins read the Galois orbit at shifted indices."""
    ctx = construct_field(family, param)
    dom = build_domain(ctx)
    got = collect_spin_records(ctx, dom, 1999)
    assert got == [spin_record(ctx, dom, pr) for pr in enumerate_prime_ideals(ctx, 1999)]
    assert any(r.prime.e > 1 for r in got) and any(r.prime.p == 2 for r in got)


@pytest.mark.parametrize("d,missed", [(73, 38), (97, 44), (109, 16)])
def test_spins_rows_where_the_search_fails(d, missed):
    """On these h+ = 1 fields the lattice search (kappa <= 64) misses some
    primes of norm <= 500.  spins keeps every row the search gives and adds
    one row for each prime it misses, with nothing on stderr."""
    ctx = construct_field("real_quadratic", d)
    dom = build_domain(ctx)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["spins", "--field", f"quad:{d}", "--max-norm", "500"], out, err) == 0
    assert err.getvalue() == ""
    rows = out.getvalue().splitlines()[1:]
    found = []
    for prime in enumerate_prime_ideals(ctx, 500):
        try:
            rec = spin_record(ctx, dom, prime)
        except GeneratorNotFound:
            continue
        r = prime.r if prime.r is not None else -1
        gen = ":".join(map(str, rec.generator.coords))
        found.append(",".join(map(str, (prime.p, r, prime.norm, gen, *rec.spins))))
    assert set(found) <= set(rows)
    assert len(rows) == len(found) + missed
