import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from idealspin import fields
from idealspin.arith import factorint, p_maximal, squarefree
from idealspin.errors import (
    EvenDiscriminant,
    HypothesisViolated,
    NormMinusOneUnitAbsent,
    PrecisionExhausted,
)
from idealspin.fields import (
    _cf_fundamental_unit,
    apply_automorphism,
    construct_field,
    find_root_in_field,
    poly_discriminant,
)
from idealspin.lattice import det, gauss_jordan
from idealspin.roots import MAX_BITS, RootIsolator, interval_eval


def _interval_mul(a, b):
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(prods), max(prods))


def _ref_interval_eval(coeffs, iv):
    """Reference kernel: interval Horner on Fraction endpoints."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = _interval_mul(acc, iv)
        acc = (acc[0] + c, acc[1] + c)
    return acc


def _fractions(triples):
    return [(Fraction(a, 1 << b), Fraction(c, 1 << b)) for a, c, b in triples]


def test_shanks_construction(shanks1):
    assert shanks1.poly == (-1, -2, 1, 1)
    assert shanks1.disc_field == 49  # (m^2 - 3m + 9)^2 at m = 1
    assert shanks1.degree == 3


def _integral_over_p(f, a, p):
    """Is (a_0 + a_1 x + ... + a_(n-1) x^(n-1))/p integral in Q[x]/(f)?  The
    coefficients e_k of the characteristic polynomial of a, found by
    Newton's identities from the traces s_k of the powers of its
    multiplication matrix, must be divisible by p^k."""
    n = len(f) - 1
    cols, v = [], list(a)
    for _ in range(n):
        cols.append(v)
        v = [c - v[-1] * fc for c, fc in zip([0] + v[:-1], f)]  # x*v mod f
    mat = [[cols[j][i] for j in range(n)] for i in range(n)]
    power, s = mat, [None]
    for _ in range(n):
        s.append(sum(power[i][i] for i in range(n)))
        power = [[sum(r[t] * mat[t][j] for t in range(n)) for j in range(n)] for r in power]
    e = [1]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i] for i in range(1, k + 1)) // k)
    return all(e[k] % p**k == 0 for k in range(1, n + 1))


def _order_is_p_maximal(f, p):
    """Oracle: Z[x]/(f) is p-maximal iff no a/p with a != 0 mod p is
    integral.  The a that work form an F_p-subspace, so it is enough to try
    each a whose first nonzero coordinate is 1."""
    n = len(f) - 1
    return not any(_integral_over_p(f, (0,) * i + (1,) + tail, p)
                   for i in range(n) for tail in product(range(p), repeat=n - 1 - i))


@pytest.mark.parametrize("f,p,maximal", [
    ((-5, 0, 1), 2, False), ((-3, 0, 1), 2, True),          # Z[sqrt 5], Z[sqrt 3]
    ((-10, 0, 0, 1), 3, False), ((-2, 0, 0, 1), 3, True),   # 10 = 1 mod 9, 2 is not
    # (x^2 + x + 1)^2 + c: a squared factor of degree 2 mod 2; for c = 4,
    # ((alpha^2 + alpha + 1)/2)^2 = -1
    ((5, 2, 3, 2, 1), 2, False), ((3, 2, 3, 2, 1), 2, True),
])
def test_p_maximal_small_examples(f, p, maximal):
    assert _order_is_p_maximal(f, p) == maximal
    assert p_maximal(f, p) == maximal


def test_p_maximal_matches_integrality_oracle():
    """Dedekind's criterion against the a/p integrality oracle at every p
    with p^2 | delta = m^2 - 3m + 9 for the Shanks cubics with delta not
    squarefree, m in [-5, 80); the constructor rejects exactly the fields
    that fail.  For m = 0 mod 3, f = (x - 1)^3 and f' = 0 mod 3, so
    f/gcd(f, f') would give 1 for the radical instead of x - 1: that trap
    shows at m = 6 mod 9, which is not maximal at 3."""
    rejected, accepted = [], []
    for m in range(-5, 80):
        f = (-1, m - 3, m, 1)
        delta = m * m - 3 * m + 9
        if squarefree(delta):
            continue
        maximal = True
        for p, e in factorint(delta).items():
            if e >= 2:
                assert p_maximal(f, p) == _order_is_p_maximal(f, p), (m, p)
                maximal = maximal and p_maximal(f, p)
        try:
            construct_field("shanks_cubic", m)
        except HypothesisViolated:
            assert not maximal, m
            rejected.append(m)
        else:
            assert maximal, m
            accepted.append(m)
    assert rejected == [-5, -3, 6, 8, 15, 24, 33, 42, 44, 51, 57, 60, 69, 78]
    assert accepted[:5] == [0, 3, 9, 12, 18] and len(accepted) == 17


def test_shanks_disc_identity():
    for m in range(-6, 7):
        delta = m * m - 3 * m + 9
        assert poly_discriminant((-1, m - 3, m, 1)) == delta * delta


def test_norm_trace_examples(shanks1):
    a = shanks1.alpha
    assert a.norm() == 1
    assert a.trace() == -1
    assert (a + 1).norm() == -1


def test_sign_vectors(shanks1):
    assert shanks1.sign_vector(shanks1.one) == (1, 1, 1)
    assert shanks1.sign_vector(shanks1.coerce(-1)) == (-1, -1, -1)
    sv = shanks1.sign_vector(shanks1.alpha)
    assert sv.count(1) == 1 and sv.count(-1) == 2


def test_automorphism_composition(shanks1):
    a = shanks1.alpha
    assert apply_automorphism(a, 0) == a
    assert apply_automorphism(apply_automorphism(a, 1), 2) == a
    for j in range(3):
        for k in range(3):
            lhs = apply_automorphism(apply_automorphism(a, j), k)
            assert lhs == apply_automorphism(a, (j + k) % 3)


def test_sigma_alpha_is_root(shanks1):
    # f(sigma(alpha)) = 0 exactly in the quotient ring
    y = shanks1.alpha.galois(1)
    val = shanks1.coerce(shanks1.poly[0])
    ypow = shanks1.one
    for c in shanks1.poly[1:]:
        ypow = ypow * y
        val = val + ypow * c
    assert val.is_zero()
    # sigma(alpha) = -1/(1+alpha)
    assert (y * (shanks1.alpha + 1) + 1).is_zero()


def test_exact_ring_axioms(shanks1):
    rng = random.Random(1)
    for _ in range(1000):
        a = shanks1.element(tuple(rng.randint(-9, 9) for _ in range(3)))
        b = shanks1.element(tuple(rng.randint(-9, 9) for _ in range(3)))
        c = shanks1.element(tuple(rng.randint(-9, 9) for _ in range(3)))
        assert (a * b) * c == a * (b * c)
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a + b).trace() == a.trace() + b.trace()


def test_automorphism_invariance(shanks1):
    rng = random.Random(2)
    for _ in range(50):
        e = shanks1.element(tuple(rng.randint(-9, 9) for _ in range(3)))
        for k in range(3):
            assert e.galois(k).norm() == e.norm()
            assert e.galois(k).trace() == e.trace()


def test_embedding_encloses_norm(shanks1):
    rng = random.Random(3)
    for _ in range(25):
        e = shanks1.element(tuple(rng.randint(-9, 9) for _ in range(3)))
        if e.is_zero():
            continue
        ivs = shanks1.interval_embeddings(e, 128)
        lo, hi = (Fraction(1), Fraction(1))
        for iv in ivs:
            lo, hi = _interval_mul((lo, hi), iv)
        n = e.norm()
        assert lo <= n <= hi


def test_embedding_order_decreasing(shanks1):
    ivs = _fractions(shanks1.embedding_intervals(64))
    vals = [float(l + h) / 2 for l, h in ivs]
    assert vals == sorted(vals, reverse=True)


def test_root_enclosures_disjoint_with_sign_change(shanks1):
    ivs = _fractions(shanks1.embedding_intervals(64))
    for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
        assert hi2 < lo1  # decreasing order, disjoint
    poly = [Fraction(c) for c in shanks1.poly]

    def ev(x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    for lo, hi in ivs:
        assert ev(lo) * ev(hi) < 0


def _random_coords(rng, n):
    if rng.random() < 0.5:
        return tuple(rng.randint(-2**20, 2**20) for _ in range(n))
    return tuple(Fraction(rng.randint(-2**20, 2**20), rng.randint(1, 60)) for _ in range(n))


def test_integer_kernel_matches_fraction_reference(shanks1, quad5):
    """interval_eval's integer pair, divided by D * 2^(B*d), is exactly the
    Fraction Horner enclosure; D clears the coordinate denominators."""
    rng = random.Random(21)
    lehmer = construct_field("lehmer_quintic", -1)
    hand_made = [(-3, 5, 2), (-9, -4, 3), (7, 7, 4), (-1, 1, 0), (-5, 0, 1)]
    for ctx in (shanks1, quad5, lehmer):
        iso = RootIsolator(ctx.poly)
        n = ctx.degree
        for bits in (64, 96, 128, 512):
            triples = iso.dyadic(bits)
            assert _fractions(triples) == iso.intervals(bits)
            assert all((c - a) << bits <= 1 << b for a, c, b in triples)
            for iv in triples + hand_made:
                for _ in range(6):
                    coords = _random_coords(rng, n)
                    D = lcm(*(Fraction(c).denominator for c in coords))
                    lo, hi = interval_eval([int(c * D) for c in coords], iv)
                    scale = D << (iv[2] * (n - 1))
                    ref = _ref_interval_eval([Fraction(c) for c in coords],
                                             _fractions([iv])[0])
                    assert (Fraction(lo, scale), Fraction(hi, scale)) == ref
        for _ in range(10):
            e = ctx.element(_random_coords(rng, n))
            refs = [_ref_interval_eval([Fraction(c) for c in e.coords], iv)
                    for iv in _fractions(ctx.embedding_intervals(64))]
            assert ctx.interval_embeddings(e, 64) == refs


def test_sign_needing_more_than_64_bits():
    """2^80 alpha - round(2^80 theta_2) changes sign within 2^-80 of the
    second root, so its sign there needs a precision doubling."""
    ctx = construct_field("shanks_cubic", 1)
    assert ctx._roots._bits == 64
    oracle = RootIsolator(ctx.poly)
    lo, hi = oracle.intervals(512)[1]
    q = round((lo + hi) / 2 * 2**80)
    e = ctx.element((-q, 2**80, 0))
    sv = ctx.sign_vector(e)
    # t lies between the outer roots, where the monic cubic f is positive
    # exactly on (theta_3, theta_2): there f(t) > 0 iff theta_2 > t
    t = Fraction(q, 2**80)
    ivs = oracle.intervals(64)
    assert ivs[2][1] < t < ivs[0][0]
    f_t = sum(c * t**i for i, c in enumerate(ctx.poly))
    assert sv == (1, 1 if f_t > 0 else -1, -1)
    assert ctx._roots._bits == 128


def test_quadratic_units():
    q5 = construct_field("real_quadratic", 5)
    eps = q5.unit_generators[1]
    assert eps.coords == (0, 1)  # (1 + sqrt5)/2
    assert eps.norm() == -1
    q13 = construct_field("real_quadratic", 13)
    assert q13.unit_generators[1].norm() == -1


def _ref_sign_at_sqrt(t, s, d):
    """Exact sign of t + s*sqrt(d) for integers t, s and nonsquare d > 0."""
    if s == 0:
        return (t > 0) - (t < 0)
    if t == 0:
        return (s > 0) - (s < 0)
    if t > 0 and s > 0:
        return 1
    if t < 0 and s < 0:
        return -1
    cmp = t * t - s * s * d
    if t > 0:
        return 1 if cmp > 0 else -1
    return -1 if cmp > 0 else 1


def _ref_normalized_unit(x, y, d):
    """The unit x + y*alpha made > 1 at alpha = (1 + sqrt d)/2 by exact
    square-root sign tests: x + y*alpha = ((2x + y) + y sqrt d)/2."""
    if _ref_sign_at_sqrt(2 * x + y, y, d) < 0:
        x, y = -x, -y
    if _ref_sign_at_sqrt(2 * (x - 1) + y, y, d) < 0:
        x, y = -(x + y), y  # norm -1: u^{-1} = -conjugate(u)
    return (x, y)


def test_quadratic_unit_normalization_matches_sqrt_reference(monkeypatch):
    """The unit normalized by sign_vector equals the exact sqrt(d) reference
    for every d < 3000 with a norm -1 unit, from each of the four
    associates +-eps^(+-1) of the continued-fraction unit."""
    fields_checked = 0
    for d in range(5, 3000, 4):
        if not squarefree(d):
            continue
        try:
            x, y = _cf_fundamental_unit(d)
        except NormMinusOneUnitAbsent:
            continue
        fields_checked += 1
        want = _ref_normalized_unit(x, y, d)
        for assoc in ((x, y), (-x, -y), (x + y, -y), (-(x + y), y)):
            monkeypatch.setattr(fields, "_cf_fundamental_unit", lambda _d, a=assoc: a)
            ctx = construct_field("real_quadratic", d)
            assert ctx.unit_generators[1].coords == want, (d, assoc)
    assert fields_checked == 283


def test_quadratic_rejections():
    with pytest.raises(EvenDiscriminant):
        construct_field("real_quadratic", 3)
    with pytest.raises(NormMinusOneUnitAbsent):
        construct_field("real_quadratic", 21)
    with pytest.raises(ValueError):
        construct_field("real_quadratic", 12)  # not squarefree


def test_lehmer_construction():
    ctx = construct_field("lehmer_quintic", -1)
    assert ctx.degree == 5
    assert ctx.disc_field == 11**4  # 11 is p-maximal: Z[beta] is the ring of integers
    beta = ctx.alpha
    assert beta.norm() == -1
    sv = ctx.sign_vector(beta)
    assert 1 in sv and -1 in sv
    for u in ctx.unit_generators:
        assert abs(u.norm()) == 1
    # the Galois orbit of beta is 5 distinct roots
    imgs = {beta.galois(k).coords for k in range(5)}
    assert len(imgs) == 5


def test_unit_generator_norms(shanks1):
    for u in shanks1.unit_generators:
        assert abs(u.norm()) == 1


def test_precision_cap():
    iso = RootIsolator((-1, -2, 1, 1))
    with pytest.raises(PrecisionExhausted):
        iso.refine(MAX_BITS + 1)


def test_find_root_in_field(shanks1):
    # the 2-division cubic of the conductor-784 curve splits here
    root = find_root_in_field(shanks1, (-29, -16, 1, 1))
    assert root is not None
    val = root * root * root + root * root + root * (-16) + (-29)
    assert val.is_zero()
    # and an unrelated cubic does not
    assert find_root_in_field(shanks1, (-2, 0, 0, 1)) is None


def test_element_inverse(shanks1):
    rng = random.Random(4)
    for _ in range(20):
        e = shanks1.element(tuple(rng.randint(-5, 5) for _ in range(3)))
        if e.is_zero():
            continue
        assert (e * e.inverse()) == shanks1.one
    with pytest.raises(ZeroDivisionError):
        shanks1.zero.inverse()


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for n in range(1, 7):
        for trial in range(8):
            ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if trial == 0:
                ints[0][0] = 0  # Bareiss (n >= 4) must swap in a later row
            fracs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                     for _ in range(n)]
            assert det(ints) == _cofactor_det(ints)
            assert isinstance(det(ints), int)
            assert det(fracs) == _cofactor_det(fracs)
    singular = [[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9], [0, 1, 1, 1]]
    assert det(singular) == 0


def test_gauss_jordan_exact_solution():
    rng = random.Random(12)
    solved = 0
    for n in range(1, 6):
        for _ in range(6):
            mat = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                   for _ in range(n)]
            rhs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
                   for _ in range(n)]
            sol = gauss_jordan(mat, rhs)
            if det(mat) == 0:
                assert sol is None
                continue
            solved += 1
            for i in range(n):
                for c in range(3):
                    assert sum(mat[i][k] * sol[k][c] for k in range(n)) == rhs[i][c]
    assert solved > 20
    assert gauss_jordan([[1, 2], [2, 4]], [[1], [2]]) is None
    assert gauss_jordan([[1e-15]], [[1.0]], tol=1e-14) is None
