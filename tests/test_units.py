import dataclasses
import hashlib
import random
from fractions import Fraction
from bisect import bisect_left
from itertools import product
from math import comb

import pytest

from idealspin.errors import HypothesisViolated, NotTotallyPositive
from idealspin.fields import construct_field
from idealspin.ideals import prime_power_ideal, split_prime
from idealspin.lattice import f2_echelon, f2_solve
from idealspin.spin import spin_prime_stream
from idealspin.lattice import gauss_jordan
from idealspin.units import (
    _dot,
    _enumerate_small_units,
    _float_identity,
    build_domain,
    count_in_domain,
    domain_class_counts,
    domain_contains,
    domain_elements,
    find_contracting_unit,
    make_totally_positive,
    reduce_to_domain,
    unit_group_data,
    unit_square_image,
    verify_unit_plus_square,
)


def tp_sample(ctx, rng, bound=9):
    while True:
        e = ctx.element(tuple(rng.randint(-bound, bound) for _ in range(ctx.degree)))
        if not e.is_zero():
            return make_totally_positive(ctx, e)


def test_contracting_unit(shanks1):
    u = find_contracting_unit(shanks1)
    assert u.norm() == 1
    small = sum(1 for s in shanks1.sign_vector(shanks1.coerce(1) - u * 2) if s > 0)
    assert small == 2  # exactly two embeddings <= 1/2


def test_contracting_unit_quadratic(quad5):
    u = find_contracting_unit(quad5)
    assert u.norm() == 1
    ivs = quad5.interval_embeddings(u, 64)
    smalls = [hi for lo, hi in ivs if hi < Fraction(1, 2)]
    assert len(smalls) == 1


def test_small_units_properties(shanks1, dom1):
    assert dom1.C > 1
    for u in dom1.small_units:
        assert u != shanks1.one
        assert shanks1.is_totally_positive(u)
        assert u.trace() > shanks1.degree  # AM-GM, strict for u != 1
        diff = shanks1.coerce(dom1.C) - u
        assert all(s > 0 for s in shanks1.sign_vector(diff))


def test_small_units_box_stability(shanks1, dom1):
    base = {u.coords for u in dom1.small_units}
    enlarged = {u.coords for u in _enumerate_small_units(shanks1, dom1.C, enlarge=2)}
    assert base == enlarged


def test_small_units_quadratic(quad5, dom5):
    # U+ = U^2 = powers of eps^2; the small ones below C
    eps = quad5.unit_generators[1]
    coords = {u.coords for u in dom5.small_units}
    expect = set()
    j = 1
    while True:
        u = eps ** (2 * j)
        if all(hi < dom5.C for _, hi in quad5.interval_embeddings(u, 96)):
            expect.add(u.coords)
            expect.add(u.inverse().coords)
            j += 1
        else:
            break
    assert coords == expect


def test_domain_membership(shanks1, dom1):
    assert domain_contains(dom1, shanks1.one) == "inside"
    with pytest.raises(NotTotallyPositive):
        domain_contains(dom1, shanks1.coerce(-1))


def test_disjointness(shanks1, dom1):
    rng = random.Random(11)
    for _ in range(100):
        e = tp_sample(shanks1, rng)
        r = reduce_to_domain(dom1, e)
        inside = domain_contains(dom1, r) == "inside"
        for u in dom1.small_units:
            if inside:
                assert domain_contains(dom1, u * r) != "inside"


def test_reduction_properties(shanks1, dom1):
    rng = random.Random(12)
    for _ in range(100):
        e = tp_sample(shanks1, rng)
        r = reduce_to_domain(dom1, e)
        assert domain_contains(dom1, r) in ("inside", "boundary")
        assert r.trace() <= e.trace()
        assert reduce_to_domain(dom1, r) == r  # idempotence
        u = shanks1.unit_generators[1 + rng.randint(0, 1)]
        r2 = reduce_to_domain(dom1, e * u * u)
        assert r2.trace() == r.trace()
        if domain_contains(dom1, r) == "inside":
            assert r2 == r


def test_make_totally_positive(shanks1):
    a = shanks1.alpha
    tp = make_totally_positive(shanks1, a)
    assert shanks1.is_totally_positive(tp)
    assert make_totally_positive(shanks1, tp) == tp  # unchanged when already tp
    assert make_totally_positive(shanks1, shanks1.coerce(-1)) == shanks1.one


def test_unit_group_data(shanks1):
    data = unit_group_data(shanks1)
    assert len(data.sign_matrix) == len(shanks1.unit_generators)
    img = data.mod8_square_image
    one = shanks1.coords_mod(shanks1.one, 8)
    assert one in img
    # closed under multiplication by generator squares
    u2 = shanks1.coords_mod(shanks1.unit_generators[1] ** 2, 8)
    for s in img:
        assert tuple(c % 8 for c in shanks1.mul_coords(s, u2)) in img


def test_unit_signs_computed_once_per_context(monkeypatch):
    ctx = construct_field("shanks_cubic", 4)
    real = ctx.sign_vector
    calls = []

    def counting(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(ctx, "sign_vector", counting)
    a = ctx.alpha
    make_totally_positive(ctx, a)
    assert len(calls) == 1 + len(ctx.unit_generators)
    calls.clear()
    for e in (a, -a, a * a - 5, ctx.coerce(-3)):
        assert ctx.is_totally_positive(make_totally_positive(ctx, e))
    verify_unit_plus_square(ctx)
    unit_group_data(ctx)
    # one sign vector for each argument and each positivity check, none
    # for the unit generators
    assert len(calls) == 8


def test_f2_solve_matches_brute_force():
    rng = random.Random(13)
    inconsistent = 0
    for m in range(5):
        for n in (1, 2, 3, 5):
            for _ in range(5):
                rows = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(m)]
                span = {}
                for x in product((0, 1), repeat=m):
                    v = tuple(sum(xi * r[j] for xi, r in zip(x, rows)) % 2 for j in range(n))
                    span.setdefault(v, x)
                echelon = f2_echelon(rows)
                assert 2 ** len(echelon[1]) == len(span)
                for target in product((0, 1), repeat=n):
                    x = f2_solve(echelon, target)
                    if target not in span:
                        assert x is None
                        inconsistent += 1
                        continue
                    assert len(x) == m
                    assert tuple(sum(xi * r[j] for xi, r in zip(x, rows)) % 2
                                 for j in range(n)) == target
    assert inconsistent > 0


def test_verify_unit_plus_square(shanks1):
    assert verify_unit_plus_square(shanks1)["passed"]


def test_verify_rejects_positive_only():
    # a fake context would be needed for a true negative; check the report
    # fields exist and the rank logic sees the full sign space
    ctx = construct_field("real_quadratic", 5)
    rep = verify_unit_plus_square(ctx)
    assert rep["sign_map_surjective"]


def test_census_sound_and_complete(shanks1, dom1):
    X = 300
    els = domain_elements(dom1, X)
    seen = set(els)
    assert len(seen) == len(els)
    for coords in els[::7]:
        e = shanks1.element(coords)
        assert shanks1.is_totally_positive(e)
        assert 1 <= e.norm() <= X
        assert domain_contains(dom1, e) in ("inside", "boundary")
    # completeness: reducing random totally positive elements lands in the list
    rng = random.Random(13)
    hits = 0
    while hits < 60:
        e = tp_sample(shanks1, rng, bound=6)
        if e.norm() > X:
            continue
        r = reduce_to_domain(dom1, e)
        assert r.coords in seen
        hits += 1


def test_class_counts(shanks1, dom1):
    X = 2000
    total = len(domain_elements(dom1, X))
    I7 = prime_power_ideal(split_prime(shanks1, 7)[0])
    hist = domain_class_counts(dom1, X, I7)
    assert sum(hist.values()) == total
    assert len(hist) == 7
    # a class outside O/m cannot appear: counts accessed via count_in_domain
    c0 = count_in_domain(dom1, X, I7, shanks1.zero)
    assert c0 == hist[min(hist)] or c0 in hist.values()


@pytest.mark.parametrize("name", ["shanks1", "shanks4", "quad5"])
def test_census_contains_search_generators(request, name):
    """Differential check of two pipelines: for every degree-one prime P of
    norm p <= 2000, the census elements of norm p lying in P include the
    canonical generator found by the lattice search, and there is exactly
    one of them unless all of them lie on the domain boundary."""
    ctx = request.getfixturevalue(name)
    dom = request.getfixturevalue({"shanks1": "dom1", "shanks4": "dom4", "quad5": "dom5"}[name])
    X = 2000
    by_norm: dict = {}
    for coords in domain_elements(dom, X):
        by_norm.setdefault(ctx.norm_coords(coords), []).append(coords)
    checked = boundary = 0
    for kind, rec in spin_prime_stream(ctx, dom, X, degree_one_only=True):
        assert kind == "record", rec
        p, r = rec.prime.p, rec.prime.r
        in_prime = [c for c in by_norm.get(p, [])
                    if sum(ci * r**i for i, ci in enumerate(c)) % p == 0]
        assert rec.generator.coords in in_prime, rec.prime
        if len(in_prime) > 1:
            assert all(domain_contains(dom, ctx.element(c)) == "boundary"
                       for c in in_prime), rec.prime
            boundary += 1
        checked += 1
    assert (checked, boundary) == {"shanks1": (292, 1), "shanks4": (298, 1),
                                   "quad5": (293, 1)}[name]


def test_embedding_size_comparability(shanks1, dom1):
    # every reduced element has embeddings within [n/(2U), 2U] * N^(1/n)
    twoU = 2 * dom1.conjugate_bound
    n = shanks1.degree
    lo_c = Fraction(n) / twoU
    els = domain_elements(dom1, 2000)
    for coords in els[:: max(1, len(els) // 50)]:
        e = shanks1.element(coords)
        nrm = e.norm()
        for lo, hi in shanks1.interval_embeddings(e, 96):
            assert hi**n >= lo_c**n * nrm
            assert lo**n <= twoU**n * nrm


def _reference_reduce(dom, e):
    """Reference: the descent before the one-pass rewrite.  It recomputes
    each move's trace until the first improving one, and the component
    search recomputes the traces of the final element."""
    moves, move_rows = dom.moves, dom.move_rows
    cur = e
    t = _dot(dom.identity_row, cur.coords)
    improved = True
    while improved:
        improved = False
        for u, row in zip(moves, move_rows):
            v = _dot(row, cur.coords)
            if v < t:
                cur = u * cur
                t = v
                improved = True
                break
    component = {cur.coords: cur}
    frontier = [cur]
    while frontier:
        x = frontier.pop()
        for u, row in zip(moves, move_rows):
            if _dot(row, x.coords) == t:
                y = u * x
                if y.coords not in component:
                    component[y.coords] = y
                    frontier.append(y)
    return component[min(component)]


@pytest.mark.parametrize("name", ["shanks1", "shanks4", "quad5"])
def test_reduce_to_domain_matches_reference(request, name):
    """500 random totally positive elements, the census's boundary elements
    of norm <= 200, and a unit-square multiple of each."""
    ctx = request.getfixturevalue(name)
    dom = request.getfixturevalue({"shanks1": "dom1", "shanks4": "dom4", "quad5": "dom5"}[name])
    gens = [u for u in ctx.unit_generators if u != ctx.coerce(-1)]
    rng = random.Random(17)
    # boundary elements have equal-trace mates, so the component search runs
    samples = [tp_sample(ctx, rng) for _ in range(500)]
    samples += [ctx.element(c) for c in domain_elements(dom, 200)
                if domain_contains(dom, ctx.element(c)) == "boundary"]
    for e in samples:
        u = ctx.one
        for g in gens:
            u = u * g ** rng.randint(-2, 2)
        for x in (e, e * u * u):
            assert reduce_to_domain(dom, x) == _reference_reduce(dom, x), x


def _embedding_upper_bound(dom, X: int) -> Fraction:
    """The oracle's own bound, independent of the census's trace-cone box:
    a closed-domain element of norm <= X satisfies e^(k)^n <= X (2U)^(n-1),
    with U the contracting conjugates' peak."""
    n = dom.ctx.degree
    twoU = 2 * dom.conjugate_bound
    target = X * twoU ** (n - 1)
    guess = Fraction(int(float(target) ** (1.0 / n) * 1.01) + 1)
    while guess**n < target:
        guess = guess * Fraction(105, 100)
    return guess


def _census_oracle(dom, X, slack=1.25):
    """Every totally positive closed-domain element of norm <= X inside a
    box `slack` times the V^-1 image of the embedding cube [0, Y]^n, with Y
    from _embedding_upper_bound.  For each tail
    (a1, ..., a_{n-1}) the elementary symmetric functions e_j of the
    embeddings of a0 + tail are exact integer polynomials in a0; total
    positivity is e_j > 0 for all j (the field is totally real), which holds
    on a ray of a0 where the norm e_n increases.  The ray's start is found
    by bisection over the whole a0 range, then each point is confirmed with
    is_totally_positive, the exact norm and domain_contains."""
    ctx = dom.ctx
    n = ctx.degree
    Y = float(_embedding_upper_bound(dom, X))
    mids = [(a + c) / (2 << b) for a, c, b in ctx.embedding_intervals(96)]
    Vinv = gauss_jordan([[m**i for i in range(n)] for m in mids], _float_identity(n))
    box = [int(sum(abs(v) for v in Vinv[i]) * Y * slack) + 3 for i in range(n)]
    out = []
    for tail in product(*(range(-b, b + 1) for b in box[1:])):
        beta = (0,) + tail
        # power sums of beta's embeddings, then Newton's identities
        psum, power = [], ctx.one.coords
        for _ in range(n):
            power = ctx.mul_coords(power, beta)
            psum.append(ctx.trace_coords(power))
        E = [1]
        for k in range(1, n + 1):
            E.append(sum((-1) ** (i - 1) * E[k - i] * psum[i - 1] for i in range(1, k + 1)) // k)
        esym = [[comb(n - i, j - i) * E[i] for i in range(j + 1)] for j in range(1, n + 1)]

        def e_at(j, a0):  # e_j(a0 + beta) = sum_i C(n-i, j-i) a0^(j-i) E_i
            return sum(c * a0 ** (j - i) for i, c in enumerate(esym[j - 1]))

        def positive(a0):
            return all(e_at(j, a0) > 0 for j in range(1, n + 1))

        a0s = range(-box[0], box[0] + 1)
        for a0 in a0s[bisect_left(a0s, True, key=positive):]:
            if e_at(n, a0) > X:
                break
            e = ctx.element((a0,) + tail)
            assert ctx.is_totally_positive(e) and 1 <= e.norm() <= X
            if domain_contains(dom, e) != "outside":
                out.append(e.coords)
    return sorted(out)


@pytest.mark.parametrize("name,X", [("shanks1", 300), ("quad5", 5000)])
def test_census_matches_exhaustive_oracle(request, name, X):
    dom = request.getfixturevalue({"shanks1": "dom1", "quad5": "dom5"}[name])
    want = _census_oracle(dom, X)
    assert len(want) > 50
    assert domain_elements(dom, X) == want


@pytest.mark.parametrize("keep", [1, 0])
def test_census_rejects_a_cone_that_is_not_pointed(dom5, keep):
    """One trace row leaves a half-plane and none the whole plane; both hold
    a line, and the census refuses them instead of scanning an unbounded
    box."""
    flat = dataclasses.replace(dom5, trace_rows=dom5.trace_rows[:keep], _census={})
    with pytest.raises(HypothesisViolated):
        domain_elements(flat, 100)


@pytest.mark.parametrize("m,count,digest", [
    (-1, 644, "4d95182a0b94"), (0, 626, "03fc9e20a469"), (1, 482, "333ebcf69b53"),
    (2, 482, "80228413e5b7"), (3, 626, "9cb2abeb069e"), (4, 644, "f29f60d18b40"),
    (5, 629, "dff694ebf6cd"), (7, 518, "0fba2ef92f93"),
])
def test_census_golden(m, count, digest):
    """The census at X = 1500 on eight Shanks cubics, pinned from the
    coordinate-box sweep that preceded the trace-cone box."""
    dom = build_domain(construct_field("shanks_cubic", m))
    els = domain_elements(dom, 1500)
    assert len(els) == count
    assert hashlib.sha1(repr(els).encode()).hexdigest()[:12] == digest


def test_census_rejects_a_ray_that_is_not_totally_positive(quad5, dom5):
    """The rows T(x) + a0 and T(x) + a1 cut out the quadrant a0, a1 >= 0;
    its ray alpha = (1 + sqrt 5)/2 has a negative conjugate, so the cone
    holds points outside the totally positive cone."""
    quadrant = tuple(tuple(t + d for t, d in zip(dom5.identity_row, e))
                     for e in ((1, 0), (0, 1)))
    assert not quad5.is_totally_positive(quad5.alpha)
    bad = dataclasses.replace(dom5, trace_rows=quadrant, _census={})
    with pytest.raises(HypothesisViolated, match="not totally positive"):
        domain_elements(bad, 100)
