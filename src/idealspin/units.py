"""Unit-group sign combinatorics, the fundamental domain of the totally
positive unit action, its census and the h+ = 1 certificate.

The domain used everywhere is the trace-minimal cell: a totally positive x
lies inside iff T(u*x) > T(x) for every nontrivial totally positive unit u,
and finitely many units (the small units, all embeddings below the cutoff C)
suffice to decide this.  All comparisons are exact integer comparisons of
trace bilinear forms.

The census lists the closed domain's integral elements by norm window.  Its
rows T(u*x) >= T(x) cut out a pointed cone with certified totally positive
rays; the hull of 0 and the rays scaled to norm hi bounds the outer
coordinate by a box and the next one slice by slice, and along each tail
the norm is one integer polynomial in a0, solved exactly for the window.
The domain keeps a tail table (tail_table): the cone's rays and facet
rows, and one tuple (start a0, tail, norm polynomial) per tail that holds
an element of norm <= the largest hi asked so far, built once and extended
as hi grows, so windows share it and a tail that is empty is never built.
Its memory is one tuple of 2n integers per such tail (1,162 tuples on
shanks:7 at 2*10^4).  census_window yields (norm, coords) from it;
domain_elements is its cached sorted list.  Once certify_h_plus_one has
proved h+ = 1 from the Minkowski bound, every prime of degree one has its
canonical generator in the census.
"""

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd, isqrt, lcm, log
from operator import mul

from .arith import iroot_ceil, sieve_primes
from .errors import (
    CostGuard,
    HypothesisViolated,
    NotTotallyPositive,
    SearchBoundExceeded,
    SignSystemSingular,
)
from .fields import FieldElement
from .ideals import eval_coords_mod_p, ideal_lattice, split_prime
from .lattice import det, f2_echelon, f2_solve, gauss_jordan, hnf_residue

# Scalings of the log-embedding solution tried for the contracting unit.
CONTRACTING_MAX_SCALE = 40
# Largest exponent box (product of 2b+1 over the generators) the small-unit
# enumeration walks.  Measured boxes: at most 775 points for shanks m in
# {1, 2, 4, 5, 7, 10, 13, 20}, at most 9 for quad d <= 293, and 250,978,761
# for lehmer:-1, which would run for hours.
MAX_SMALL_UNIT_BOX = 100_000


# ---------------------------------------------------------------------------
# sign-space linear algebra over F2


def sign_to_f2(signs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if s < 0 else 0 for s in signs)


_sign_caches: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _unit_signs(ctx):
    """Sign vectors of the unit generators and the F2 echelon of their sign
    rows, computed on first use for each context."""
    got = _sign_caches.get(ctx)
    if got is None:
        signs = tuple(ctx.sign_vector(u) for u in ctx.unit_generators)
        got = _sign_caches[ctx] = (signs, f2_echelon([sign_to_f2(s) for s in signs]))
    return got


_square_tables: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def square_multiplier(ctx, conditions, g: FieldElement):
    """The unit square w with g*w = t (mod m) for every (m, t) in
    conditions, or None when no unit square does it.  For a real quadratic
    field this is eps^(2k) with the least k >= 0.

    The unit squares have a finite image mod M, the lcm of the moduli.  One
    walk over it per context and conditions files each w under the classes
    (t * w^-1 mod m).  g*w = t for every condition exactly when g lies in
    those classes, so a query is one reduction of g mod M and one lookup,
    whether or not g is invertible mod M."""
    conditions = tuple((m, tuple(t)) for m, t in conditions)
    tables = _square_tables.setdefault(ctx, {})
    if conditions not in tables:
        tables[conditions] = _square_table(ctx, conditions)
    M, table = tables[conditions]
    r = ctx.coords_mod(g, M)
    exps = table.get(tuple(tuple(c % m for c in r) for m, _ in conditions))
    if exps is None:
        return None
    w = ctx.one
    for u, e in zip(ctx.unit_generators, exps):
        w = w * u ** (2 * e)
    return w


def _square_table(ctx, conditions):
    """(M, table): the classes (t * w^-1 mod m) of every unit square w, each
    mapped to the exponents e of the first w = prod u_j^(2 e_j) met in a
    breadth-first walk over the inverse squares u_j^-2 mod M."""
    M = lcm(*(m for m, _ in conditions))
    steps = [ctx.coords_mod(u ** -2, M) for u in ctx.unit_generators]
    start = ctx.coords_mod(ctx.one, M)
    seen = {start}
    walk = [(start, (0,) * len(steps))]
    table: dict = {}
    for v, exps in walk:  # walk grows while it is read: breadth first
        key = tuple(tuple(c % m for c in ctx.mul_coords(t, v)) for m, t in conditions)
        table.setdefault(key, exps)
        for j, s in enumerate(steps):
            nxt = tuple(c % M for c in ctx.mul_coords(v, s))
            if nxt not in seen:
                seen.add(nxt)
                walk.append((nxt, exps[:j] + (exps[j] + 1,) + exps[j + 1:]))
    return M, table


def make_totally_positive(ctx, e: FieldElement) -> FieldElement:
    """Multiply by a unit (solved in sign space over F2) so that every real
    embedding becomes positive.  Returns e unchanged if already totally
    positive."""
    if e.is_zero():
        raise ValueError("make_totally_positive of zero")
    target = sign_to_f2(ctx.sign_vector(e))
    if not any(target):
        return e
    x = f2_solve(_unit_signs(ctx)[1], target)
    if x is None:
        raise SignSystemSingular("unit sign vectors do not span the sign space")
    out = e
    for xi, u in zip(x, ctx.unit_generators):
        if xi:
            out = out * u
    return out


def verify_unit_plus_square(ctx) -> dict:
    """Check the hypotheses making every totally positive unit a square:
    a mixed-sign generator plus a surjective sign map on <-1, generators>."""
    n = ctx.degree
    signs, (_, pivots) = _unit_signs(ctx)
    two_primitive = n in (3, 5)  # 2 is a primitive root mod 3 and mod 5
    report = {
        "degree_odd_prime_with_2_primitive_root": two_primitive,
        "mixed_sign_generator": any(1 in sv and -1 in sv for sv in signs),
        "sign_map_surjective": len(pivots) == n,
    }
    report["passed"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# contracting unit and the domain


def _positive_generators(ctx):
    """Unit generators made totally positive-free: drop -1, keep the rest."""
    out = []
    for u in ctx.unit_generators:
        if u == ctx.coerce(-1):
            continue
        out.append(u)
    return out


def _abs_log_embeddings(ctx, e, bits=96):
    """log |e^(k)| as floats (search guidance only)."""
    ivs = ctx.interval_embeddings(e, bits)
    vals = []
    for lo, hi in ivs:
        mid = abs(float(lo + hi)) / 2
        if mid == 0:
            raise ArithmeticError("embedding enclosure straddles zero")
        vals.append(log(mid))
    return vals


def _count_small_embeddings(ctx, u) -> int:
    """Number of embeddings with u <= 1/2, decided exactly."""
    one_minus = ctx.coerce(1) - u * 2
    return sum(1 for s in ctx.sign_vector(one_minus) if s > 0)


def find_contracting_unit(ctx) -> FieldElement:
    """A totally positive unit (a square) with all but one embedding <= 1/2,
    chosen with the smallest peak embedding the search can see (small peaks
    shrink every domain constant downstream).

    Candidate exponent vectors come from scalings of the real solution of
    the log-embedding system plus a small surrounding box; every candidate
    is verified with exact sign tests."""
    gens = _positive_generators(ctx)
    r = ctx.degree - 1
    if len(gens) < r:
        raise SearchBoundExceeded("not enough multiplicative generators")
    gens = gens[:r]
    logs = [_abs_log_embeddings(ctx, g) for g in gens]
    mat = [[logs[i][k] for i in range(r)] for k in range(r)]
    sol = gauss_jordan(mat, [[-1.0]] * r, tol=1e-14)
    if sol is None:
        raise ArithmeticError("singular log-embedding matrix")
    base = [row[0] for row in sol]

    candidates: list[tuple[int, ...]] = []
    seen = set()
    for t in range(1, CONTRACTING_MAX_SCALE + 1):
        center = [t * x for x in base]
        offsets = range(-1, 2) if r <= 3 else (0,)
        for off in product(offsets, repeat=r):
            exps = tuple(round(c) + o for c, o in zip(center, off))
            if exps not in seen and any(exps):
                seen.add(exps)
                candidates.append(exps)

    best = None
    best_peak = None
    for exps in candidates:
        # float screen: all small logs <= log(1/2), then exact verification
        lv = [2 * sum(a * logs[i][k] for i, a in enumerate(exps)) for k in range(ctx.degree)]
        if sum(1 for v in lv if v <= -0.6932) < ctx.degree - 1:
            continue
        peak = max(lv)
        if best_peak is not None and peak >= best_peak - 1e-9:
            continue
        v = ctx.one
        for g, a in zip(gens, exps):
            v = v * g**a
        u = v * v  # square of a unit: totally positive by construction
        if u == ctx.one:
            continue
        if _count_small_embeddings(ctx, u) == ctx.degree - 1:
            best, best_peak = u, peak
    if best is None:
        raise SearchBoundExceeded("no contracting unit within the scale budget")
    return best


@dataclass
class FundamentalDomain:
    ctx: object
    contracting_unit: FieldElement
    C: Fraction
    small_units: tuple
    trace_rows: tuple      # per small unit: integer vector w with T(u x) = w . x
    identity_row: tuple    # T(x) = identity_row . x
    conjugate_bound: Fraction  # certified upper bound on the contracting
                               # conjugates' largest embedding
    moves: tuple = ()          # small units and their inverses, for descent
    move_rows: tuple = ()
    _census: dict = field(default_factory=dict, repr=False)
    _h_plus_one: bool = field(default=False, repr=False)  # set by certify_h_plus_one


def _trace_row(ctx, u) -> tuple:
    n = ctx.degree
    T = ctx.trace_form
    uc = u.coords
    return tuple(sum(int(uc[j]) * T[j][i] for j in range(n)) for i in range(n))


def build_domain(ctx) -> FundamentalDomain:
    """Compute the cutoff C from the contracting unit's conjugate matrix and
    enumerate the complete finite set of small units."""
    n = ctx.degree
    u0 = find_contracting_unit(ctx)
    conjs = [u0.galois(k) for k in range(n)]
    bits = 96
    # locate the unique big embedding of each conjugate
    big_pos = {}
    for cu in conjs:
        signs = ctx.sign_vector(cu - 1)
        pos = [k for k, s in enumerate(signs) if s > 0]
        if len(pos) != 1:
            raise ArithmeticError("contracting conjugate without unique big embedding")
        big_pos[pos[0]] = cu
    if len(big_pos) != n:
        raise ArithmeticError("conjugates do not cover all embeddings")
    # certified upper bound for C = 1 + max (c_kk - 1)/(1 - c_kl)
    best = Fraction(0)
    diag_hi = Fraction(0)
    for k in range(n):
        ivs = ctx.interval_embeddings(big_pos[k], bits)
        ckk_hi = ivs[k][1]
        diag_hi = max(diag_hi, ckk_hi)
        for l in range(n):
            if l == k:
                continue
            ckl_hi = ivs[l][1]
            if ckl_hi >= 1:
                raise ArithmeticError("off-diagonal conjugate entry not < 1")
            best = max(best, (ckk_hi - 1) / (1 - ckl_hi))
    C = 1 + best
    small = _enumerate_small_units(ctx, C)
    rows = tuple(_trace_row(ctx, u) for u in small)
    ident = tuple(ctx._power_sums[:n])
    moves = tuple(small) + tuple(u.inverse() for u in small)
    move_rows = tuple(_trace_row(ctx, u) for u in moves)
    return FundamentalDomain(ctx, u0, C, tuple(small), rows, ident, diag_hi,
                             moves, move_rows)


def _enumerate_small_units(ctx, C: Fraction, enlarge: int = 0):
    """All totally positive units u != 1 with every embedding < C; the
    exponent box comes from the log-embedding lattice, candidates are
    verified exactly."""
    n = ctx.degree
    r = n - 1
    gens = _positive_generators(ctx)[:r]
    logs = [_abs_log_embeddings(ctx, g) for g in gens]
    logC = log(float(C))
    # |sum_i 2 m_i log g_i^(k)| <= r*logC on every embedding k; invert the
    # first r coordinates to bound the box (floats + slack; the enlargement
    # test in the suite guards completeness)
    mat = [[2 * logs[i][k] for i in range(r)] for k in range(r)]
    inv = gauss_jordan(mat, _float_identity(r))
    bounds = []
    for i in range(r):
        bi = sum(abs(inv[i][k]) for k in range(r)) * (r * logC)
        bounds.append(int(bi * 1.5) + 2 + enlarge)
    box = 1
    for b in bounds:
        box *= 2 * b + 1
    if box > MAX_SMALL_UNIT_BOX:
        raise CostGuard(f"small-unit exponent box of {box} points exceeds "
                        f"{MAX_SMALL_UNIT_BOX}")
    powers = [[g**m for m in range(-b, b + 1)] for g, b in zip(gens, bounds)]
    out = []

    def rec(i, acc):
        if i == len(gens):
            u = acc * acc
            if u == ctx.one:
                return
            if ctx.is_totally_positive(ctx.coerce(C) - u):
                out.append(u)
            return
        for p in powers[i]:
            rec(i + 1, acc * p)

    rec(0, ctx.one)
    uniq = {}
    for u in out:
        uniq[u.coords] = u
    return sorted(uniq.values(), key=lambda u: u.coords)


def _float_identity(n):
    return [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# membership, reduction, counting


def _dot(row, coords):
    return sum(r * int(c) for r, c in zip(row, coords))


def domain_contains(dom: FundamentalDomain, e: FieldElement) -> str:
    """Classify a totally positive element: 'inside' / 'boundary' /
    'outside' of the trace-minimal cell, by exact trace comparisons."""
    ctx = dom.ctx
    if not ctx.is_totally_positive(e):
        raise NotTotallyPositive("domain membership needs a totally positive element")
    t = _dot(dom.identity_row, e.coords)
    onb = False
    for row in dom.trace_rows:
        v = _dot(row, e.coords)
        if v < t:
            return "outside"
        if v == t:
            onb = True
    return "boundary" if onb else "inside"


def reduce_to_domain(dom: FundamentalDomain, e: FieldElement) -> FieldElement:
    """The canonical representative of e under the totally positive unit
    action: minimal trace, then lexicographically smallest coordinates among
    equal-trace boundary mates.

    Descent takes the first trace-lowering move in dom.moves order, from
    the traces T(u*x) of all moves, computed once per step; the last step's
    traces seed the search of the equal-trace component."""
    ctx = dom.ctx
    if e.is_zero():
        raise NotTotallyPositive("cannot reduce zero")
    if not ctx.is_totally_positive(e):
        raise NotTotallyPositive("reduce_to_domain needs a totally positive element")
    moves, move_rows = dom.moves, dom.move_rows

    def traces(x):
        return [sum(map(mul, row, x.coords)) for row in move_rows]

    cur = e
    t = _dot(dom.identity_row, cur.coords)
    while True:
        vals = traces(cur)
        k = next((k for k, v in enumerate(vals) if v < t), None)
        if k is None:
            break
        cur, t = moves[k] * cur, vals[k]
    # equal-trace component on the boundary: pick the lex-smallest mate
    component = {cur.coords: cur}
    frontier = [(cur, vals)]
    while frontier:
        x, xvals = frontier.pop()
        for u, v in zip(moves, xvals):
            if v == t:
                y = u * x
                if y.coords not in component:
                    component[y.coords] = y
                    frontier.append((y, traces(y)))
    best = min(component)
    return component[best]


def canonical_generator(dom: FundamentalDomain, g: FieldElement) -> FieldElement:
    """Totally positive, trace-minimal, lex-tie-broken associate of g."""
    return reduce_to_domain(dom, make_totally_positive(dom.ctx, g))


def _cone_rays(ctx, rows) -> list[tuple[int, ...]]:
    """Extreme rays of the trace cone K = {a : w . a >= 0 for w in rows},
    each certified totally positive; the rows are w_u - t, with w_u the
    trace row of a small unit u and t the identity row.

    The kernel of n - 1 rows is spanned by their signed maximal minors, and
    it holds a ray of K when that vector or its negative satisfies every
    row.  K holds a neighbourhood of 1, so it is pointed exactly when its
    rows have rank n; otherwise some kernel vector vanishes on every row, or
    no kernel vector is found at all.  A pointed K is the cone over its
    rays, so once every ray is totally positive, every nonzero point of K is
    too, and K without the origin is the closed domain."""
    n = ctx.degree
    rays = set()
    for sub in combinations(rows, n - 1):
        v = [(-1) ** j * det([r[:j] + r[j + 1:] for r in sub]) for j in range(n)]
        g = gcd(*v)
        if not g:
            continue
        vals = [sum(map(mul, r, v)) for r in rows]
        if not any(vals):
            raise HypothesisViolated("the trace cone of the domain is not pointed")
        if min(vals) >= 0:
            rays.add(tuple(c // g for c in v))
        elif max(vals) <= 0:
            rays.add(tuple(-c // g for c in v))
    if not rays:
        raise HypothesisViolated("the trace cone of the domain is not pointed")
    for ray in rays:
        if not ctx.is_totally_positive(ctx.element(ray)):
            raise HypothesisViolated(f"trace cone ray {ray} is not totally positive")
    return sorted(rays)


# Bits of the dyadic scale factors of the hull vertices: the hull of the
# census is a superset of the exact one by at most 2^-HULL_BITS of a ray.
HULL_BITS = 32


def tail_table(dom: FundamentalDomain, hi: int) -> list[tuple[int, ...]]:
    """The domain's tail table, extended to hi: one flat tuple (start a0,
    a1, ..., a_(n-1), e_1, ..., e_n) per tail beta = (0, a1, ...,
    a_(n-1)) that holds an element of norm <= hi, with P(t) = N(t + beta)
    = t^n + sum_k e_k t^(n-k) its norm along the tail from the exact
    trace-row bound start up.  It lives in dom._census with the cone's
    rays and facet rows, so every window reads it and each tail's norm
    polynomial is built once per domain, whatever the windows asked.

    The closed domain is the trace cone K without the origin (see
    _cone_rays).  N^(1/n) is concave and 1-homogeneous on the totally
    positive cone, so every element of norm <= hi lies in the hull of 0 and
    the points s_i r_i over the rays r_i, for any s_i >= (hi / N(r_i))^(1/n);
    s_i is taken dyadic.  The hull bounds a_(n-1) by its box, a_(n-2) by
    its slice at each a_(n-1) (for n >= 3) and the coordinates between by
    its box, all rounded outward.  For each tail the a0 with (a0, tail) in
    K form a ray of totally positive elements, from start up, along which
    P increases, so the tail is empty up to hi exactly when P(start) > hi:
    such a tail is neither built nor stored.  The hull grows with hi, so a
    tail with P(start) at most the last hi is already stored; extending
    the table builds only the tails in between.  The table holds one tuple
    per non-empty tail at the largest hi asked (1,162 on shanks:7 at 2*10^4)."""
    ctx = dom.ctx
    n = ctx.degree
    table = dom._census.get("tails")
    if table is None:
        rows = [tuple(w - t for w, t in zip(row, dom.identity_row))
                for row in dom.trace_rows]
        rays = _cone_rays(ctx, rows)
        # a facet of K holds n - 1 independent rays, so the rows vanishing on
        # n - 1 rays still cut out K; the a0 bound needs no others
        rows = [row for row in rows
                if sum(1 for ray in rays if not sum(map(mul, row, ray))) >= n - 1]
        table = dom._census["tails"] = {"rays": rays, "rows": rows, "hi": 0,
                                        "entries": []}
    done, entries = table["hi"], table["entries"]
    if hi <= done:
        return entries
    rows = table["rows"]
    scale = 1 << HULL_BITS
    verts = [(0,) * n]
    for ray in table["rays"]:
        s = iroot_ceil(-(-hi * scale**n // ctx.norm_coords(ray)), n)
        verts.append(tuple(s * c for c in ray))
    box = [range(min(v[j] for v in verts) // scale,
                 -(-max(v[j] for v in verts) // scale) + 1) for j in range(n)]
    plane = [(v[n - 2], v[n - 1]) for v in verts]
    new = []  # stored with hi only once complete, so an interrupted pass adds none
    for top in box[n - 1]:
        inner = box[1:n - 1]
        if n >= 3:
            inner[-1] = _hull_slice(plane, top * scale, scale)
        for mid in product(*inner):
            tail = mid + (top,)
            # each row reads c0 a0 + s >= 0 with c0 = T(u) - n > 0 (AM-GM),
            # so a0 >= ceil(-s / c0); a0 >= 1 on the zero tail
            start = max(-(sum(map(mul, row[1:], tail)) // row[0]) for row in rows)
            if not any(tail):
                start = max(start, 1)
            if done < ctx.norm_coords((start,) + tail) <= hi:
                new.append((start, *tail,
                            *_norm_polynomial(ctx, dom.identity_row, (0,) + tail)))
    entries += new
    table["hi"] = hi
    return entries


def census_window(dom: FundamentalDomain, lo: int, hi: int):
    """(norm, coords) of every nonzero integral element of the closed domain
    with lo <= norm <= hi, tail by tail in the order of the tail table
    (tail_table, extended to hi), each tail in increasing a0; the a0 window
    of a tail is the exact solution of lo <= P(t) <= hi.  The table stays
    with the domain and stores, for each tail holding an element of norm
    <= the largest hi asked, its start a0 and norm polynomial: one tuple
    of 2n integers per such tail (1,162 on shanks:7 at 2*10^4)."""
    n = dom.ctx.degree
    for entry in tail_table(dom, hi):
        coeffs = entry[n:]
        for t in _a0_window(coeffs, entry[0], lo, hi):
            yield _horner(coeffs, t), (t,) + entry[1:n]


def _hull_slice(points, y, scale):
    """The integers x, rounded outward, of the slice at height y of the
    convex hull of the points (both coordinates scaled by scale): every
    edge of the hull joins two of the points, so the slice's ends are
    where the point-pair segments crossing y meet it."""
    ends = []  # (num, den) with den > 0: the point num / (den * scale)
    for (x1, y1), (x2, y2) in combinations(points, 2):
        if y1 == y2:
            if y1 == y:
                ends += [(x1, 1), (x2, 1)]
        elif min(y1, y2) <= y <= max(y1, y2):
            num, den = x1 * (y2 - y1) + (y - y1) * (x2 - x1), y2 - y1
            ends.append((num, den) if den > 0 else (-num, -den))
    if not ends:
        return range(0)
    return range(min(num // (den * scale) for num, den in ends),
                 max(-(-num // (den * scale)) for num, den in ends) + 1)


def _norm_polynomial(ctx, ps, beta) -> list[int]:
    """[e_1, ..., e_n] with N(t + beta) = t^n + sum_k e_k t^(n-k): the
    elementary symmetric functions of beta's conjugates, from the power sums
    p_i = T(beta^i) (T(x) = ps . x) by Newton's identities, k e_k = sum_i
    (-1)^(i-1) e_(k-i) p_i."""
    power, signed = beta, [sum(map(mul, ps, beta))]  # (-1)^(i-1) p_i
    for i in range(2, ctx.degree + 1):
        power = ctx.mul_coords(power, beta)
        p = sum(map(mul, ps, power))
        signed.append(-p if i % 2 == 0 else p)
    coeffs = [1]
    for k in range(1, ctx.degree + 1):
        coeffs.append(sum(map(mul, reversed(coeffs), signed)) // k)
    return coeffs[1:]


def _horner(coeffs, t: int) -> int:
    """The monic polynomial t^n + sum_k coeffs[k-1] t^(n-k) at t."""
    acc = 1
    for c in coeffs:
        acc = acc * t + c
    return acc


def _a0_window(coeffs, start: int, lo: int, hi: int) -> range:
    """The t >= start with lo <= P(t) <= hi, for a polynomial P increasing
    on [start, oo): doubling, then bisection, at each end."""
    def last_at_most(bound):
        # the largest t >= start with P(t) <= bound, given P(start) <= bound
        t, step = start, 1
        while _horner(coeffs, t + step) <= bound:
            t, step = t + step, 2 * step
        top = t + step
        while top - t > 1:
            mid = (t + top) // 2
            if _horner(coeffs, mid) <= bound:
                t = mid
            else:
                top = mid
        return t

    at_start = _horner(coeffs, start)
    if at_start > hi:
        return range(0)
    first = last_at_most(lo - 1) + 1 if at_start < lo else start
    return range(first, last_at_most(hi) + 1)


def domain_elements(dom: FundamentalDomain, X: int) -> list[tuple[int, ...]]:
    """Coordinates of every nonzero integral element of the closed domain
    with norm <= X, sorted: the census of the window [1, X] (sliced hull,
    norm polynomial along each tail; see census_window) without the norms.
    Cached per domain."""
    if X not in dom._census:
        dom._census[X] = sorted(coords for _, coords in census_window(dom, 1, X))
    return dom._census[X]


def certify_h_plus_one(dom: FundamentalDomain) -> None:
    """Prove that the narrow class number h+ is 1, once per domain, or
    raise HypothesisViolated.

    Minkowski's bound M = n!/n^n sqrt|D| (compared in integers) puts an
    integral ideal of norm <= M in every ideal class, so the primes of norm
    <= M generate the class group.  An inert prime is (p); a prime of
    degree one is generated by a census element of its norm lying in it,
    which is totally positive.  When every such prime has one, h = 1, and
    unit signs of full F2 rank (verify_unit_plus_square) make h+ = h."""
    if dom._h_plus_one:
        return
    ctx = dom.ctx
    n = ctx.degree
    if not verify_unit_plus_square(ctx)["sign_map_surjective"]:
        raise HypothesisViolated("the unit signs do not cover every sign pattern, "
                                 "so h+ = 1 is unproved")
    bound = isqrt(factorial(n) ** 2 * abs(ctx.disc_field)) // n**n
    census: dict = {}
    for norm, coords in census_window(dom, 2, bound):
        census.setdefault(norm, []).append(coords)
    for p in sieve_primes(bound):
        for prime in split_prime(ctx, p):
            if prime.f == 1 and not any(eval_coords_mod_p(c, prime.r, p) == 0
                                        for c in census.get(p, ())):
                raise HypothesisViolated(
                    f"{prime!r} has norm {p} <= the Minkowski bound and no totally "
                    f"positive generator, so h+ = 1 is unproved")
    dom._h_plus_one = True


def domain_class_counts(dom: FundamentalDomain, X: int, ideal) -> dict:
    """Histogram of the closed-domain elements of norm <= X over the residue
    classes mod the ideal.  One pass per (X, ideal); cached."""
    key = (X, ideal.factors)
    cache = dom._census.setdefault("classes", {})
    if key in cache:
        return cache[key]
    ctx = dom.ctx
    H = ideal_lattice(ctx, ideal)
    hist: dict = {}
    for coords in domain_elements(dom, X):
        r = hnf_residue(H, coords)
        hist[r] = hist.get(r, 0) + 1
    cache[key] = hist
    return hist


def count_in_domain(dom: FundamentalDomain, X: int, ideal, nu) -> int:
    """Exact count of integral elements in the closed domain, norm <= X,
    congruent to nu mod the ideal."""
    ctx = dom.ctx
    H = ideal_lattice(ctx, ideal)
    target = hnf_residue(H, [int(c) for c in ctx.coerce(nu).coords])
    return domain_class_counts(dom, X, ideal).get(target, 0)

