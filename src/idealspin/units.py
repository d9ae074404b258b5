"""Unit-group sign combinatorics and the fundamental domain of the totally
positive unit action.

The domain used everywhere is the trace-minimal cell: a totally positive x
lies inside iff T(u*x) > T(x) for every nontrivial totally positive unit u,
and finitely many units (the small units, all embeddings below the cutoff C)
suffice to decide this.  All comparisons are exact integer comparisons of
trace bilinear forms.
"""

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd, log
from operator import mul

from .arith import iroot_ceil
from .errors import (
    CostGuard,
    HypothesisViolated,
    NotTotallyPositive,
    SearchBoundExceeded,
    SignSystemSingular,
)
from .fields import FieldElement
from .ideals import ideal_lattice
from .lattice import det, f2_echelon, f2_solve, gauss_jordan

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


@dataclass(frozen=True)
class UnitGroupData:
    generators: tuple
    sign_matrix: tuple
    mod8_square_image: frozenset


def unit_group_data(ctx) -> UnitGroupData:
    signs = tuple(sign_to_f2(s) for s in _unit_signs(ctx)[0])
    return UnitGroupData(ctx.unit_generators, signs, unit_square_image(ctx, 8))


def unit_square_image(ctx, modulus: int) -> frozenset:
    """The subgroup of (O/modulus)^x generated by the squares of the unit
    generators, as a set of coordinate tuples mod modulus."""
    gens = []
    for u in ctx.unit_generators:
        g2 = u * u
        gens.append(ctx.coords_mod(g2, modulus))
    seen = {ctx.coords_mod(ctx.one, modulus)}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(c % modulus for c in ctx.mul_coords(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


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


def domain_elements(dom: FundamentalDomain, X: int) -> list[tuple[int, ...]]:
    """Coordinates of every nonzero integral element of the closed domain
    with norm <= X.  Cached per domain.

    The closed domain is the trace cone K without the origin (see
    _cone_rays).  N^(1/n) is concave and 1-homogeneous on the totally
    positive cone, so every element of norm <= X lies in the convex hull of
    0 and the points (X / N(r))^(1/n) r over the rays r; that hull bounds
    each coordinate.  For each tail (a1, ..., a_{n-1}) in the box, the a0
    with (a0, tail) in K form a ray of totally positive elements, along
    which the norm increases."""
    if X in dom._census:
        return dom._census[X]
    ctx = dom.ctx
    n = ctx.degree
    rows = [tuple(w - t for w, t in zip(row, dom.identity_row)) for row in dom.trace_rows]
    lo = [0] * n
    hi = [0] * n
    for ray in _cone_rays(ctx, rows):
        N = ctx.norm_coords(ray)
        for j, c in enumerate(ray):
            # |c| (X / N)^(1/n), rounded up
            b = iroot_ceil(-(-X * abs(c) ** n // N), n)
            if c > 0:
                hi[j] = max(hi[j], b)
            elif c < 0:
                lo[j] = min(lo[j], -b)
    out: list[tuple[int, ...]] = []
    coords = [0] * n

    def scan_a0():
        # each row reads c0 a0 + s >= 0 with c0 = T(u) - n > 0 (AM-GM), so
        # a0 >= ceil(-s / c0); a0 >= 1 on the zero tail
        tail = coords[1:]
        a0 = max(-(sum(map(mul, row[1:], tail)) // row[0]) for row in rows)
        if not any(tail):
            a0 = max(a0, 1)
        coords[0] = a0
        if ctx.norm_coords(tuple(coords)) > X:
            return
        step = 1
        while True:
            coords[0] = a0 + step
            if ctx.norm_coords(tuple(coords)) > X:
                break
            step *= 2
        lo2, hi2 = a0, a0 + step
        while hi2 - lo2 > 1:
            mid = (lo2 + hi2) // 2
            coords[0] = mid
            if ctx.norm_coords(tuple(coords)) <= X:
                lo2 = mid
            else:
                hi2 = mid
        for v in range(a0, lo2 + 1):
            coords[0] = v
            out.append(tuple(coords))
        coords[0] = 0

    def rec(i):
        if i == 0:
            scan_a0()
            return
        for v in range(lo[i], hi[i] + 1):
            coords[i] = v
            rec(i - 1)
        coords[i] = 0

    rec(n - 1)
    out.sort()
    dom._census[X] = out
    return out


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
        r = _residue_canonical(H, list(coords))
        hist[r] = hist.get(r, 0) + 1
    cache[key] = hist
    return hist


def count_in_domain(dom: FundamentalDomain, X: int, ideal, nu) -> int:
    """Exact count of integral elements in the closed domain, norm <= X,
    congruent to nu mod the ideal."""
    ctx = dom.ctx
    H = ideal_lattice(ctx, ideal)
    target = _residue_canonical(H, [int(c) for c in ctx.coerce(nu).coords])
    return domain_class_counts(dom, X, ideal).get(target, 0)


def _residue_canonical(H, v) -> tuple:
    w = list(v)
    n = len(H)
    for i in range(n):
        q = w[i] // H[i][i]
        if q:
            for j in range(i, n):
                w[j] -= q * H[i][j]
    return tuple(w)
