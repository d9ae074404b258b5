"""Integer lattices inside the coordinate space of a field order.

Provides Hermite normal form bases (for ideal arithmetic and membership
tests), exact LLL reduction with respect to the trace quadratic form
Q(v) = sum of squared real embeddings = Trace(v^2)-form, and bounded
short-vector enumeration.  Everything is exact; floats appear only as
search guides and every emitted vector is re-checked exactly.
"""

from fractions import Fraction


def hnf(vectors, n: int):
    """Row HNF of the lattice spanned by the given integer row vectors.

    Returns n rows, upper triangular (row i has zeros before column i),
    positive diagonal, entries above each pivot reduced into [0, pivot).
    Raises ValueError if the rows do not span a full-rank lattice.
    """
    rows = [list(v) for v in vectors if any(v)]
    res: list[list[int]] = []
    for col in range(n):
        idx = [i for i, r in enumerate(rows) if r[col] != 0]
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(rows[i][col]))
            i0 = idx[0]
            for i in idx[1:]:
                q = rows[i][col] // rows[i0][col]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
            idx = [i for i in idx if rows[i][col] != 0]
        if not idx:
            raise ValueError("rows do not span a full-rank lattice")
        piv = rows.pop(idx[0])
        if piv[col] < 0:
            piv = [-x for x in piv]
        res.append(piv)
        rows = [r for r in rows if any(r)]
    # reduce entries above each pivot
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            q = res[i][j] // res[j][j]
            if q:
                res[i] = [a - q * b for a, b in zip(res[i], res[j])]
    return res


def hnf_contains(H, v) -> bool:
    """Does the lattice with (upper-triangular) HNF basis H contain v?"""
    w = list(v)
    for i in range(len(H)):
        if w[i] % H[i][i]:
            return False
        c = w[i] // H[i][i]
        if c:
            w = [a - c * b for a, b in zip(w, H[i])]
    return all(x == 0 for x in w)


def hnf_det(H) -> int:
    d = 1
    for i in range(len(H)):
        d *= H[i][i]
    return d


def lattice_product(ctx, rows_a, rows_b):
    """HNF basis of the module generated by all pairwise products."""
    prods = [ctx.mul_coords(tuple(a), tuple(b)) for a in rows_a for b in rows_b]
    return hnf(prods, ctx.degree)


def gram(ctx, rows):
    """Gram matrix of the rows under the trace form T(xy)."""
    T = ctx.trace_form
    n = ctx.degree

    def dot(u, v):
        return sum(u[i] * T[i][j] * v[j] for i in range(n) for j in range(n))

    return [[dot(u, v) for v in rows] for u in rows]


def _gso_from_gram(G):
    """Gram-Schmidt data (mu, B) from an exact Gram matrix."""
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


def lll_reduce(ctx, rows):
    """Exact LLL (delta = 3/4) of a full-rank basis under the trace form."""
    b = [list(r) for r in rows]
    n = len(b)
    T = ctx.trace_form
    dim = ctx.degree

    def dot(u, v):
        return sum(u[i] * T[i][j] * v[j] for i in range(dim) for j in range(dim))

    def full_gram():
        return [[dot(u, v) for v in b] for u in b]

    delta = Fraction(3, 4)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            raise ArithmeticError("LLL failed to terminate")  # pragma: no cover
        mu, B = _gso_from_gram(full_gram())
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                mu, B = _gso_from_gram(full_gram())
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(k - 1, 1)
    return b


def short_vectors(ctx, basis, bound):
    """All nonzero lattice vectors v (up to sign) with Q(v) <= bound, where
    Q is the trace form.  Basis should be LLL-reduced first.  Deterministic
    order.  Floats steer the recursion; every candidate is verified exactly.
    """
    n = len(basis)
    G = gram(ctx, basis)
    mu, B = _gso_from_gram(G)
    q = [[float(mu[i][j]) for j in range(n)] for i in range(n)]
    Bf = [float(x) for x in B]
    out = []
    x = [0] * n

    def dot_exact(u, v):
        T = ctx.trace_form
        dim = ctx.degree
        return sum(u[i] * T[i][j] * v[j] for i in range(dim) for j in range(dim))

    def recurse(i, rem, center_shift):
        # rem: remaining float budget; center_shift[j] = sum_{l>i} x_l mu[l][j]
        if i < 0:
            if all(v == 0 for v in x):
                return
            vec = [0] * ctx.degree
            for j in range(n):
                if x[j]:
                    for t in range(ctx.degree):
                        vec[t] += x[j] * basis[j][t]
            if dot_exact(vec, vec) <= bound:
                # canonical sign: first nonzero coordinate positive
                for v in vec:
                    if v:
                        if v < 0:
                            vec = [-t for t in vec]
                        break
                out.append(tuple(vec))
            return
        center = -center_shift[i]
        if Bf[i] <= 0:
            return  # pragma: no cover
        radius = (max(rem, 0.0) / Bf[i]) ** 0.5 + 1.0
        lo = int(center - radius) - 1
        hi = int(center + radius) + 1
        for xi in range(lo, hi + 1):
            x[i] = xi
            d = xi - center
            rem2 = rem - Bf[i] * d * d
            if rem2 < -1.0:
                continue
            shift2 = list(center_shift)
            for j in range(i):
                shift2[j] += xi * q[i][j]
            recurse(i - 1, rem2, shift2)
        x[i] = 0

    recurse(n - 1, float(bound) * (1.0 + 1e-9) + 1.0, [0.0] * n)
    # dedupe +-v pairs that both normalized to the same tuple
    seen = set()
    uniq = []
    for v in out:
        if v not in seen:
            seen.add(v)
            uniq.append(v)
    uniq.sort()
    return uniq
