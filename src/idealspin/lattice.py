"""Linear algebra for the library, and integer lattices inside the
coordinate space of a field order.

This is the one home of the matrix kernels: exact determinants (Bareiss),
Gauss-Jordan solves, elimination over F2, and Hermite normal form bases
(for ideal arithmetic, residues and membership tests).  On top of them sit LLL
reduction with respect to the trace quadratic form Q(v) = sum of squared
real embeddings = Trace(v^2)-form, and bounded short-vector enumeration.
LLL is integral (Cohen, Alg. 2.6.7): its Gram-Schmidt data are integers,
built once and updated in place.  Everything in the lattice code is exact;
floats appear only as search guides and every emitted vector is re-checked
exactly.
"""


def det(rows):
    """Exact determinant of a square matrix of ints or Fractions: closed
    forms up to 3x3, fraction-free Bareiss elimination beyond."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # every division is exact: floor division for ints, Fractions otherwise
    m = [list(r) for r in rows]
    exact_int = all(isinstance(x, int) for r in m for x in r)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num // prev if exact_int else num / prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def gauss_jordan(mat, rhs, tol=0):
    """Solve mat * X = rhs for a square mat, rhs given as one row of
    right-hand sides per equation; returns the rows of X.

    The pivot of each column is its entry of largest absolute value, so
    float systems stay stable and exact (Fraction) systems get the exact
    solution.  Returns None when a pivot is zero or below tol."""
    n = len(mat)
    a = [list(row) + list(extra) for row, extra in zip(mat, rhs)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[piv][c] == 0 or abs(a[piv][c]) < tol:
            return None
        a[c], a[piv] = a[piv], a[c]
        d = a[c][c]
        a[c] = [x / d for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def f2_echelon(rows):
    """Reduced row echelon form over F2 of 0/1 rows of equal length.

    Returns (m, pivots) with m the number of input rows and one entry
    (pivot column, echelon row, combination) per pivot, where the
    combination marks the input rows whose sum is the echelon row; the rank
    is len(pivots)."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] & 1), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(m):
            if i != r and aug[i][c] & 1:
                aug[i] = [(a + b) & 1 for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
    return m, [(c, aug[i][:n], aug[i][n:]) for i, c in pivots]


def f2_solve(echelon, target):
    """x with sum of x_i * row_i = target over F2, from f2_echelon(rows);
    None when target is not in the span of the rows."""
    m, pivots = echelon
    x = [0] * m
    t = list(target)
    for col, row, comb in pivots:
        if t[col] & 1:
            t = [(a + b) & 1 for a, b in zip(t, row)]
            x = [(a + b) & 1 for a, b in zip(x, comb)]
    if any(t):
        return None
    return tuple(x)


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


def hnf_residue(H, v) -> tuple:
    """Canonical residue of v modulo the lattice with (upper-triangular) HNF
    basis H: coordinate i ends in [0, H[i][i]).  It is zero exactly when the
    lattice contains v."""
    w = list(v)
    n = len(H)
    for i in range(n):
        q = w[i] // H[i][i]
        if q:
            for j in range(i, n):
                w[j] -= q * H[i][j]
    return tuple(w)


def hnf_det(H) -> int:
    d = 1
    for i in range(len(H)):
        d *= H[i][i]
    return d


def lattice_product(ctx, rows_a, rows_b):
    """HNF basis of the module generated by all pairwise products."""
    prods = [ctx.mul_coords(tuple(a), tuple(b)) for a in rows_a for b in rows_b]
    return hnf(prods, ctx.degree)


def _trace_dot(T, u, v):
    """T(uv) for coordinate vectors u, v, with T the trace-form matrix."""
    n = len(T)
    return sum(u[i] * T[i][j] * v[j] for i in range(n) for j in range(n))


def gram(ctx, rows):
    """Gram matrix of the rows under the trace form T(xy)."""
    T = ctx.trace_form
    return [[_trace_dot(T, u, v) for v in rows] for u in rows]


def _integral_gso(G):
    """Fraction-free Gram-Schmidt data (d, lam) of an integral Gram matrix
    (Cohen, Alg. 2.6.7): d[i] is the Gram determinant of the first i rows,
    so B_i = d[i+1] / d[i], and lam[i][j] = d[j+1] * mu[i][j] for j < i.
    All entries are integers; every division below is exact."""
    n = len(G)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = G[i][j]
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
    return d, lam


def _round_div(num, den):
    """round(Fraction(num, den)) for den > 0: nearest integer, ties to even."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def lll_reduce(ctx, rows):
    """Exact integral LLL (delta = 3/4) of a full-rank basis under the trace
    form (Cohen, Alg. 2.6.7): the Gram-Schmidt data is built once from the
    integral Gram matrix and updated in place on each size reduction and
    swap.  Row k is size-reduced against rows k-1, ..., 0 before each
    Lovasz test."""
    b = [list(r) for r in rows]
    n = len(b)
    d, lam = _integral_gso(gram(ctx, b))
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            raise ArithmeticError("LLL failed to terminate")  # pragma: no cover
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_div(lk[j], d[j + 1])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                lk[j] -= q * d[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        t = lk[k - 1]
        # B_k >= (3/4 - mu^2) B_{k-1}, times 4 d[k] d[k-1] > 0
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * t * t:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lk[j], lam[k - 1][j] = lam[k - 1][j], lk[j]
        dk = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            s = li[k]
            li[k] = (d[k + 1] * li[k - 1] - t * s) // d[k]
            li[k - 1] = (dk * s + t * li[k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


def short_vectors(ctx, basis, bound):
    """All nonzero lattice vectors v (up to sign) with Q(v) <= bound, where
    Q is the trace form, each with its first nonzero coordinate positive,
    as a sorted list.  Basis should be LLL-reduced first.  Only one of each
    +-x coefficient pair is enumerated: x_i >= 0 while every higher x_j is
    0; the float pruning is symmetric under x -> -x, so no vector is lost.
    Floats steer the recursion; every candidate is verified exactly.
    """
    n = len(basis)
    d, lam = _integral_gso(gram(ctx, basis))
    # int / int is correctly rounded: the floats nearest to mu[i][j] and B_i
    q = [[lam[i][j] / d[j + 1] for j in range(n)] for i in range(n)]
    Bf = [d[i + 1] / d[i] for i in range(n)]
    out = []
    x = [0] * n

    def recurse(i, rem, center_shift, free):
        # rem: remaining float budget; center_shift[j] = sum_{l>i} x_l mu[l][j];
        # free: some higher x_l is nonzero, so x_i may be negative
        if i < 0:
            if not free:
                return
            vec = [0] * ctx.degree
            for j in range(n):
                if x[j]:
                    for t in range(ctx.degree):
                        vec[t] += x[j] * basis[j][t]
            if _trace_dot(ctx.trace_form, vec, vec) <= bound:
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
        for xi in range(lo if free else max(lo, 0), hi + 1):
            x[i] = xi
            d = xi - center
            rem2 = rem - Bf[i] * d * d
            if rem2 < -1.0:
                continue
            shift2 = list(center_shift)
            for j in range(i):
                shift2[j] += xi * q[i][j]
            recurse(i - 1, rem2, shift2, free or xi != 0)
        x[i] = 0

    recurse(n - 1, float(bound) * (1.0 + 1e-9) + 1.0, [0.0] * n, False)
    return sorted(set(out))
