"""Command-line front end: deterministic CSV/JSON emission for every
experiment, a flat key=value config file with flag overrides, and one block
scheduler.  The norm range [1, X] is cut into blocks holding a fixed number
of rational primes, each block is scanned by the library's own prime-ideal
stream, and the rows are merged in a fixed order, so the output is
byte-identical for any worker count and any block size.

Exit codes: 0 success, 1 usage errors, 2 hypothesis/budget errors (with a
structured JSON object on stderr).
"""

import argparse
import json
import random
import sys

from . import analytic, involution, selmer
from .arith import is_prime, sieve_primes
from .errors import HypothesisViolated, IdealspinError
from .fields import construct_field
from .ideals import enumerate_ideals, enumerate_prime_ideals, split_prime
from .spin import conjugation_relation_check, spin_prime_stream, spin_record
from .symbols import residue_symbol, residues_mod
from .units import (
    build_domain,
    certify_h_plus_one,
    count_in_domain,
    domain_contains,
    domain_elements,
    make_totally_positive,
    reduce_to_domain,
    tail_table,
    verify_unit_plus_square,
)

_FAMILIES = {"shanks": "shanks_cubic", "lehmer": "lehmer_quintic", "quad": "real_quadratic"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def parse_field(spec: str) -> tuple[str, int]:
    """'shanks:1', 'quad:5', 'lehmer:-1' -> (family, parameter) for
    construct_field; an argparse type."""
    name, _, param = spec.partition(":")
    if name not in _FAMILIES or not param.removeprefix("-").isdecimal():
        raise argparse.ArgumentTypeError(f"bad field {spec!r}; use e.g. shanks:1 or quad:5")
    return _FAMILIES[name], int(param)


def parse_coords(s: str) -> tuple[int, ...]:
    """'1,0,0' -> (1, 0, 0); an argparse type."""
    try:
        return tuple(int(t) for t in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coordinates {s!r}; use e.g. 1,0,0") from None


def parse_class_mod(s: str) -> tuple[int, tuple[int, ...]]:
    """'16:1,0,0' -> (16, (1, 0, 0)): a modulus M >= 1 and a class mod M."""
    ms, sep, cs = s.partition(":")
    if not (sep and ms.isdecimal() and int(ms) >= 1):
        raise argparse.ArgumentTypeError(f"bad class {s!r}; use M:coords, e.g. 16:1,0,0")
    return int(ms), parse_coords(cs)


def parse_lower(s: str):
    """'13:7' -> ('prime', (13, 7)), the prime above 13 with root 7 of f mod
    13; '1,0,2' -> ('element', (1, 0, 2)).  An argparse type."""
    if ":" not in s:
        return "element", parse_coords(s)
    p, _, r = s.partition(":")
    if not (p.isdecimal() and is_prime(int(p)) and r.removeprefix("-").isdecimal()):
        raise argparse.ArgumentTypeError(f"bad prime {s!r}; use p:r with p prime, e.g. 13:7")
    return "prime", (int(p), int(r) % int(p))


def _load_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k, _, v = line.partition("=")
            out[k.strip().replace("-", "_")] = v.strip()
    return out


def build_parser():
    top = _Parser(prog="idealspin")
    top.add_argument("--config", help="flat key=value defaults file")
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, field=True, workers=False, description=None):
        # each command registers only the flags it reads
        p = sub.add_parser(name, description=description)
        if field:
            p.add_argument("--field", default="shanks:1", type=parse_field,
                           help="family:parameter, e.g. shanks:1, quad:5 or lehmer:-1")
        if workers:
            p.add_argument("--workers", type=int, default=1)
        return p

    cmd("field-info")
    cmd("domain-info")
    p = cmd("domain-count")
    p.add_argument("--max-norm", type=int, default=10000)
    p.add_argument("--max-modulus-norm", type=int, default=20)
    p = cmd("primes")
    p.add_argument("--max-norm", type=int, default=100)
    p.add_argument("--degree-one-only", action="store_true")
    p = cmd("symbol")
    p.add_argument("--upper", required=True, type=parse_coords, help="element coords a,b,c")
    p.add_argument("--lower", required=True, type=parse_lower,
                   help="prime p:r or element coords")
    needs_h_plus = ("The field must have narrow class number one: it is certified "
                    "on first use (Minkowski bound and unit signs), and a field that "
                    "fails exits 2.")
    p = cmd("spins", workers=True, description="Canonical generator and spins of "
            "every prime ideal of norm <= --max-norm. " + needs_h_plus)
    p.add_argument("--max-norm", type=int, default=100)
    p.add_argument("--degree-one-only", action="store_true")
    p.add_argument("--mod8", type=parse_coords, help="target coords mod 8, e.g. 1,0,0")
    p.add_argument("--modM", type=parse_class_mod, help="M:coords, e.g. 16:1,0,0")
    p = cmd("spin-sum", description="Sum of spin(sigma^k) over the prime ideals "
            "of norm <= --max-norm. " + needs_h_plus)
    p.add_argument("--max-norm", type=int, default=1000)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mod8", type=parse_coords)
    p = cmd("vaughan-verify")
    p.add_argument("--x", type=int, default=400)
    p.add_argument("--sequence", choices=("spin", "ones"), default="spin")
    p = cmd("char-scan")
    p.add_argument("--q-max", type=int, default=1000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p = cmd("quad-spins", field=False, workers=True)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--max-norm", type=int, default=10000)
    p = cmd("selmer-scan", field=False, workers=True)
    p.add_argument("--curve", default="784")
    p.add_argument("--max-p", type=int, default=10000)
    p.add_argument("--include-disqualified", action="store_true")
    p = cmd("selftest", field=False)
    p.add_argument("--seed", type=int, default=0)
    return top


# ---------------------------------------------------------------------------
# block-parallel map with deterministic merge

_POOL_STATE: dict = {}


def _pool_init(payload):
    _POOL_STATE["payload"] = payload


def _run_blocks(payload, block_fn, blocks, workers: int):
    """Apply block_fn to each block; result order = block order regardless
    of the worker count."""
    if workers <= 1 or len(blocks) <= 1:
        _pool_init(payload)
        try:
            return [block_fn(b) for b in blocks]
        finally:
            # the payload's domain holds its census; let it go with the call
            _POOL_STATE.clear()
    # deferred: importing multiprocessing adds about 0.9 MB to the peak RSS
    # of every one-worker run, which never uses it
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(processes=workers, initializer=_pool_init,
                  initargs=(payload,)) as pool:
        return pool.map(block_fn, blocks)


# Rational primes per block: enough work per block to pay for the fork and
# the result transfer, small enough that --workers helps at modest X.
PRIMES_PER_BLOCK = 1000


def _norm_blocks(X: int):
    """Cut [1, X] into consecutive ranges that each hold PRIMES_PER_BLOCK
    rational primes (the last one holds the rest)."""
    cuts = sieve_primes(X)[PRIMES_PER_BLOCK - 1 : -1 : PRIMES_PER_BLOCK]
    out = []
    lo = 1
    for hi in cuts + [X]:
        if lo <= hi:
            out.append((lo, hi))
        lo = hi + 1
    return out


def _spins_block(block):
    lo, hi = block
    ctx, dom, degree_one_only, mod8, modM = _POOL_STATE["payload"]
    rows = []
    for rec in spin_prime_stream(ctx, dom, hi, degree_one_only=degree_one_only,
                                 mod8_class=mod8, mod_M=modM, lo=lo):
        pr = rec.prime
        rows.append((pr.norm, pr.p, pr.position,
                     pr.r if pr.r is not None else -1,
                     ":".join(str(c) for c in rec.generator.coords),
                     rec.spins))
    return rows


def _quad_block(block):
    lo, hi = block
    ctx, dom = _POOL_STATE["payload"]
    rows = []
    for rec in involution.quad_spin_records(ctx, dom, hi, lo=lo):
        rows.append((rec.p, rec.beta, rec.spin_direct, rec.spin_formula,
                     1 if rec.agree else 0))
    return rows


def _selmer_block(block):
    lo, hi = block
    cfg, dom, include_dq = _POOL_STATE["payload"]
    rows = []
    for c in selmer.scan_twist_candidates(cfg, dom, hi, include_disqualified=include_dq,
                                          lo=lo):
        rows.append((c.p, 1 if c.qualified else 0,
                     c.spin if c.spin is not None else 0,
                     c.predicted_dim if c.predicted_dim is not None else 0,
                     c.failure_reason or ""))
    return rows


# ---------------------------------------------------------------------------
# command implementations


def _emit_csv(header, rows, out):
    out.write(",".join(header) + "\n")
    for r in rows:
        out.write(",".join(str(x) for x in r) + "\n")


def run(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    top = build_parser()
    args = top.parse_args(argv)
    subparser = top._subparsers._group_actions[0].choices[args.command]
    if args.config:
        defaults = _load_config(args.config)
        unread = sorted(set(defaults) - {a.dest for a in subparser._actions})
        if unread:
            top.error(f"config key(s) not read by {args.command}: {', '.join(unread)}")
        for action in subparser._actions:
            if action.dest in defaults:
                raw = defaults[action.dest]
                if isinstance(action, argparse._StoreTrueAction):
                    action.default = raw.lower() in ("1", "true", "yes")
                else:
                    action.default = raw  # argparse applies the type to it
        args = top.parse_args(argv)  # explicit flags still win over the file

    try:
        return _dispatch(args, out, err, subparser.error)
    except IdealspinError as e:
        json.dump({"error": type(e).__name__, "message": str(e)}, err)
        err.write("\n")
        return 2


def _dispatch(args, out, err, usage) -> int:
    """Run one parsed command; usage(message) exits 1 with a usage error."""
    cmd = args.command

    if cmd == "selftest":
        return _selftest(out, seed=args.seed)

    if cmd == "selmer-scan":
        if args.curve != "784":
            raise HypothesisViolated("only the conductor-784 example curve is built in")
        cfg = selmer.curve_784()
        dom = build_domain(cfg.ctx)
        blocks = _norm_blocks(args.max_p)
        rows = [r for chunk in _run_blocks((cfg, dom, args.include_disqualified),
                                           _selmer_block, blocks, args.workers)
                for r in chunk]
        rows.sort(key=lambda r: r[0])
        _emit_csv(("p", "qualified", "spin", "predicted_dim", "failure_reason"),
                  rows, out)
        return 0

    if cmd == "quad-spins":
        ctx = construct_field("real_quadratic", args.d)
        dom = build_domain(ctx)
        blocks = _norm_blocks(args.max_norm)
        rows = [r for chunk in _run_blocks((ctx, dom), _quad_block, blocks,
                                           args.workers) for r in chunk]
        rows.sort(key=lambda r: r[0])
        _emit_csv(("p", "beta", "spin_direct", "spin_formula", "agree"), rows, out)
        return 0

    ctx = construct_field(*args.field)

    def coords(flag, value):
        # coordinates from a flag, checked against the degree of the field
        if value is not None and len(value) != ctx.degree:
            usage(f"argument {flag}: {ctx.degree} coordinates needed, got {len(value)}")
        return value

    if cmd == "field-info":
        info = {
            "family": ctx.family,
            "param": ctx.param,
            "degree": ctx.degree,
            "defining_poly": list(ctx.poly),
            "disc": ctx.disc_field,
            "unit_signs": [list(ctx.sign_vector(u)) for u in ctx.unit_generators],
        }
        json.dump(info, out, indent=2)
        out.write("\n")
        return 0

    if cmd == "domain-info":
        dom = build_domain(ctx)
        info = {
            "C": str(dom.C),
            "C_float": float(dom.C),
            "small_unit_count": len(dom.small_units),
            "contracting_unit": [int(c) for c in dom.contracting_unit.coords],
        }
        json.dump(info, out, indent=2)
        out.write("\n")
        return 0

    if cmd == "domain-count":
        dom = build_domain(ctx)
        X = args.max_norm
        total = len(domain_elements(dom, X))
        rows = []
        for I in enumerate_ideals(ctx, args.max_modulus_norm):
            if I.is_unit_ideal():
                continue
            nm = I.norm
            for nu in residues_mod(ctx, I):
                cnt = count_in_domain(dom, X, I, ctx.element(nu))
                expected = total / nm
                rows.append((X, nm, ":".join(map(str, nu)), cnt,
                             f"{expected:.3f}", f"{cnt - expected:.3f}"))
        _emit_csv(("X", "ideal_norm", "class", "count", "expected", "residual"),
                  rows, out)
        return 0

    if cmd == "primes":
        rows = []
        for pr in enumerate_prime_ideals(ctx, args.max_norm,
                                         degree_one_only=args.degree_one_only):
            rows.append((pr.p, pr.f, pr.e, pr.r if pr.r is not None else -1, pr.norm))
        _emit_csv(("p", "f", "e", "r", "norm"), rows, out)
        return 0

    if cmd == "symbol":
        e = ctx.element(coords("--upper", args.upper))
        kind, lower = args.lower
        if kind == "prime":
            p, r = lower
            lower = next((q for q in split_prime(ctx, p) if q.r == r), None)
            if lower is None:
                usage(f"argument --lower: {r} is not a root of f mod {p}")
        else:
            lower = ctx.element(coords("--lower", lower))
        out.write(f"{residue_symbol(ctx, e, lower)}\n")
        return 0

    if cmd == "spins":
        mod8, modM = coords("--mod8", args.mod8), args.modM
        if modM:
            coords("--modM", modM[1])
        dom = build_domain(ctx)
        # certified before any block (there is none at --max-norm 0), and
        # the tail table built once here, shared by the blocks and inherited
        # by forked workers
        certify_h_plus_one(dom)
        tail_table(dom, args.max_norm)
        blocks = _norm_blocks(args.max_norm)
        chunks = _run_blocks((ctx, dom, args.degree_one_only, mod8, modM),
                             _spins_block, blocks, args.workers)
        rows = [r for chunk in chunks for r in chunk]
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        n = ctx.degree
        header = ["p", "r", "norm", "gen_coords"] + [f"spin_k{k}" for k in range(1, n)]
        _emit_csv(header, ((r[1], r[3], r[0], r[4], *r[5]) for r in rows), out)
        return 0

    if cmd == "spin-sum":
        mod8 = coords("--mod8", args.mod8)
        dom = build_domain(ctx)
        total, count = analytic.spin_sum(ctx, dom, args.max_norm, k=args.k,
                                         mod8_class=mod8)
        json.dump({"X": args.max_norm, "k": args.k, "sum": total, "count": count,
                   "ratio": (total / count) if count else 0.0}, out)
        out.write("\n")
        return 0

    if cmd == "vaughan-verify":
        dom = build_domain(ctx)
        seq = (analytic.spin_sequence(ctx, dom) if args.sequence == "spin"
               else analytic.ones_sequence())
        rows = []
        x = args.x
        for y in range(2, x + 1):
            if x % y or y * y > x:
                continue
            z = x // y
            rep = analytic.vaughan_verify(ctx, seq, x, y, z)
            rows.append((x, y, z, 1 if rep.exact_identity_holds else 0))
        _emit_csv(("x", "y", "z", "exact_identity"), rows, out)
        return 0

    if cmd == "char-scan":
        rep = analytic.burgess_scan(ctx, args.q_max)
        if args.format == "json":
            json.dump({"max_ratio": rep["max_ratio"], "argmax_q": rep["argmax_q"]},
                      out)
            out.write("\n")
        else:
            rows = [(r["q"], r["N"], r["max_abs"], r["argmax_M"],
                     f"{r['ratio']:.6f}") for r in rep["rows"]]
            _emit_csv(("q", "N", "max_abs", "argmax_M", "ratio"), rows, out)
        return 0

    raise ValueError(f"unhandled command {cmd}")  # pragma: no cover


# ---------------------------------------------------------------------------


def _selftest(out, seed: int = 0) -> int:
    rng = random.Random(seed)
    failures = 0

    def check(name, ok):
        nonlocal failures
        out.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        if not ok:
            failures += 1

    ctx = construct_field("shanks_cubic", 1)
    dom = build_domain(ctx)
    a = ctx.alpha
    check("field.norm_trace", a.norm() == 1 and a.trace() == -1)
    check("field.sign_alpha", ctx.sign_vector(a) == (1, -1, -1))
    check("units.hypotheses", verify_unit_plus_square(ctx)["passed"])
    check("domain.one_inside", domain_contains(dom, ctx.one) == "inside")
    ok = True
    for _ in range(25):
        e = ctx.element(tuple(rng.randint(-9, 9) for _ in range(3)))
        if e.is_zero():
            continue
        tp = make_totally_positive(ctx, e)
        red = reduce_to_domain(dom, tp)
        u = ctx.unit_generators[1]
        if reduce_to_domain(dom, tp * u * u) != red:
            ok = False
    check("domain.orbit_reduction", ok)
    p13 = split_prime(ctx, 13)
    check("symbols.legendre", residue_symbol(ctx, a, p13[0]) == -1)
    recs = [spin_record(ctx, dom, q) for q in p13]
    check("spin.galois_invariance", len({r.spins for r in recs}) == 1)
    check("spin.conjugation", all(conjugation_relation_check(ctx, dom, q)
                                  for q in p13))
    seq = analytic.ones_sequence()
    rep = analytic.vaughan_verify(ctx, seq, 100, 4, 25)
    check("analytic.decomposition_ones", rep.exact_identity_holds)
    rng2 = random.Random(seed + 1)
    seq2 = analytic.SequenceA(lambda I: rng2.choice((-1, 0, 1)), name="random")
    rep2 = analytic.vaughan_verify(ctx, seq2, 400, 10, 40)
    check("analytic.decomposition_random", rep2.exact_identity_holds)
    q5 = construct_field("real_quadratic", 5)
    dom5 = build_domain(q5)
    stats = involution.involution_spin_sum(q5, dom5, 2000)
    check("involution.dual_pipeline", stats["disagreements"] == 0 and stats["count"] > 0)
    check("involution.complete_sum", stats["complete_sum"] == 0)
    cfg = selmer.curve_784()
    cands = [c for c in selmer.scan_twist_candidates(cfg, dom, 2500) if c.qualified]
    check("selmer.predictions", bool(cands) and
          all((c.predicted_dim == 3) == (c.spin == 1) for c in cands))
    out.write(f"{'OK' if failures == 0 else 'FAILURES: %d' % failures}\n")
    return 0 if failures == 0 else 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
