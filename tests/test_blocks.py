"""One prime-ideal stream, one block scheduler: the CLI output must not
depend on the block size or the worker count, and no prime ideal may be
lost at a block edge."""

import io
import sys
from collections import Counter

import pytest

from idealspin import cli, units
from idealspin.arith import sieve_primes
from idealspin.ideals import enumerate_prime_ideals, prime_ideals_in_norm_range


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ("spins", "--max-norm", "5000"),
    ("spins", "--max-norm", "3000", "--mod8", "1,0,0"),
    ("quad-spins", "--max-norm", "8000"),
    ("selmer-scan", "--max-p", "3000"),
], ids=lambda a: " ".join(a))
def test_output_is_block_and_worker_invariant(monkeypatch, argv):
    outputs = {}
    for per_block in (50, cli.PRIMES_PER_BLOCK):
        monkeypatch.setattr(cli, "PRIMES_PER_BLOCK", per_block)
        if per_block == 50:
            assert len(cli._norm_blocks(int(argv[2]))) > 5
        for workers in (1, 2):
            code, out, _ = run_cli(*argv, "--workers", str(workers))
            assert code == 0
            outputs[per_block, workers] = out
    assert len(set(outputs.values())) == 1, sorted(outputs)
    if argv == ("spins", "--max-norm", "5000"):
        # inert 11 and 17: norms 1331 and 4913 lie blocks above p itself
        rows = out.splitlines()
        assert any(r.startswith("11,-1,1331,") for r in rows)
        assert any(r.startswith("17,-1,4913,") for r in rows)


def test_norm_blocks_partition_the_range(monkeypatch):
    monkeypatch.setattr(cli, "PRIMES_PER_BLOCK", 50)
    X = 5000
    blocks = cli._norm_blocks(X)
    assert blocks[0][0] == 1 and blocks[-1][1] == X
    assert all(a[1] + 1 == b[0] for a, b in zip(blocks, blocks[1:]))
    counts = [len(sieve_primes(hi, lo=lo)) for lo, hi in blocks]
    assert counts[:-1] == [50] * (len(blocks) - 1) and 0 < counts[-1] <= 50
    assert cli._norm_blocks(1) == [(1, 1)] and cli._norm_blocks(0) == []


@pytest.mark.parametrize("argv,module,name", [
    (("quad-spins", "--max-norm", "3000"), "idealspin.involution", "qualifying_generator"),
    (("selmer-scan", "--max-p", "1500"), "idealspin.selmer", "spin_record"),
], ids=lambda a: a[0] if isinstance(a, tuple) else None)
def test_each_block_scans_only_its_own_primes(monkeypatch, argv, module, name):
    """With many small blocks every prime ideal is still handled once.
    quad-spins searches only one prime above each rational p (both qualify
    alike); the Selmer scan checks every prime above p."""
    mod = sys.modules[module]
    real = getattr(mod, name)
    calls = Counter()

    def counting(ctx, dom, prime, **kw):
        calls[prime] += 1
        return real(ctx, dom, prime, **kw)

    monkeypatch.setattr(mod, name, counting)
    monkeypatch.setattr(cli, "PRIMES_PER_BLOCK", 20)
    assert run_cli(*argv, "--workers", "1")[0] == 0
    assert calls and max(calls.values()) == 1
    if argv[0] == "quad-spins":
        assert len({prime.p for prime in calls}) == len(calls)


@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 2), (8, 8), (9, 12), (1000, 5000),
                                   (1332, 4913), (4914, 6000)])
def test_prime_ideals_in_norm_range(shanks1, lo, hi):
    for degree_one_only in (False, True):
        want = [pr for pr in enumerate_prime_ideals(shanks1, hi, degree_one_only)
                if lo <= pr.norm]
        got = list(prime_ideals_in_norm_range(shanks1, lo, hi, degree_one_only))
        assert sorted(got, key=lambda pr: pr.sort_key) == want


def test_windowed_sieve():
    for limit in (0, 1, 2, 30, 1000):
        for lo in (0, 2, 3, 10, 29, 31, 997, 1001):
            assert sieve_primes(limit, lo=lo) == [p for p in sieve_primes(limit) if p >= lo]


def _count_calls(monkeypatch, *names):
    """Log the positional arguments of every call to the named library
    functions, patched in every module that imported them."""
    calls = {}
    for name in names:
        real = getattr(sys.modules["idealspin.ideals"], name)
        log = calls[name] = []

        def counting(*args, _real=real, _log=log, **kw):
            _log.append(args)
            return _real(*args, **kw)

        for mod in [m for k, m in sys.modules.items() if k.startswith("idealspin.")]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("argv,per_block", [
    (("spins", "--max-norm", "3000"), cli.PRIMES_PER_BLOCK),
    (("spins", "--max-norm", "3000"), 250),
    (("spin-sum", "--max-norm", "3000"), cli.PRIMES_PER_BLOCK),
], ids=["spins-1-block", "spins-2-blocks", "spin-sum"])
def test_spins_search_no_lattice(monkeypatch, argv, per_block):
    """spins and spin-sum read every generator of a degree-one prime from
    the census: no generator search, no short vectors, and p is split only
    when an inert prime above it fits (p^3 <= X) or p | disc = 49."""
    monkeypatch.setattr(cli, "PRIMES_PER_BLOCK", per_block)
    calls = _count_calls(monkeypatch, "find_generator", "short_vectors", "split_prime")
    code, out, _ = run_cli(*argv, "--field", "shanks:1")
    assert code == 0 and out
    assert len(cli._norm_blocks(3000)) == (2 if per_block == 250 else 1)
    assert calls["find_generator"] == [] and calls["short_vectors"] == []
    split = {args[1] for args in calls["split_prime"]}
    assert split and all(p**3 <= 3000 or 49 % p == 0 for p in split), split


def test_spins_builds_each_tail_once(monkeypatch):
    """The tail table outlives the norm windows: spins builds each stored
    tail's norm polynomial once, for 46 blocks as for 3, and none for a
    tail that holds no element."""
    built, doms = [], []
    real_poly = units._norm_polynomial

    def counting(*args):
        built.append(args[2])
        return real_poly(*args)

    def recording(ctx):
        doms.append(units.build_domain(ctx))
        return doms[-1]

    monkeypatch.setattr(units, "_norm_polynomial", counting)
    monkeypatch.setattr(cli, "build_domain", recording)
    counts, blocks = [], []
    for per_block in (50, 1000):
        monkeypatch.setattr(cli, "PRIMES_PER_BLOCK", per_block)
        built.clear()
        assert run_cli("spins", "--field", "shanks:7", "--max-norm", "20000",
                       "--workers", "1")[0] == 0
        tails = units.tail_table(doms[-1], 20000)
        assert len(built) == len(set(built)) == len(tails)
        counts.append(len(built))
        blocks.append(len(cli._norm_blocks(20000)))
    assert blocks == [46, 3] and counts[0] == counts[1]
