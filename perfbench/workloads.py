"""The benchmark's workloads: a seed becomes one idealspin CLI argv, and the
CLI's CSV output is checked against the frozen reference and the
self-checks the output carries.

Every workload is a closed loop of one caller: the next CLI run starts when
the previous one has returned.
"""

import gzip
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Seed 0 runs the first entry of each list.  Other seeds run the later
# entries in turn.  Every entry was checked to finish with zero generator
# failures.  Each max-norm is chosen so that one CLI run costs about the
# same as seed 0's, within the run-to-run noise of a few percent, so the
# seed changes which field the layers see more than what a run costs.
# shanks:1 is kept out of the rotation: its fundamental domain has 24 small
# units against 18 and twice the set-up time, so a median over seeds would
# jump with the number of seeds that land on it.
CUBIC_SCAN = ((1, 20000), (4, 20000), (5, 20000), (7, 20000))
# (d, max norm); d must be 1 mod 4.  d=29 is vetted too but left out: its
# cost per split prime is about 8% lower than the others', which would
# widen the spread of work_per_s over seeds.
QUAD_INVOLUTION = ((5, 60000), (13, 67000), (41, 66000))
# The census cost grows fast with the Shanks parameter (max-norm 1000 takes
# about 1 s for m=1, 4.5 s for m=5 and 150 s for m=10), so every seed runs
# m=1.
CUBIC_CENSUS = ((1, 3000, 8),)

WORKLOADS = ("cubic-scan", "cubic-census", "quad-involution")


@dataclass(frozen=True)
class Case:
    """One concrete input: the CLI argv and the field whose set-up it pays."""

    workload: str
    argv: tuple[str, ...]
    family: str
    param: int
    key: str           # names the reference file

    def with_workers(self, n: int) -> "Case":
        if "--workers" not in self.argv:
            return self
        i = self.argv.index("--workers") + 1
        return replace(self, argv=self.argv[:i] + (str(n),) + self.argv[i + 1:])


def _pick(table, seed: int):
    if seed == 0 or len(table) == 1:
        return table[0]
    return table[1 + (seed - 1) % (len(table) - 1)]


def make_case(workload: str, seed: int, max_norm: int | None = None,
              max_modulus_norm: int | None = None) -> Case:
    """The input for (workload, seed).  max_norm and max_modulus_norm shrink
    it for the smoke tests; the benchmark itself never sets them."""
    if workload == "cubic-scan":
        m, X = _pick(CUBIC_SCAN, seed)
        X = max_norm or X
        argv = ("spins", "--field", f"shanks:{m}", "--max-norm", str(X), "--workers", "1")
        return Case(workload, argv, "shanks_cubic", m, f"cubic-scan_m{m}_X{X}")
    if workload == "cubic-census":
        m, X, M = _pick(CUBIC_CENSUS, seed)
        X, M = max_norm or X, max_modulus_norm or M
        argv = ("domain-count", "--field", f"shanks:{m}", "--max-norm", str(X),
                "--max-modulus-norm", str(M))
        return Case(workload, argv, "shanks_cubic", m, f"cubic-census_m{m}_X{X}_M{M}")
    if workload == "quad-involution":
        d, X = _pick(QUAD_INVOLUTION, seed)
        X = max_norm or X
        argv = ("quad-spins", "--d", str(d), "--max-norm", str(X), "--workers", "2")
        return Case(workload, argv, "real_quadratic", d, f"quad-involution_d{d}_X{X}")
    raise ValueError(f"unknown workload {workload!r}")


def all_reference_cases() -> list[Case]:
    """Every case some seed can produce."""
    tables = {"cubic-scan": CUBIC_SCAN, "cubic-census": CUBIC_CENSUS,
              "quad-involution": QUAD_INVOLUTION}
    return [make_case(w, s) for w in WORKLOADS for s in range(len(tables[w]))]


def reference_path(case: Case) -> Path:
    return REFERENCE_DIR / f"{case.key}.csv.gz"


def load_reference(case: Case) -> str | None:
    path = reference_path(case)
    if not path.is_file():
        return None
    return gzip.decompress(path.read_bytes()).decode()


# ---------------------------------------------------------------------------
# self-checks carried by the output


def _quad_bad_rows(rows: list[list[str]]) -> set[int]:
    """quad-spins rows whose direct and closed-form spins disagree."""
    return {i for i, r in enumerate(rows) if r[-1] != "1"}


def _census_bad_rows(rows: list[list[str]]) -> set[int]:
    """domain-count rows of an ideal whose class counts do not sum to the
    domain total printed (as total / norm) in its 'expected' column.  The
    rows of one ideal are consecutive, one per residue class."""
    bad: set[int] = set()
    i = 0
    while i < len(rows):
        nm = int(rows[i][1])
        block = range(i, min(i + nm, len(rows)))
        ok = len(block) == nm and all(rows[j][1] == rows[i][1] for j in block)
        if ok:
            total = sum(int(rows[j][3]) for j in block)
            ok = all(rows[j][4] == f"{total / nm:.3f}" for j in block)
        if not ok:
            bad.update(block)
        i += max(nm, 1)
    return bad


_SELF_CHECKS = {"quad-involution": _quad_bad_rows, "cubic-census": _census_bad_rows}


@dataclass(frozen=True)
class Verdict:
    attempted: int     # rows expected (reference rows, plus extra rows emitted)
    failed: int        # rows missing, differing, extra, or failing a self-check
    identical: bool    # byte-identical to the reference


def check_output(case: Case, text: str, reference: str | None) -> Verdict:
    """Compare one CLI output with the reference, row by row.  Without a
    reference (the smoke tests' tiny sizes) only the self-checks apply."""
    lines = text.splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    bad = _SELF_CHECKS.get(case.workload, lambda _: set())(rows)
    if reference is None:
        return Verdict(max(len(rows), 1), len(bad), False)
    ref_lines = reference.splitlines()
    if not lines or lines[0] != ref_lines[0]:
        n = max(len(ref_lines) - 1, 1)
        return Verdict(n, n, False)
    pool = Counter(ref_lines[1:])
    for i, ln in enumerate(lines[1:]):
        if pool[ln] > 0:
            pool[ln] -= 1
        else:
            bad.add(i)
    missing = sum(pool.values())
    attempted = max(len(ref_lines), len(lines)) - 1
    return Verdict(max(attempted, 1), min(max(missing, len(bad)), max(attempted, 1)),
                   text == reference)


def crash_verdict(reference: str | None) -> Verdict:
    """A run that raised or exited non-zero fails every reference row."""
    n = max(len(reference.splitlines()) - 1, 1) if reference else 1
    return Verdict(n, n, False)


# ---------------------------------------------------------------------------
# work units


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if sieve[i]]


def work_units(case: Case, reference: str) -> int:
    """Prime ideals emitted (cubic-scan), domain elements counted
    (cubic-census) or split rational primes searched (quad-involution)."""
    rows = [ln.split(",") for ln in reference.splitlines()[1:]]
    if case.workload == "cubic-scan":
        return len(rows)
    if case.workload == "cubic-census":
        nm = int(rows[0][1])
        return sum(int(r[3]) for r in rows[:nm])
    d = case.param
    X = int(case.argv[case.argv.index("--max-norm") + 1])
    return sum(1 for p in _primes_upto(X)
               if p != 2 and d % p and pow(d % p, (p - 1) // 2, p) == 1)
