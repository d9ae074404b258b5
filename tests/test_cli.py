import argparse
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from idealspin import cli as cli_module
from idealspin.cli import build_parser, parse_field, run
from idealspin.units import build_domain


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_field_info_json():
    code, out, _ = run_cli("field-info", "--field", "shanks:1")
    assert code == 0
    info = json.loads(out)
    assert info["defining_poly"] == [-1, -2, 1, 1]
    assert info["disc"] == 49


def test_field_info_lehmer_golden():
    code, out, _ = run_cli("field-info", "--field", "lehmer:-1")
    assert code == 0
    assert json.loads(out) == {
        "family": "lehmer_quintic", "param": -1, "degree": 5,
        "defining_poly": [1, 3, -3, -4, 1, 1], "disc": 14641,
        "unit_signs": [[-1, -1, -1, -1, -1], [1, 1, -1, -1, -1], [1, -1, -1, -1, 1],
                       [-1, -1, 1, -1, 1], [-1, -1, 1, 1, -1]],
    }


@pytest.mark.parametrize("field,C,unit", [
    ("shanks:1", "532794968706246475666241746863320643079948357868859199840861/"
                 "17445531477883141773759232845045958741775849993702889898205", [-2, -3, 4]),
    ("quad:5", "177159557114295710296101716161/48965697300015686351278882912", [2, -1]),
])
def test_domain_info_golden(field, C, unit):
    code, out, _ = run_cli("domain-info", "--field", field)
    assert code == 0
    info = json.loads(out)
    assert info["C"] == C and info["contracting_unit"] == unit


@pytest.mark.parametrize("argv,lines,sha256", [
    (("spins", "--field", "shanks:4", "--max-norm", "3000", "--workers", "1"), 429,
     "9f0bb5bd198246d760f10e7fa1733e7c70d1f1c33f5071c97d63ce4f0b6b9466"),
    (("quad-spins", "--d", "13", "--max-norm", "8000", "--workers", "1"), 53,
     "faa223cc39c2b15389127e6b79912fb093b4c0861239893572579ff50229343e"),
    (("domain-count", "--field", "shanks:1", "--max-norm", "1000",
      "--max-modulus-norm", "8"), 16,
     "7e069be7f54307f288e2ab51010e1d5c2ce1725108f2089f208e38440be3f2de"),
], ids=["spins-shanks4", "quad-spins-d13", "domain-count-shanks1"])
def test_generator_pipeline_golden(argv, lines, sha256):
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


_FIELD_COMMANDS = [
    ("field-info",), ("domain-info",), ("domain-count", "--max-norm", "100"),
    ("primes", "--max-norm", "100"), ("symbol", "--upper", "0,1,0", "--lower", "13:7"),
    ("spins", "--max-norm", "100"), ("spin-sum", "--max-norm", "100"),
    ("vaughan-verify", "--x", "100"), ("char-scan", "--q-max", "50"),
]


@pytest.mark.parametrize("argv", _FIELD_COMMANDS, ids=lambda a: a[0])
def test_non_maximal_order_rejected(argv):
    """Z[alpha] is not the maximal order at p = 3 for shanks:6 and at p = 7
    for shanks:8: every command fails when the field is built."""
    for field, p in (("shanks:6", 3), ("shanks:8", 7)):
        code, out, err = run_cli(*argv, "--field", field)
        assert code == 2
        assert json.loads(err) == {
            "error": "HypothesisViolated",
            "message": f"the power basis of shanks_cubic({field[7:]}) is not the "
                       f"maximal order at p = {p}"}
        assert out == ""


def test_maximal_order_with_square_discriminant_factor_accepted():
    """shanks:3 has delta = 9 but Z[alpha] is maximal at 3."""
    code, out, _ = run_cli("spins", "--field", "shanks:3", "--max-norm", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,r,norm,gen_coords,spin_k1,spin_k2" and len(lines) > 1
    assert lines[1].startswith("3,1,3,")  # the ramified prime above 3


def test_oversized_unit_box_fails_fast():
    """lehmer:-1 asks for an exponent box of about 2.5e8 unit products: the
    domain build stops with CostGuard instead of running without end.  A
    subprocess with a timeout, so a regression fails instead of hanging."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "idealspin.cli", "domain-info",
                           "--field", "lehmer:-1"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "CostGuard"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("quad-spins", "--field", "shanks:1"),
    ("selmer-scan", "--field", "shanks:1"),
    ("selftest", "--field", "shanks:1"),
    ("selftest", "--workers", "2"),
    ("domain-count", "--workers", "2"),
    ("field-info", "--format", "json"),
    ("spins", "--seed", "3"),
])
def test_flag_not_read_by_command_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run(list(argv), out=io.StringIO(), err=io.StringIO())
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("spins", "--modM", "15"),
    ("spins", "--modM", "0:1,0,0"),
    ("spins", "--mod8", "a,b,c"),
    ("spins", "--mod8", "1,0"),
    ("symbol", "--upper", "1,1", "--lower", "13:7"),
    ("symbol", "--upper", "0,1,0", "--lower", "13:5"),
    ("spins", "--field", "foo:1"),
    ("spins", "--field", "shanks:--1"),
    ("spins", "--field", "shanks:"),
], ids=" ".join)
def test_malformed_argument_is_usage_error(argv):
    """Bad syntax, a coordinate count that does not fit the cubic field and
    an r that is not a root of f mod 13 all exit 1 with an error line (a
    bad --field fails on parsing, before the trailing good one).  Run
    as a process, so the test sees what a user sees: an uncaught exception
    would also exit 1, but with a traceback on stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "idealspin.cli", *argv,
                           "--field", "shanks:1"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: argument ")
    assert proc.stdout == ""


def test_primes_csv_header():
    code, out, _ = run_cli("primes", "--max-norm", "13")
    lines = out.strip().splitlines()
    assert lines[0] == "p,f,e,r,norm"
    assert lines[1:] == ["7,1,3,2,7", "2,3,1,-1,8", "13,1,1,7,13",
                         "13,1,1,8,13", "13,1,1,10,13"]


def test_spins_five_rows():
    code, out, _ = run_cli("spins", "--field", "shanks:1", "--max-norm", "13")
    lines = out.strip().splitlines()
    assert lines[0] == "p,r,norm,gen_coords,spin_k1,spin_k2"
    assert len(lines) == 6  # header + 5 data rows
    norms = [int(l.split(",")[2]) for l in lines[1:]]
    assert norms == [7, 8, 13, 13, 13]


def test_congruence_filter_decides_the_prime_above_2():
    """An odd modulus can admit an even generator: 2 = (2, 0, 0) mod 15."""
    code, out, _ = run_cli("spins", "--field", "shanks:1", "--max-norm", "10",
                           "--modM", "15:2,0,0")
    assert code == 0
    assert out.splitlines() == ["p,r,norm,gen_coords,spin_k1,spin_k2", "2,-1,8,2:0:0,0,0"]


def test_symbol_command():
    code, out, _ = run_cli("symbol", "--upper", "0,1,0", "--lower", "13:7")
    assert code == 0 and out.strip() == "-1"


def test_worker_determinism():
    _, out1, _ = run_cli("spins", "--max-norm", "2000", "--workers", "1")
    _, out2, _ = run_cli("spins", "--max-norm", "2000", "--workers", "3")
    assert out1 == out2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["no-such-command"])
    assert exc.value.code == 1


def test_hypothesis_error_exit_code():
    code, out, err = run_cli("selmer-scan", "--curve", "11a", "--max-p", "100")
    assert code == 2
    assert json.loads(err)["error"] == "HypothesisViolated"


@pytest.mark.parametrize("argv", [
    ("spins", "--field", "quad:65", "--workers", "1"),
    ("spins", "--field", "quad:65", "--workers", "2"),
    ("spins", "--field", "quad:85", "--workers", "2"),
    ("spins", "--field", "shanks:14", "--workers", "1"),
    ("spins", "--field", "shanks:14", "--workers", "2"),
    ("spin-sum", "--field", "quad:85"),
    ("spins", "--field", "quad:65", "--max-norm", "0"),
], ids=" ".join)
def test_uncertified_field_is_refused(monkeypatch, argv):
    """A field whose h+ = 1 certificate fails exits 2 with the JSON error
    naming the prime, also when the blocks run in two worker processes and
    when no block runs at all (--max-norm 0)."""
    monkeypatch.setattr(cli_module, "PRIMES_PER_BLOCK", 20)
    if "--max-norm" not in argv:
        argv += ("--max-norm", "500")
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    got = json.loads(err)
    assert got["error"] == "HypothesisViolated"
    prime = {"quad:65": "P(2,", "quad:85": "P(3,", "shanks:14": "P(5,"}[argv[2]]
    assert prime in got["message"]


def test_spins_releases_its_domain(monkeypatch):
    """The one-worker block path keeps no payload after the command returns,
    so the domain and its census table are freed with the call."""
    doms = []

    def recording(ctx):
        dom = build_domain(ctx)
        doms.append(weakref.ref(dom))
        return dom

    monkeypatch.setattr(cli_module, "build_domain", recording)
    code, out, _ = run_cli("spins", "--field", "shanks:1", "--max-norm", "200",
                           "--workers", "1")
    assert code == 0 and out
    gc.collect()
    assert len(doms) == 1 and doms[0]() is None


def test_parse_field_rejects_garbage():
    with pytest.raises(argparse.ArgumentTypeError):
        parse_field("nonsense")


def test_config_file(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("max_norm = 13\nfield = shanks:1\n")
    code, out, _ = run_cli("--config", str(cfg), "primes")
    assert code == 0
    assert len(out.strip().splitlines()) == 6  # header + 5 rows

    # explicit flags override the file
    code, out2, _ = run_cli("--config", str(cfg), "primes", "--max-norm", "8")
    assert len(out2.strip().splitlines()) == 3  # norms 7 and 8


@pytest.mark.parametrize("key", ["max_nrom = 5", "workers = 2"])
def test_config_key_not_read_by_command_is_usage_error(tmp_path, capsys, key):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"field = shanks:1\n{key}\n")
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(cfg), "primes"], out=io.StringIO(), err=io.StringIO())
    assert exc.value.code == 1
    assert key.split()[0] in capsys.readouterr().err


def test_vaughan_command():
    code, out, _ = run_cli("vaughan-verify", "--x", "100", "--sequence", "ones")
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,exact_identity"
    assert all(l.endswith(",1") for l in lines[1:])
    assert len(lines) == 5  # (2,50),(4,25),(5,20),(10,10)


def test_char_scan_json():
    code, out, _ = run_cli("char-scan", "--q-max", "100", "--format", "json")
    rep = json.loads(out)
    assert rep["max_ratio"] > 0


def test_quad_spins_rows():
    code, out, _ = run_cli("quad-spins", "--d", "5", "--max-norm", "1200")
    lines = out.strip().splitlines()
    assert lines[0] == "p,beta,spin_direct,spin_formula,agree"
    for l in lines[1:]:
        assert l.split(",")[4] == "1"


def test_selmer_scan_rows():
    code, out, _ = run_cli("selmer-scan", "--max-p", "2000")
    lines = out.strip().splitlines()
    assert lines[0] == "p,qualified,spin,predicted_dim,failure_reason"
    for l in lines[1:]:
        p, q, s, d, reason = l.split(",")
        assert q == "1"
        assert (d == "3") == (s == "1")
