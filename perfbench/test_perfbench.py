"""Smoke tests of the benchmark itself, at tiny sizes.

  python3 -m pytest -q perfbench
"""

import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

TINY = {
    "cubic-scan": {"max_norm": 400},
    "cubic-census": {"max_norm": 150, "max_modulus_norm": 7},
    "quad-involution": {"max_norm": 3000},
}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def output(cli, case) -> str:
    out = io.StringIO()
    assert cli.run(list(case.argv), out, io.StringIO()) == 0
    return out.getvalue()


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
def test_tracing_changes_no_output_and_counts_repeat(cli, workload, seed):
    case = workloads.make_case(workload, seed, **TINY[workload]).with_workers(1)
    plain = output(cli, case)
    assert workloads.check_output(case, plain, None).failed == 0
    runs = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr.installed():
            assert output(cli, case) == plain
        runs.append(tr.layer_metrics())
    assert counts(runs[0]) == counts(runs[1])
    assert sum(v for k, v in runs[0].items() if k.endswith(".calls")) > 0


def test_wrappers_are_restored(cli):
    lattice = sys.modules["idealspin.lattice"]
    ideals = sys.modules["idealspin.ideals"]
    spin = sys.modules["idealspin.spin"]
    fields = sys.modules["idealspin.fields"]
    before = (lattice.lll_reduce, ideals.lll_reduce, spin.spin_record,
              fields.FieldContext.__dict__["sign_vector"])
    tr = tracer.Tracer()
    with tr.installed():
        assert ideals.lll_reduce is not before[1]
        assert spin.spin_record is not before[2]
        assert fields.FieldContext.__dict__["sign_vector"] is not before[3]
    after = (lattice.lll_reduce, ideals.lll_reduce, spin.spin_record,
             fields.FieldContext.__dict__["sign_vector"])
    assert after == before


def test_spin_layer_is_traced(cli):
    """idealspin.spin is shadowed by the function spin; its spans must
    still be recorded."""
    case = workloads.make_case("cubic-scan", 0, max_norm=100)
    tr = tracer.Tracer()
    with tr.installed():
        output(cli, case)
    assert tr.layer_metrics()["spin.spin_record.calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_emitted_metrics_are_declared(cli, workload):
    declared = run.declared_metrics()
    case = workloads.make_case(workload, 0, **TINY[workload])
    tally = run.Tally(output(cli, case))
    metrics, _, ok = run.end_to_end(cli, case, tally, 0)
    assert ok and set(metrics) == set(declared["end_to_end"])
    assert all(v > 0 for v in metrics.values())
    metrics, _, ok = run.per_layer(cli, case, tally, 0)
    assert ok and set(metrics) == set(declared["per_layer"])
    assert tally.failed == 0 and tally.identical


def test_every_seed_has_a_reference():
    for seed in range(12):
        for workload in workloads.WORKLOADS:
            case = workloads.make_case(workload, seed)
            text = workloads.load_reference(case)
            assert text is not None, case.key
    for case in workloads.all_reference_cases():
        text = workloads.load_reference(case)
        verdict = workloads.check_output(case, text, text)
        assert verdict.failed == 0 and verdict.identical
        assert workloads.work_units(case, text) > 0


def test_check_output_counts_bad_rows():
    quad = workloads.make_case("quad-involution", 0)
    ref = "p,beta,spin_direct,spin_formula,agree\n11,7,1,1,1\n19,9,-1,-1,1\n"
    assert workloads.check_output(quad, ref, ref) == workloads.Verdict(2, 0, True)
    changed = ref.replace("19,9,-1,-1,1", "19,9,-1,1,0")
    assert workloads.check_output(quad, changed, ref) == workloads.Verdict(2, 1, False)
    assert workloads.check_output(quad, changed, None).failed == 1
    missing = "p,beta,spin_direct,spin_formula,agree\n11,7,1,1,1\n"
    assert workloads.check_output(quad, missing, ref) == workloads.Verdict(2, 1, False)
    swapped = "p,beta,spin_direct,spin_formula,agree\n19,9,-1,-1,1\n11,7,1,1,1\n"
    assert workloads.check_output(quad, swapped, ref) == workloads.Verdict(2, 0, False)
    census = workloads.make_case("cubic-census", 0)
    good = "X,ideal_norm,class,count,expected,residual\n9,2,0,1,1.500,-0.500\n9,2,1,2,1.500,0.500\n"
    assert workloads.check_output(census, good, None).failed == 0
    bad = good.replace(",2,1.500,0.500", ",3,1.500,1.500")
    assert workloads.check_output(census, bad, None).failed == 2


def test_fails_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "cubic-scan", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

