"""The library's side of the benchmark's contract.

perfbench/tracer.py wraps library functions from the outside and records
len() of what lattice.short_vectors and units.domain_elements return, so
those layers must return sized results, and the traced layers must still
be the ones the work goes through.  The tracer is imported from its file,
read-only, and tiny versions of two benchmark inputs run under it.
"""

import importlib.util
import io
from pathlib import Path

import pytest

from idealspin import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(argv) -> str:
    out = io.StringIO()
    assert cli.run(list(argv), out, io.StringIO()) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [
    ("spins", "--field", "shanks:1", "--max-norm", "400", "--workers", "1"),
    ("quad-spins", "--d", "5", "--max-norm", "3000", "--workers", "1"),
])
def test_traced_run_keeps_output_and_sees_the_layers(tracer, argv):
    plain = _stdout(argv)
    tr = tracer.Tracer()
    with tr.installed():
        assert _stdout(argv) == plain
    metrics = tr.layer_metrics()
    assert metrics["ideals.split_prime.calls"] > 0
    if argv[0] == "quad-spins":  # spins reads its generators from the census
        assert metrics["lattice.short_vectors.vectors"] > 0
