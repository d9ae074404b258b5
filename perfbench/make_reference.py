"""Freeze the reference outputs that the benchmark compares against.

  python3 perfbench/make_reference.py

Runs every (workload, seed) input the benchmark can produce once and writes
its CSV output, gzipped, to perfbench/reference/<key>.csv.gz.  Run it only on
a commit whose output is known to be right: a later speed-up counts only if
its output stays byte-identical to these files.  An output that fails its
own self-checks is refused.
"""

import gzip
import io
import sys

import run
import workloads


def main() -> int:
    cli = run.import_cli()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for case in workloads.all_reference_cases():
        out, err = io.StringIO(), io.StringIO()
        rc = cli.run(list(case.argv), out, err)
        text = out.getvalue()
        verdict = workloads.check_output(case, text, None)
        if rc != 0 or verdict.failed:
            sys.stderr.write(f"{case.key}: exit {rc}, {verdict.failed} rows fail "
                             f"their self-check; {err.getvalue()}\n")
            return 1
        workloads.reference_path(case).write_bytes(gzip.compress(text.encode(), mtime=0))
        print(f"{case.key}: {verdict.attempted} rows, "
              f"{workloads.work_units(case, text)} work units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
