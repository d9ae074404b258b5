"""Run one idealspin CLI command in a fresh process and print its peak
resident set size.

  python3 perfbench/rss_child.py spins --field shanks:1 --max-norm 2000

The last stdout line is {"rc": <exit code>, "maxrss_kb": <peak RSS>}; the
peak covers this process and any worker it waited for.
"""

import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from idealspin import cli  # noqa: E402


def main() -> int:
    rc = cli.run(sys.argv[1:], io.StringIO(), io.StringIO())
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"rc": rc, "maxrss_kb": peak}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
