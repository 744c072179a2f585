"""Record the full-precision bounds that traced runs are checked against.

Run from the root of a checkout, at the commit whose values are the reference:

    python3 perfbench/record_reference.py

It runs one traced pass of the ``figure`` and ``bounds_wide`` workloads and
writes every value returned by the lower-bound, converse and lattice-oracle
layers to ``perfbench/reference.json``, keyed by workload and call.
"""

import json
import os
import shutil
import sys

from run import REFERENCE_PATH, RESULTS, WORKLOADS, captured_values, load_covertcap, run_call
from spans import Tracer


def main() -> int:
    cli, lb_module = load_covertcap()
    reference = {}
    for name in ("figure", "bounds_wide"):
        work = os.path.join(RESULTS, f"record-{name}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        entries = {}
        with Tracer(cli, lb_module) as tracer:
            for call in WORKLOADS[name](work, 0, False, None):
                tracer.results.clear()
                _, flags, _, note = run_call(cli, call, tracer)
                if not all(flags):
                    print(f"error: {note}", file=sys.stderr)
                    return 1
                entries[call.key] = captured_values(tracer.results)
        shutil.rmtree(work)
        reference[name] = dict(sorted(entries.items()))
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
