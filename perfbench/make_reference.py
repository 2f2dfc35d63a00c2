"""Rebuild ``reference.json``: run every job the workloads can draw, once.

    python3 perfbench/make_reference.py [workload ...]

Run it from the root of a checkout on a commit whose outputs are known to be
right.  Naming workloads rebuilds only their entries and keeps the others.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import jobs
import run


def main(argv) -> int:
    workloads = argv or list(jobs.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    entries = checks.load_reference(run.REFERENCE) if run.REFERENCE.is_file() else {}
    for workload in workloads:
        start = time.perf_counter()
        run.write_inputs(workload)
        cli = run.set_up(workload)
        pool = jobs.pool(workload)
        for job in pool:
            result = run.run_job(cli, job)
            if result.exit_code is None:
                print(f"{job.key}: raised\n{result.error}", file=sys.stderr)
                return 1
            entries[job.key] = checks.reference_entry(
                job.verb, result.exit_code, result.stdout
            )
        print(f"{workload}: {len(pool)} jobs in {time.perf_counter() - start:.1f} s")
    packed = checks.pack_reference(dict(sorted(entries.items())))
    run.REFERENCE.write_text(json.dumps(packed, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
