"""One delaycontrol CLI call in a fresh process.

Usage: python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the source tree, the config, the
argv and where to write the result.  The worker times its own set-up
(``import delaycontrol.cli`` plus config load) and the ``cli.main(argv)``
call, records peak RSS, and with tracing on also records spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    from delaycontrol import cli
    if not os.path.abspath(cli.__file__).startswith(job["src"] + os.sep):
        print(f"delaycontrol imported from {cli.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    cli.load_config(job["config"], [], None, job["threads"], job["out"])
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if job["argv"] is not None:
        result.update(call_cli(cli, job))
    import numpy
    result.update(numpy=numpy.__version__, python=sys.version.split()[0])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def call_cli(cli, job: dict) -> dict:
    rec = None
    warn_log = contextlib.nullcontext()
    if job["trace"]:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
        warn_log = spans.RidgeWarnings()
    with warn_log:
        start = time.perf_counter()
        rc = cli.main(job["argv"])
        wall_s = time.perf_counter() - start
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        rec.counts["bsde.ridge_escalations"] = warn_log.escalations
        result["layers"] = spans.layer_metrics(rec)
        with open(job["spans"], "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "thread"],
                       "spans": rec.spans}, fh)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
