"""Run ``python -m repro.service`` with the layer wrappers installed.

    PYTHONPATH=src python3 perfbench/serve_traced.py --trace-out PATH [service args]

Installs :class:`spans.Recorder` before the server starts serving, tags
each job thread's spans with its job id, and on shutdown (SIGINT)
writes the span aggregates to ``PATH.json`` and the raw spans to
``PATH.npz``.
"""

from __future__ import annotations

import argparse
import json
import sys

from spans import Recorder, import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", required=True)
    args, service_args = parser.parse_known_args(argv)

    import_program()
    from repro.service import orchestrator
    from repro.service.__main__ import main as serve

    recorder = Recorder()
    recorder.install()
    run_job = orchestrator.JobOrchestrator.__dict__.get("_run")
    if run_job is None:
        recorder.missing.append("repro.service.orchestrator.JobOrchestrator._run")
    else:
        def tagged(self, job, request):
            recorder.set_group(job.id)
            try:
                return run_job(self, job, request)
            finally:
                recorder.set_group(None)

        orchestrator.JobOrchestrator._run = tagged
    try:
        return serve(service_args)
    finally:
        recorder.uninstall()
        totals = recorder.totals()
        totals["root_s"] = {str(k): v for k, v in totals["root_s"].items() if k is not None}
        totals["installed"] = sorted(recorder.installed)
        totals["missing"] = recorder.missing
        totals["span_count"] = recorder.span_count()
        with open(f"{args.trace_out}.json", "w") as fh:
            json.dump(totals, fh)
        recorder.write(f"{args.trace_out}.npz")


if __name__ == "__main__":
    sys.exit(main())
