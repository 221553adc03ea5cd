"""Record the reference values the output gate compares against.

    python3 perfbench/record.py [--workload NAME ...]

Runs one traced pass per workload and input variant, and writes the named
values of every report plus the work facts (solve iterations, series
length, assembled columns) to references.json.  Re-record only when a
change is meant to alter results; say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import layers
import run
from gate import REFERENCES, load_references, named_values, parse_report
from workloads import N_VARIANTS, WORKLOADS, write_config


def record_variant(cli, workload, variant, out_dir):
    cfg_path = write_config(out_dir, workload, variant)
    loop = run.Loop(cli, workload, cfg_path, out_dir, None, layers.Tracer())
    loop.run_pass(0, traced=True)
    if loop.problems:
        raise SystemExit(f"{workload} variant {variant}: {loop.problems}")
    values = {}
    for cmd in loop.commands:
        got = named_values(parse_report(out_dir / cmd / "report.txt")[0])
        if got:
            values[cmd] = got
    return {"values": values, "work": run.traced_pass_facts(loop.tracer, 0)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    run.pin_blas_threads()
    cli = run.import_cli()
    refs = load_references()
    out_dir = run.OUT / f"record-{os.getpid()}"
    try:
        for workload in args.workload or sorted(WORKLOADS):
            refs[workload] = {}
            for variant in range(N_VARIANTS):
                refs[workload][str(variant)] = record_variant(
                    cli, workload, variant, out_dir)
                print(workload, variant, refs[workload][str(variant)], flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
