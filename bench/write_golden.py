"""Record the canonical output of every fixture operation of the benchmark.

Run once from the root of a checkout whose answers are the reference:

    python3 bench/write_golden.py

It writes bench/golden_fixtures.json: for each "<command> <fixture>" the
exit code and the SHA-256 and length of the ``--json`` stdout.  Later
commits must reproduce these byte for byte, so the file is regenerated
only when a change of answers is intended and reviewed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import workloads
from checks import GOLDEN_FILE, digest


def main():
    cli = run.import_program()
    golden = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        ops = workloads.build_ops("algebra", run.ROOT, workdir, 0,
                                  run.usable_cores())
        for op in ops:
            if op.kind != "golden":
                continue
            _, code, stdout, stderr, error = run.call_cli(cli.main, op.argv)
            if error or "Traceback" in stderr:
                sys.exit("%s: %s" % (op.label, error or stderr))
            golden[op.expect["key"]] = {
                "exit": code, "sha256": digest(stdout), "bytes": len(stdout)}
    with open(GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d canonical outputs to %s"
          % (len(golden), os.path.relpath(GOLDEN_FILE, run.ROOT)))


if __name__ == "__main__":
    main()
