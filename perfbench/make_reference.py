"""Write reference.json: the expected ``analyze`` output of every pool input.

    python3 perfbench/make_reference.py      # from the root of a checkout

Maps sha256(code text)[:32] to sha256(stdout)[:32], per analyze workload.
It was run once, on the commit that defined the benchmark; the digests are
the byte-identical-output bar for every later commit, so do not regenerate
them to make a run pass.  Takes about a minute on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import worker
import workloads


def main() -> int:
    cli = worker.import_cli(os.getcwd())
    doc: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = os.path.join(tmp, "code.txt")
        for name in workloads.ANALYZE_STRATA:
            table = doc[name] = {}
            for item in workloads.pool(name) + workloads.warmup_items(name):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(item.code_text)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(["analyze", path])
                text = out.getvalue()
                if rc != 0 or not text.endswith("all cross-checks passed\n"):
                    print(f"{name}: analyze failed (exit {rc}) on\n"
                          f"{item.code_text}", file=sys.stderr)
                    return 1
                table[worker.digest(item.code_text)] = worker.digest(text)
            print(f"{name}: {len(table)} inputs", file=sys.stderr)
    with open(worker.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
