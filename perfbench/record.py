"""Record the stdout digest and exit code of every catalogue request.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/digests.json.  Run it only at a commit whose outputs are
known to be right: every later run checks the program against this file.
"""

from __future__ import annotations

import contextlib
import io
import json

import workloads


def main() -> None:
    from hilbtaut.cli import dispatch

    digests = {}
    for size in ("full", "smoke"):
        for pool in workloads.catalogue(size).values():
            for request in pool:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = dispatch(list(request.argv))
                digests[request.key] = workloads.output_digest(code, buf.getvalue())
    workloads.DIGEST_FILE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {workloads.DIGEST_FILE.name}")


if __name__ == "__main__":
    main()
