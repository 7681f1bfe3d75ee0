"""Write perfbench/golden.json: the sha256 of the canonical stdout and the
exit code of every `cli` invocation, and the sha256 of the in-process
run_selftest() transcript.

The benchmark counts any later difference as a failed op, because no
speed-up may change byte-identical output.  Re-record only for a change
that alters the output on purpose, and say so in CHANGES.md.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from abyss import serialize as ser  # noqa: E402
from abyss.selftest import run_selftest  # noqa: E402

import cliwl  # noqa: E402


def main():
    cli = {}
    for inv in cliwl.INVOCATIONS:
        code, out = cliwl.invoke(inv)
        cli[inv] = {"exit": code, "sha256": cliwl.digest(out)}
    doc = {"cli": cli,
           "selftest_sha256": hashlib.sha256(ser.dumps(run_selftest()).encode()).hexdigest()}
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
