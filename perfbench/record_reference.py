"""Rewrite reference.json: the protocol workloads' answers on the reference input.

Run from the repository root:

    python3 perfbench/record_reference.py [--size bench tiny paper]

The benchmark compares every protocol op kind's ``test_mse`` on the
reference input (fixture seed 20, master seed 0) with this file to 1e-10
relative.  Re-record only when a change alters answers on purpose, and say
so where the change is described.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", nargs="+", choices=sorted(run.SIZES),
                        default=["bench", "tiny"])
    args = parser.parse_args()
    run.import_stabreg()
    answers = {}
    if run.REFERENCE_PATH.is_file():
        answers = json.loads(run.REFERENCE_PATH.read_text(encoding="utf-8"))
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
    try:
        for size in args.size:
            target = workdir / size
            target.mkdir()
            answers.update(run.reference_answers(run.SIZES[size], target))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE_PATH.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"wrote {len(answers)} entries to {run.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
