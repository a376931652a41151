"""Record the reference digest of every command the benchmark can run.

Run from the root of a checkout whenever the program's reports change on
purpose (reports for pinned inputs are meant to stay identical apart from
`timings`):

    python3 perfbench/record.py

Every command in `workloads.universe()` runs in process through
`fakeelliptic.cli.main`; each report must pass its semantic checks before
its digest is written to `expected_digests.json`.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    from fakeelliptic import cli

    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    digests, bad = {}, []
    try:
        runner = run.Runner(workdir, digests={})
        for cmd in workloads.universe():
            report = runner.run_inprocess(cmd, cli)
            problems = []
            if report is None:
                problems.append("command failed")
            else:
                checks.SEMANTIC[cmd.kind](cmd, report["results"], problems)
            if problems:
                bad.append(f"{cmd.key}: {'; '.join(problems)}")
            else:
                digests[cmd.key] = checks.digest(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {checks.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
