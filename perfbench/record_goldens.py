"""Record the golden CLI reports that the ``cli`` workload compares against.

Run from the repository root, at the commit whose output is the reference:

    PYTHONPATH=src python3 perfbench/record_goldens.py

The goldens are the reports of the commit the benchmark was defined at.
Re-recording them at a later commit would hide a change in a report, so a
later change that alters a report on purpose says so and re-records them in
its own commit.
"""

import json
import sys

from workloads import CLI_COMMANDS, GOLDENS, command_id, run_cli


def main() -> int:
    goldens = {}
    for argv, _ in CLI_COMMANDS:
        code, out = run_cli(argv)
        if code != 0:
            print(f"{command_id(argv)!r} exited {code}", file=sys.stderr)
            return 1
        goldens[command_id(argv)] = out
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} reports to {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
