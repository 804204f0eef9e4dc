"""Compare the CLI's bytes between two checkouts of this repository.

    python3 tools/cli_bytes.py PARENT CHANGE

Runs each command below with `python -m heisenmag.cli`, importing heisenmag
from PARENT/src and then from CHANGE/src, and prints every command whose
stdout, stderr or exit code differs.  `verify --suite all --json` is
compared with each record's `elapsed` dropped.  Exits 1 on any difference.
"""

import json
import os
import subprocess
import sys

BRANCHES = ("NEG", "POS_LOW", "POS_HIGH", "ZERO_MU_POS", "ZERO_MU_NEG_RIGHT",
            "ZERO_MU_NEG_LEFT", "ZERO_CUSP")
RHOS = (None, "1e-3", "0.1", "5", "100", "1000")


def commands() -> list[list[str]]:
    cmds = [["verify", "--suite", "all", "--json"]]
    cmds += [["verify", "--suite", "periodicity", "--seed", str(s)] for s in range(40)]
    cmds += [["verify", "--case", b, *(["--rho", r] if r else [])] for b in BRANCHES for r in RHOS]
    return cmds


def run(checkout: str, args: list[str]) -> tuple[str, str, int]:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    done = subprocess.run([sys.executable, "-m", "heisenmag.cli", *args], env=env,
                          capture_output=True, text=True, check=False)
    out = done.stdout
    if "--json" in args and done.returncode in (0, 2):
        records = json.loads(out)
        for record in records:
            record.pop("elapsed", None)
        out = json.dumps(records, indent=2)
    return out, done.stderr, done.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    parent, change = argv
    cmds, differ = commands(), 0
    for args in cmds:
        if run(parent, args) != run(change, args):
            differ += 1
            print("differs:", " ".join(args))
    print(f"{differ} of {len(cmds)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
