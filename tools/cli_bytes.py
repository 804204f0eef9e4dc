"""Compare the CLI's bytes between two checkouts of this repository.

    python3 tools/cli_bytes.py PARENT CHANGE

Runs each command below with `python -m heisenmag.cli`, importing heisenmag
from PARENT/src and then from CHANGE/src, and prints every command whose
stdout, stderr or exit code differs: every subcommand, with the README's
examples, `classify-ic` and `sample` on the seven branch representatives,
and `sample` on two data with x0 < 0.  `verify --suite all --json` is
compared with each record's `elapsed` dropped.  Exits 1 on any difference.
"""

import json
import os
import subprocess
import sys

BRANCHES = ("NEG", "POS_LOW", "POS_HIGH", "ZERO_MU_POS", "ZERO_MU_NEG_RIGHT",
            "ZERO_MU_NEG_LEFT", "ZERO_CUSP")
RHOS = (None, "1e-3", "0.1", "5", "100", "1000")
# (x0, y0, z0, rho) of acceptance.representative_data(branch), BRANCHES' order
REPRESENTATIVES = (("0", "0", "-1", "1"), ("0", "-2.75", "-2", "1"),
                   ("0", "-3.8898815748423097", "-1", "1"), ("0", "-2.8898815748423097", "-1", "1"),
                   ("0", "7", "1", "4"), ("0", "2", "-4.75", "1"), ("0", "2", "2", "1"))
NEGATIVE_X0 = (("-1", "0.5", "0.2", "1"), ("-0.2", "-2.75", "-2", "1"))  # NEG, POS_LOW
README = ("classify --alpha 4 --beta 3 --rho 2", "classify-ic --x0 0 --y0 0 --z0 -1 --rho 1",
          "sample --x0 1 --y0 0.5 --z0 0.2 --rho 1 --t-max 20 --dt 0.01",
          "periodic --rho 1 --energy 1 --e 0.5", "lattice --k 1 --lambda 1,0.5 --energy 1",
          "lattice-obstruction --basis 0.8660254037844387,0.5,-0.5,0.8660254037844387")


def _data(datum) -> list[str]:
    return [v for flag, value in zip(("--x0", "--y0", "--z0", "--rho"), datum)
            for v in (flag, value)]


def commands() -> list[list[str]]:
    cmds = [line.split() for line in README] + [["verify", "--suite", "all", "--json"]]
    cmds += [["classify-ic", *_data(d)] for d in REPRESENTATIVES]
    cmds += [["sample", *_data(d), "--t-max", "20", "--dt", "0.05"]
             for d in REPRESENTATIVES + NEGATIVE_X0]
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
