"""Compare the CLI's bytes between two checkouts of this repository.

    python3 tools/cli_bytes.py PARENT CHANGE

Runs each command below with `python -m heisenmag.cli`, importing heisenmag
from PARENT/src and then from CHANGE/src, and prints every command whose
stdout, stderr or exit code differs: every subcommand, with the README's
examples, `classify-ic` and `sample` on the seven branch representatives,
`sample` on two data with x0 < 0, on 30,001 rows, in JSON and past the
float range, `periodic` on a (rho, energy, e) grid, `lattice` on four more
lattice elements, `lattice-obstruction` on four bases of Z^2, and the argv
forms of PARSING: help, usage errors (a --seed that no suite reads among
them), an abbreviated option and negative values.  `verify --suite all --json` is compared with each
record's `elapsed` dropped.  Where both outputs are JSON, each differing
key follows with its relative gap, the largest first (a record of a list
goes by its "name").  Exits 1 on any difference.
"""

import json
import math
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
PERIODIC = [("--rho", rho, "--energy", energy, "--e", e) for rho in ("0", "0.3", "1", "3")
            for energy in ("0.05", "1", "20") for e in ("-1", "0", "0.5")]
# (lambda, energy, rho) beside the README's lattice run, lambda in Gamma_1
LATTICE = (("-1,0", "0.3", "0.5"), ("2,1.5", "5", "2"), ("-2,-2", "1", "0"),
           ("1,-0.5", "2.5", "1.5"))
# how main parses: no argv, the root's and a subcommand's help, an unknown
# subcommand, a missing and an unrecognized option, an abbreviated option and
# negative values as --flag v and --flag=v
PARSING = ("", "--help", "sample --help", "nosuch --x0 1", "sample --x0 1",
           "periodic --rho 1 --energy 1 --bogus 2", "periodic --rho 1 --ener 1",
           "classify-ic --x0 -1e-3 --y0 -0.5 --z0 -1 --rho 1",
           "classify-ic --x0=-1e-3 --y0=-0.5 --z0=-1 --rho=1",
           "lattice --k 1 --energy 1 --lambda=-1,0.5",
           "verify --suite elliptic --seed 7", "verify --case NEG --seed 5")
# columns (1, 0) and (0, 1), (64, 1), (65, 1); and (2, 1), (131, 65): each spans Z^2
Z2_BASES = ("1,0,0,1", "1,64,0,1", "1,65,0,1", "2,131,1,65")


def _data(datum) -> list[str]:
    return [v for flag, value in zip(("--x0", "--y0", "--z0", "--rho"), datum)
            for v in (flag, value)]


def commands() -> list[list[str]]:
    cmds = [line.split() for line in README] + [["verify", "--suite", "all", "--json"]]
    cmds += [["classify-ic", *_data(d)] for d in REPRESENTATIVES]
    cmds += [["sample", *_data(d), "--t-max", "20", "--dt", "0.05"]
             for d in REPRESENTATIVES + NEGATIVE_X0]
    # the README's datum on 30,001 rows, several CSV chunks; and the JSON form
    cmds += [["sample", *_data(("1", "0.5", "0.2", "1")), "--t-max", "300", "--dt", "0.01"],
             ["sample", *_data(REPRESENTATIVES[0]), "--t-max", "2", "--dt", "0.1",
              "--format", "json"]]
    # y grows past 1e308 at the last row
    cmds += [["sample", *_data(("-1.5", "-1.5", "-1.5", "2e16")), "--t-max", "1e304",
              "--dt", "5e303"]]
    cmds += [line.split() for line in PARSING]
    cmds += [["periodic", *flags] for flags in PERIODIC]
    cmds += [["lattice", "--k", "1", "--lambda", lam, "--energy", energy, "--rho", rho]
             for lam, energy, rho in LATTICE]
    cmds += [["lattice-obstruction", "--basis", basis] for basis in Z2_BASES]
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


def _leaves(obj, path: str = "") -> dict:
    """{dotted path: value} of every scalar in a JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = ((v.get("name", i) if isinstance(v, dict) else i, v) for i, v in enumerate(obj))
    else:
        return {path: obj}
    return {k: v for key, value in items for k, v in _leaves(value, f"{path}.{key}").items()}


def _gaps(old: str, new: str) -> list[tuple[float, str]]:
    """(relative gap, key) of each differing key, the largest first; inf
    where a value is not a number or a key is missing; [] unless both are JSON."""
    try:
        a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    except ValueError:
        return []
    gaps = []
    for key in sorted(a.keys() | b.keys()):
        u, v = a.get(key), b.get(key)
        if u == v:
            continue
        numbers = all(type(w) in (int, float) for w in (u, v))
        gaps.append((abs(u - v) / max(abs(u), abs(v)) if numbers else math.inf, key.lstrip(".")))
    return sorted(gaps, reverse=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    parent, change = argv
    cmds, differ = commands(), 0
    for args in cmds:
        old, new = run(parent, args), run(change, args)
        if old != new:
            differ += 1
            print("differs:", " ".join(args))
            for gap, key in _gaps(old[0], new[0]):
                print(f"    {key}: relative gap {gap:.2g}")
    print(f"{differ} of {len(cmds)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
