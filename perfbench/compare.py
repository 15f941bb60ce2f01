"""Compare two benchmark result files from .perfbench/results/.

    python3 perfbench/compare.py OLD.json NEW.json

Two results are comparable only when their environment stamps agree on
core count, machine, Python, numpy, scipy, OpenBLAS and BLAS threads.
For comparable results of the same workload and seed it checks that the
exact counts repeat and prints each metric's ratio NEW / OLD.  Exit code
0: comparable and the counts agree; 1: counts differ; 3: not comparable.
"""

import json
import sys

from env import differences


def compare(old, new):
    diff = differences(old["env"], new["env"])
    if diff:
        for k in diff:
            print(f"not comparable: env {k}: {old['env'].get(k)} != {new['env'].get(k)}")
        return 3
    rc = 0
    if (old["workload"], old["seed"]) == (new["workload"], new["seed"]):
        for k in old["counts"]:
            if old["counts"][k] != new["counts"].get(k):
                print(f"counts differ: {k}: {old['counts'][k]} != {new['counts'].get(k)}")
                rc = 1
        if not rc:
            print(f"comparable; exact counts of {new['workload']} seed {new['seed']} identical")
    else:
        print("comparable; different workload or seed, so counts are not compared")
    for name, m in new["metrics"].items():
        if name not in old["metrics"]:
            continue
        a, b = old["metrics"][name]["value"], m["value"]
        ratio = f"{b / a:.4f}" if a else "n/a"
        print(f"{name:<28} {a:>14.6g} -> {b:<14.6g} {m['unit']:<9} x{ratio}")
    return rc


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    return compare(old, new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
