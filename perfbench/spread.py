"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 0-9 [--workloads a,b] [--out FILE]
                                [--against FILE]

Runs ``run.py --trace 0`` once per workload and seed, with BENCHMARK.json's
run_seconds, and reports for every end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median.  A spread above the
metric's bound is marked FAIL, one above a third of it "wide".
``--out`` writes the summary with the environment stamp (the committed
perfbench/baseline.json is such a file); ``--against`` compares the new
medians with an earlier summary, marks FAIL a median worse by more than
the bound, and reports whether the exact counts and P/R@10 of the seeds
both summaries ran are identical.  Exit code 1 when any run fails or any
FAIL is marked; 3, before any run, when ``--against`` names a summary
whose environment stamp differs from this machine's.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# per-seed values that must repeat exactly for the same code
EXACT = ("walks.count", "pairs.total", "pairs.distinct", "confidence.nnz")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    res = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout.strip() else None
    if proc.returncode != 0 or res is None or not res["correct"]:
        return None
    full = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    res["result"] = json.loads(full.read_text(encoding="utf-8"))
    return res


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--out", default=None)
    p.add_argument("--against", default=None)
    args = p.parse_args(argv)
    import env

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    before = json.loads(Path(args.against).read_text()) if args.against else None
    stamp = env.stamp()
    if before:
        diff = env.differences(before["env"], stamp)
        for k in diff:
            print(f"not comparable: env {k}: {before['env'].get(k)} != {stamp.get(k)}")
        if diff:
            return 3
    summary = {"env": stamp, "run_seconds": bench["run_seconds"], "seeds": seeds,
               "workloads": {}}
    bad = False
    for name in names:
        runs = []
        for seed in seeds:
            res = run_one(name, seed, bench["run_seconds"])
            print(f"{name} seed {seed}: " + ("FAILED" if res is None else " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())), flush=True)
            bad |= res is None
            if res is not None:
                runs.append(res)
        if len(runs) < 2:
            continue
        out = summary["workloads"][name] = {}
        out["exact"] = {str(r["result"]["seed"]): {
            "p_at_10": r["result"]["p_at_10"], "r_at_10": r["result"]["r_at_10"],
            **{k: r["result"]["counts"][k] for k in EXACT}} for r in runs}
        for m in bench["end_to_end"]:
            s = out[m["name"]] = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            mark = ("FAIL" if s["spread"] > m["bound"] else
                    "wide" if s["spread"] > m["bound"] / 3 else "ok")
            line = (f"  {name:<13} {m['name']:<12} median {s['median']:<12.6g} "
                    f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                    f"(bound {m['bound']}) {mark}")
            if before and m["name"] in before["workloads"].get(name, {}):
                old = before["workloads"][name][m["name"]]["median"]
                worse = (s["median"] - old) / old if m["better"] == "lower" else \
                    (old - s["median"]) / old
                mark2 = "FAIL" if worse > m["bound"] else "ok"
                line += f"; vs earlier median {old:.6g}: worse by {worse:+.4f} {mark2}"
                bad |= mark2 == "FAIL"
            bad |= mark == "FAIL"
            print(line, flush=True)
        if before and name in before["workloads"]:
            same = {k: v for k, v in out["exact"].items()
                    if k in before["workloads"][name]["exact"]}
            moved = [k for k, v in same.items() if v != before["workloads"][name]["exact"][k]]
            print(f"  {name:<13} exact counts and P/R@10 of {len(same)} shared seeds: "
                  + (f"differ for seeds {moved}" if moved else "identical"), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
