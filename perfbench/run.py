"""walkrec benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grid-default --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

It imports walkrec from ``src/`` and nowhere else, makes the workload's
inputs from --seed, repeats the timed body until --seconds have passed
(at least twice), checks the outputs of every iteration after the first
and the report of every one, and prints one JSON
object as its last line.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 iterations alternate untraced and traced, and the
metrics are per-layer self times and counts plus the tracing overhead.
A result file with the environment stamp and exact counts goes to
``.perfbench/results/`` and the spans of a traced run to
``.perfbench/spans/``.  The exit code is non-zero when a check fails.
See perfbench/README.md for what each metric means.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5  # before the timed passes, and as many again after them
MIN_ITERATIONS = 2


def _import_walkrec():
    """Import walkrec from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "walkrec" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'walkrec'} not found; run from a walkrec checkout")
    sys.path.insert(0, str(src))
    import walkrec

    if Path(walkrec.__file__).resolve().parent != (src / "walkrec").resolve():
        sys.exit(f"perfbench: imported walkrec from {walkrec.__file__}, not {src}")


def probe_setup(workload, seed):
    """Set-up times of SETUP_PROBES fresh processes that only import and set up.

    Each probe is a new interpreter that prints the monotonic clock when
    its set-up ends, so the time runs from process start, through imports,
    input generation or ingest, config load and split, to the point where
    the first timed call would be made; interpreter exit is not counted.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--setup-only"],
                              cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        times.append(float(proc.stdout.split()[-1]) - t)
    return times


def layer_metrics(spans, iteration, counts, file_bytes):
    """Per-layer self times and counts of one traced iteration."""
    from spans import TARGETS, self_times

    st = self_times(spans, iteration)
    cells = sum(1 for s in spans if s[5] == iteration and s[1] == "evaluation.cell")

    def rate(n, secs):
        return n / secs if secs > 0 else 0.0

    out = {f"{name}_s": st.get(name, 0.0) for _, _, name in TARGETS}
    total = sum(counts["pairs.total"])
    distinct_pmi = sum(counts["confidence.distinct"])
    sweeps = sum(counts["factorization.sweeps"])
    losses = counts["factorization.final_loss"]
    out.update({
        "graph.edges": sum(counts["graph.edges"]),
        "walks.count": sum(counts["walks.count"]),
        "walks.steps_per_s": rate(sum(counts["walks.steps"]), out["walks.generate_s"]),
        "walks.file_bytes": file_bytes,
        "pairs.total": total,
        "pairs.distinct": sum(counts["pairs.distinct"]),
        "pairs.pairs_per_s": rate(total, out["pairs.sample_s"]),
        "confidence.nnz": sum(counts["confidence.nnz"]),
        "confidence.keep_ratio": (sum(counts["confidence.nnz"]) / distinct_pmi
                                  if distinct_pmi else 0.0),
        "factorization.fits": len(counts["factorization.sweeps"]),
        "factorization.sweep_s": out["factorization.fit_s"] / sweeps if sweeps else 0.0,
        "factorization.final_loss": sum(losses) / len(losses) if losses else 0.0,
        "recommend.users_per_s": rate(sum(counts["recommend.users"]), out["recommend.topk_s"]),
        "evaluation.cells": cells,
    })
    return out


def run_workload(args, work):
    import env
    from checks import Checks, check_calls
    from spans import Recorder, self_times, span_records
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # probes on both sides of the timed passes, so a short slow spell of the
    # machine does not decide the median
    setup_times = [] if args.trace else probe_setup(args.workload, args.seed)

    rec = Recorder()
    rec.install(sys.modules)  # workloads imported every module the wrappers target
    try:
        wl = WORKLOADS[args.workload](args.seed, work, rec)
        rec.timed, rec.capture = bool(args.trace), False
        with rec.span("setup"):
            wl.setup()
        rec.timed = False

        ck = Checks()
        run_s = {False: [], True: []}
        rss_after = []  # ru_maxrss after each iteration, MiB
        per_iter_counts, fingerprints, quality, layers = [], [], None, []
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i < MIN_ITERATIONS or time.perf_counter() < deadline:
            traced = bool(args.trace) and i % 2 == 1
            wl.prepare()
            gc.collect()
            # The first pass keeps no outputs alive for the checks, so the peak
            # after it is the program's own; the later passes are checked.
            rec.iteration, rec.timed, rec.capture = i, traced, i > 0
            t = time.perf_counter()
            with rec.span("body"):
                wl.body()
            run_s[traced].append(time.perf_counter() - t)
            rec.timed = False
            rss_after.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

            if i > 0:
                calls = rec.drain()
                counts = check_calls(ck, calls, wl.train(calls), args.seed)
                del calls
                per_iter_counts.append(counts)
                ck.check(_exact(counts) == _exact(per_iter_counts[0]),
                         f"iteration {i}: exact counts differ from iteration 1")
            fingerprints.append(wl.fingerprint())
            q = wl.quality()
            if quality is None:
                quality = q
            ck.check(fingerprints[-1] == fingerprints[0],
                     f"iteration {i}: report bytes differ from iteration 0")
            ck.check(q == quality, f"iteration {i}: P@10/R@10 differ from iteration 0")
            if traced:
                layers.append(layer_metrics(rec.spans, i, counts, wl.file_bytes()))
            i += 1
    finally:
        rec.uninstall()
    if not args.trace:
        setup_times += probe_setup(args.workload, args.seed)
    # Set-up plus the first pass, before any check ran: later passes add the
    # allocator's leftovers from earlier passes and checks, which vary by run.
    peak_rss_mb = rss_after[0]

    if args.trace:
        overhead = statistics.median(run_s[True]) - statistics.median(run_s[False])
        values = {k: statistics.median(lay[k] for lay in layers) for k in layers[0]}
        # the in-process set-up runs once; its spans count toward their layers
        for name, secs in self_times(rec.spans, -1).items():
            if f"{name}_s" in values:
                values[f"{name}_s"] += secs
        values["trace.overhead_s"] = overhead
        values["evaluation.p_at_10"], values["evaluation.r_at_10"] = quality
        wanted = bench["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "run_s": statistics.median(run_s[False]),
                  "peak_rss_mb": peak_rss_mb}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    stamp = env.stamp()
    check_fail_frac = len(ck.failed) / ck.attempted
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": stamp, "iterations": i,
        "run_s_untraced": run_s[False], "run_s_traced": run_s[True],
        "setup_s_probes": setup_times, "peak_rss_mb": peak_rss_mb,
        "peak_rss_mb_after_iteration": rss_after,
        "counts": _exact(per_iter_counts[0]), "p_at_10": quality[0], "r_at_10": quality[1],
        "checks": {"attempted": ck.attempted, "failed": ck.failed,
                   "check_fail_frac": check_fail_frac},
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        spans_path = OUT / "spans" / f"{tag}.jsonl"
        with spans_path.open("w", encoding="utf-8") as f:
            for s in span_records(rec.spans):
                f.write(json.dumps(s) + "\n")

    _print_report(args, result, stamp, wanted, values, check_fail_frac, ck)
    if args.trace:
        print(f"  spans: {spans_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not ck.failed, "attempted": ck.attempted,
                      "failed": len(ck.failed), "metrics": metrics}))
    return 1 if ck.failed else 0


def _exact(counts):
    "The integer counts that must repeat exactly between runs of the same code."
    return {k: v for k, v in counts.items() if k != "factorization.final_loss"}


def _print_report(args, result, stamp, wanted, values, check_fail_frac, ck):
    print(f"{args.workload} seed={args.seed} iterations={result['iterations']} "
          f"trace={args.trace}")
    print("  env: " + " ".join(f"{k}={stamp[k]}" for k in ("nproc", "python", "numpy",
                                                           "scipy", "blas_threads")))
    print(f"  env: openblas={stamp['openblas']}")
    c = result["counts"]
    print("  counts: " + " ".join(f"{k}={c[k]}" for k in (
        "walks.count", "pairs.total", "pairs.distinct", "confidence.nnz")))
    for m in wanted:
        print(f"  {m['name']:<26} {values[m['name']]:>16.6g} {m['unit']}")
    if args.trace:
        print(f"  {'(traced run_s':<26} {statistics.median(result['run_s_traced']):>16.6g} s,"
              f" untraced {statistics.median(result['run_s_untraced']):.6g} s)")
    print(f"  {'p_at_10':<26} {result['p_at_10']:>16.6g} fraction (mean over pmi cells)")
    print(f"  {'r_at_10':<26} {result['r_at_10']:>16.6g} fraction")
    print(f"  {'check_fail_frac':<26} {check_fail_frac:>16.6g} fraction "
          f"({len(ck.failed)} of {ck.attempted} checks failed)")
    for what in ck.failed:
        print(f"  FAILED: {what}")


def run_all(args):
    """Run every workload in its own process and print their reports in turn."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        rc = rc or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return rc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cell-scaled", "grid-default", "stage-chain", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up the workload, then exit (setup_s probe)")
    args = p.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: {ROOT / 'BENCHMARK.json'} not found")
    _import_walkrec()
    if args.workload == "all":
        return run_all(args)

    work = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            from spans import Recorder
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.seed, work, Recorder()).setup()
            print(time.monotonic())
            return 0
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
