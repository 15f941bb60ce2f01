"""The three benchmark workloads, each driving walkrec through its public API or CLI.

A workload is built from its seed and a private work directory.
``setup`` makes the inputs (untimed by run_s; timed as setup_s),
``prepare`` resets per-iteration state outside the timed region, and
``body`` is one timed iteration.  After each iteration the benchmark
reads ``quality`` (P@10, R@10 over the pmi cells), ``fingerprint`` (the
bytes that must repeat across iterations) and ``train`` (the training
pairs the ranked lists must not contain).
"""

import contextlib
import io
import json
import shutil

import yaml

import walkrec.cli
import walkrec.config
import walkrec.datasets
import walkrec.evaluation
import walkrec.synthetic

import scaled

RATIOS = (0.8, 0.1, 0.1)
STAGES = ("ingest", "split", "walk", "pairs", "confidence", "train", "recommend",
          "evaluate")


def pipeline_config(seed, work_dir, data, grid_seeds):
    """A full CLI config at the paper defaults (demos/config.example.yaml's values)."""
    return {
        "data": data,
        "split": {"ratios": list(RATIOS), "seed": seed},
        "sparsify": {"keep_fraction": 1.0, "seed": seed},
        "walk": {"beta": 10, "gamma": 80, "seed": seed},
        "pairs": {"sigma": 3},
        "confidence": {"measure": "pmi", "shift_k": 1.0},
        "als": {"factors": 100, "lambda": 0.25, "sweeps": 15, "seed": seed,
                "init_scale": 0.01},
        "recommend": {"k_items": 10, "mask_train": True},
        "evaluate": {"cutoffs": [5, 10]},
        "experiment": {"measures": ["pmi", "co", "mf", "itempop"], "sigmas": [3],
                       "keep_fractions": [1.0], "seeds": list(grid_seeds)},
        "work_dir": str(work_dir),
        "workers": 1,
    }


def _cli(argv):
    "Run walkrec's CLI in process with its progress lines swallowed."
    with contextlib.redirect_stdout(io.StringIO()):
        rc = walkrec.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"walkrec {' '.join(argv)} exited {rc}")


def _pmi_quality(report_json):
    "Mean P@10 and R@10 over the pmi rows of a report.json / metrics.json."
    with open(report_json, encoding="utf-8") as f:
        rows = [r for r in json.load(f)["rows"] if r["config"]["measure"] == "pmi"]
    return (sum(r["precision"]["10"] for r in rows) / len(rows),
            sum(r["recall"]["10"] for r in rows) / len(rows))


def _last_split_train(calls):
    for name, _, _, out in reversed(calls):
        if name == "datasets.split":
            return out.train
    raise RuntimeError("the iteration made no datasets.split call")


class CellScaled:
    """One PMI cell at the paper defaults on a 4,000 x 4,000 generated set."""

    name = "cell-scaled"

    def __init__(self, seed, work, rec):
        self.seed, self.work, self.rec = seed, work, rec

    def setup(self):
        with self.rec.span("scaled.generate"):
            pairs = scaled.generate_pairs(self.seed)
        self.ds = walkrec.datasets.split(pairs, RATIOS, self.seed)

    def prepare(self):
        self.report = None

    def body(self):
        st = walkrec.evaluation.PipelineSettings(measure="pmi", seed=self.seed)
        self.report = walkrec.evaluation.run_cell(self.ds, st)

    def quality(self):
        return self.report.precision[10], self.report.recall[10]

    def fingerprint(self):
        r = self.report
        return repr((r.precision, r.recall, r.f1)).encode()

    def train(self, calls):
        return self.ds.train

    def file_bytes(self):
        return 0


class GridDefault:
    """The 12-cell example grid, run by ``walkrec experiment`` on the bundled dataset."""

    name = "grid-default"

    def __init__(self, seed, work, rec):
        self.seed, self.work, self.rec = seed, work, rec
        self.out = work / "out"
        self.config = work / "grid.yaml"

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        data = {"synthetic": {"users": 500, "items": 500, "groups": 10, "bulk_degree": 4,
                              "heavy_degree": 12, "heavy_fraction": 0.125, "p_in": 0.5,
                              "p_out": 0.005, "seed": self.seed},
                "min_count": 0}
        cfg = pipeline_config(self.seed, self.out, data,
                              (self.seed, self.seed + 1, self.seed + 2))
        self.config.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
        walkrec.cli.load_config(self.config)  # fail before timing on a bad config

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def body(self):
        _cli(["-c", str(self.config), "experiment"])

    def quality(self):
        return _pmi_quality(self.out / "report.json")

    def fingerprint(self):
        return (self.out / "report.tsv").read_bytes()

    def train(self, calls):
        return _last_split_train(calls)

    def file_bytes(self):
        return 0


class StageChain:
    """The eight file-wired CLI stages, ingest to evaluate, with --workers 2."""

    name = "stage-chain"

    def __init__(self, seed, work, rec):
        self.seed, self.work, self.rec = seed, work, rec
        self.out = work / "out"
        self.config = work / "chain.yaml"

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        pairs = walkrec.synthetic.generate_synthetic(seed=self.seed)
        log = self.work / "interactions.csv"
        log.write_text("".join(f"{u},{i}\n" for u, i in sorted(pairs)), encoding="utf-8")
        data = {"interactions": str(log), "delimiter": ",", "user_col": 0, "item_col": 1,
                "header": False, "min_count": 0}
        cfg = pipeline_config(self.seed, self.out, data, (self.seed,))
        self.config.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
        walkrec.cli.load_config(self.config)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def body(self):
        for stage in STAGES:
            _cli(["-c", str(self.config), "--workers", "2", stage])

    def quality(self):
        return _pmi_quality(self.out / "metrics.json")

    def fingerprint(self):
        return (self.out / "metrics.tsv").read_bytes()

    def train(self, calls):
        return _last_split_train(calls)

    def file_bytes(self):
        return (self.out / "walks.txt").stat().st_size


WORKLOADS = {w.name: w for w in (CellScaled, GridDefault, StageChain)}
