"""CLI stages: composition against the experiment driver, config validation."""

import importlib
import importlib.util
import shutil
from pathlib import Path

import pytest
import yaml

import walkrec.cli
from walkrec.cli import STAGES, main
from walkrec.config import PipelineSettings, parse_config

CHAIN = ("ingest", "split", "walk", "pairs", "confidence", "train", "recommend", "evaluate")
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.parent / "workloads.py"

BASE = {
    "data": {
        "synthetic": {
            "users": 50, "items": 40, "groups": 5,
            "bulk_degree": 5, "heavy_degree": 9, "heavy_fraction": 0.1,
            "p_in": 0.4, "p_out": 0.01, "seed": 3,
        },
        "min_count": 0,
    },
    "split": {"ratios": [0.8, 0.1, 0.1], "seed": 5},
    "sparsify": {"keep_fraction": 0.6, "seed": 5},
    "walk": {"beta": 3, "gamma": 12, "seed": 5},
    "pairs": {"sigma": 3},
    "confidence": {"measure": "pmi", "shift_k": 1.0},
    "als": {"factors": 8, "lambda": 0.25, "sweeps": 4, "seed": 5, "init_scale": 0.01},
    "recommend": {"k_items": 5, "mask_train": True},
    "evaluate": {"cutoffs": [3, 5]},
    "experiment": {
        "measures": ["pmi"], "sigmas": [3], "keep_fractions": [0.6], "seeds": [5],
    },
    "workers": 1,
}


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = yaml.safe_load(yaml.safe_dump(BASE))  # deep copy
    cfg["work_dir"] = str(tmp_path / "work")
    for dotted, value in (overrides or {}).items():
        node = cfg
        *parents, last = dotted.split(".")
        for p in parents:
            node = node.setdefault(p, {})
        node[last] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def run(path, stage, *extra):
    return main(["-c", str(path), *extra, stage])


class TestStagewisePipeline:
    def test_stage_chain_matches_experiment_cell_byte_for_byte(self, tmp_path):
        cfg = write_config(tmp_path)
        for stage in CHAIN:
            assert run(cfg, stage) == 0, stage
        work = tmp_path / "work"
        metrics = (work / "metrics.tsv").read_bytes()

        assert run(cfg, "experiment") == 0
        report = (work / "report.tsv").read_bytes()
        assert metrics == report
        assert (work / "metrics.json").read_bytes() == (work / "report.json").read_bytes()

    def test_artifacts_exist(self, tmp_path):
        cfg = write_config(tmp_path)
        for stage in CHAIN:
            assert run(cfg, stage) == 0
        work = tmp_path / "work"
        for name in ("interactions.tsv", "walks.txt", "pair_stats.npz",
                     "confidence.npz", "model.npz", "recommendations.tsv",
                     "metrics.tsv", "metrics.json"):
            assert (work / name).exists(), name
        assert (work / "dataset" / "train.tsv").exists()


class TestStageTable:
    @pytest.fixture(scope="class")
    def complete(self, tmp_path_factory):
        "The work_dir of one complete run of the eight file-wired stages."
        root = tmp_path_factory.mktemp("complete")
        cfg = write_config(root)
        for stage in CHAIN:
            assert run(cfg, stage) == 0, stage
        return root / "work"

    def test_stages_are_the_subcommands_in_pipeline_order(self):
        assert list(STAGES) == [*CHAIN, "experiment"]
        assert "{" + ",".join(STAGES) + "}" in walkrec.cli.build_parser().format_usage()

    @pytest.mark.parametrize("stage", CHAIN)
    def test_stage_runs_from_what_it_reads_and_makes_what_it_writes(self, tmp_path, stage,
                                                                    complete):
        _, reads, writes = STAGES[stage]
        work = tmp_path / "work"
        work.mkdir()
        for name in reads:
            copy = shutil.copytree if (complete / name).is_dir() else shutil.copyfile
            copy(complete / name, work / name)
        assert run(write_config(tmp_path), stage) == 0
        assert sorted(p.name for p in work.iterdir()) == sorted(reads + writes)
        for name in writes:  # the same bytes as in the complete run
            assert _contents(work / name) == _contents(complete / name), name


def _contents(path):
    "A file's bytes, or a directory's {relative path: bytes}."
    if path.is_file():
        return path.read_bytes()
    return {p.relative_to(path): p.read_bytes() for p in path.rglob("*") if p.is_file()}


def _benchmark_targets():
    "perfbench/spans.py's TARGETS, loaded by path without importing perfbench."
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


class TestBenchmarkHooks:
    def test_every_rebound_name_resolves(self):
        missing = [(mod, attr) for mod, attr, _ in _benchmark_targets()
                   if not hasattr(importlib.import_module(mod), attr)]
        assert missing == []

    def test_main_runs_a_cmd_rebound_after_import(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(walkrec.cli, "cmd_walk", lambda *args: calls.append(args))
        cfg = write_config(tmp_path)
        assert run(cfg, "walk") == 0
        work = tmp_path / "work"
        assert [args[1:] for args in calls] == [(work / "dataset", work / "walks.txt")]

    def test_workload_configs_and_settings_construct(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(WORKLOADS.parent))  # workloads.py imports scaled
        spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        synthetic = {"synthetic": {"users": 500, "items": 500, "groups": 10,
                                   "bulk_degree": 4, "heavy_degree": 12,
                                   "heavy_fraction": 0.125, "p_in": 0.5, "p_out": 0.005,
                                   "seed": 0},
                     "min_count": 0}
        log = {"interactions": str(tmp_path / "interactions.csv"), "delimiter": ",",
               "user_col": 0, "item_col": 1, "header": False, "min_count": 0}
        for data in (synthetic, log):  # the grid-default and stage-chain data sections
            parse_config(workloads.pipeline_config(0, tmp_path, data, (0,)))
        PipelineSettings(measure="pmi", seed=0)


class TestExperiment:
    def test_smoke_on_bundled_synthetic(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(cfg, "experiment") == 0
        out = capsys.readouterr().out
        assert "experiment: 1 grid cells" in out
        assert (tmp_path / "work" / "report.tsv").exists()

    def test_byte_identical_reruns_any_worker_count(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(cfg, "experiment") == 0
        first = (tmp_path / "work" / "report.tsv").read_bytes()
        first_json = (tmp_path / "work" / "report.json").read_bytes()
        assert run(cfg, "experiment", "--workers", "4") == 0
        assert (tmp_path / "work" / "report.tsv").read_bytes() == first
        assert (tmp_path / "work" / "report.json").read_bytes() == first_json

    def test_seed_override_changes_report(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(cfg, "experiment") == 0
        first = (tmp_path / "work" / "report.tsv").read_bytes()
        assert run(cfg, "experiment", "--seed", "99") == 0
        assert (tmp_path / "work" / "report.tsv").read_bytes() != first


class TestConfigValidation:
    def test_zero_sweeps_rejected_naming_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"als.sweeps": 0})
        assert run(cfg, "train") == 2
        assert "als.sweeps" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"als.foo": 1})
        assert run(cfg, "train") == 2
        assert "als.foo" in capsys.readouterr().err

    def test_even_sigma_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"pairs.sigma": 2})
        assert run(cfg, "pairs") == 2
        assert "pairs.sigma" in capsys.readouterr().err

    def test_missing_data_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"data": {"min_count": 0}})
        assert run(cfg, "ingest") == 2
        assert "data.interactions" in capsys.readouterr().err

    def test_stage_failure_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        # walk before split: the dataset artifact is missing
        assert run(cfg, "walk") == 1
        assert "walkrec walk: error" in capsys.readouterr().err


class TestIngestFromFile:
    def test_csv_source(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("user,item,rating\na,x,5\na,y,3\nb,x,4\na,x,1\n")
        cfg = write_config(tmp_path, {
            "data": {
                "interactions": str(src),
                "header": True,
                "min_count": 0,
            },
        })
        assert run(cfg, "ingest") == 0
        lines = (tmp_path / "work" / "interactions.tsv").read_text().splitlines()
        assert lines == ["a\tx", "a\ty", "b\tx"]

    def test_min_count_filter_applies(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("a,x\na,y\nb,x\nb,y\nc,z\n")
        cfg = write_config(tmp_path, {
            "data": {"interactions": str(src), "min_count": 2},
        })
        assert run(cfg, "ingest") == 0
        lines = (tmp_path / "work" / "interactions.tsv").read_text().splitlines()
        # the a/b x/y block is degree-2 throughout; (c, z) cascades away
        assert lines == ["a\tx", "a\ty", "b\tx", "b\ty"]
