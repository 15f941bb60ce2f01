"""Config parsing: every invalid value is rejected naming its dotted key."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from walkrec.cli import main
from walkrec.config import (ConfigError, DataSection, EvaluateSection, PipelineConfig,
                            RecommendSection, base_settings, config_dict, load_config,
                            override_seed, parse_config)
from walkrec.datasets import IngestFormat
from walkrec.evaluation import ExperimentGrid, PipelineSettings
from walkrec.factorization import AlsConfig
from walkrec.knobs import KnobError
from walkrec.synthetic import generate_synthetic
from walkrec.walks import WalkConfig

EXAMPLE = Path(__file__).resolve().parents[1] / "demos" / "config.example.yaml"

BASE = {
    "data": {
        "synthetic": {"users": 30, "items": 20, "groups": 4, "seed": 3},
        "min_count": 0,
    },
    "split": {"ratios": [0.8, 0.1, 0.1], "seed": 5},
    "sparsify": {"keep_fraction": 1.0, "seed": 5},
    "walk": {"beta": 2, "gamma": 6, "seed": 5},
    "pairs": {"sigma": 3},
    "confidence": {"measure": "pmi", "shift_k": 1.0},
    "als": {"factors": 4, "lambda": 0.25, "sweeps": 2, "seed": 5, "init_scale": 0.01},
    "recommend": {"k_items": 5, "mask_train": True},
    "evaluate": {"cutoffs": [3, 5]},
    "experiment": {"measures": ["pmi"], "sigmas": [3], "keep_fractions": [1.0],
                   "seeds": [5]},
    "workers": 1,
}

NAN = math.nan
INF = math.inf


def with_overrides(overrides):
    raw = yaml.safe_load(yaml.safe_dump(BASE))  # deep copy
    for dotted, value in overrides.items():
        node = raw
        *parents, last = dotted.split(".")
        for p in parents:
            node = node.setdefault(p, {})
        node[last] = value
    return raw


# (overrides, dotted key the error must name)
INVALID = [
    # top level
    ({"foo": 1}, "foo"),
    ({"workers": 0}, "workers"),
    ({"workers": True}, "workers"),
    ({"workers": "2"}, "workers"),
    ({"work_dir": ""}, "work_dir"),
    ({"work_dir": 3}, "work_dir"),
    # data
    ({"data": [1, 2]}, "data"),
    ({"data.foo": 1}, "data.foo"),
    ({"data.interactions": ""}, "data.interactions"),
    ({"data.delimiter": ""}, "data.delimiter"),
    ({"data.delimiter": ",,"}, "data.delimiter"),
    ({"data.delimiter": "\n"}, "data.delimiter"),
    ({"data.delimiter": "\r"}, "data.delimiter"),
    ({"data.user_col": -1}, "data.user_col"),
    ({"data.user_col": 1.5}, "data.user_col"),
    ({"data.item_col": -1}, "data.item_col"),
    ({"data.value_col": 2}, "data.value_col"),  # unknown: only user and item columns are read
    ({"data.header": "yes"}, "data.header"),
    ({"data.min_count": -1}, "data.min_count"),
    ({"data.min_count": False}, "data.min_count"),
    ({"data.interactions": "log.csv"}, "data.synthetic"),  # BASE sets synthetic too
    # data.synthetic
    ({"data.synthetic": [1]}, "data.synthetic"),
    ({"data.synthetic.foo": 1}, "data.synthetic.foo"),
    ({"data.synthetic.users": 0}, "data.synthetic.users"),
    ({"data.synthetic.users": True}, "data.synthetic.users"),
    ({"data.synthetic.items": 0}, "data.synthetic.items"),
    ({"data.synthetic.groups": 0}, "data.synthetic.groups"),
    ({"data.synthetic.groups": 21}, "data.synthetic.groups"),
    ({"data.synthetic.bulk_degree": 0}, "data.synthetic.bulk_degree"),
    ({"data.synthetic.heavy_degree": 0}, "data.synthetic.heavy_degree"),
    ({"data.synthetic.heavy_fraction": 1.5}, "data.synthetic.heavy_fraction"),
    ({"data.synthetic.heavy_fraction": NAN}, "data.synthetic.heavy_fraction"),
    ({"data.synthetic.p_in": 1.5}, "data.synthetic.p_in"),
    ({"data.synthetic.p_in": NAN}, "data.synthetic.p_in"),
    ({"data.synthetic.p_in": INF}, "data.synthetic.p_in"),
    ({"data.synthetic.p_in": -INF}, "data.synthetic.p_in"),
    ({"data.synthetic.p_out": 0.9}, "data.synthetic.p_in"),  # p_out > p_in
    ({"data.synthetic.p_out": -0.1}, "data.synthetic.p_out"),
    ({"data.synthetic.seed": -1}, "data.synthetic.seed"),
    # split
    ({"split": "x"}, "split"),
    ({"split.foo": 1}, "split.foo"),
    ({"split.ratios": [0.5, 0.5]}, "split.ratios"),
    ({"split.ratios": []}, "split.ratios"),
    ({"split.ratios": 0.8}, "split.ratios"),
    ({"split.ratios": [0.8, 0.1, 0.2]}, "split.ratios"),
    ({"split.ratios": [0.0, 0.5, 0.5]}, "split.ratios"),
    ({"split.ratios": [NAN, 0.5, 0.5]}, "split.ratios"),
    ({"split.ratios": [True, 0.0, 0.0]}, "split.ratios"),
    ({"split.seed": -1}, "split.seed"),
    # sparsify
    ({"sparsify.foo": 1}, "sparsify.foo"),
    ({"sparsify.keep_fraction": 0.0}, "sparsify.keep_fraction"),
    ({"sparsify.keep_fraction": 1.5}, "sparsify.keep_fraction"),
    ({"sparsify.keep_fraction": NAN}, "sparsify.keep_fraction"),
    ({"sparsify.keep_fraction": INF}, "sparsify.keep_fraction"),
    ({"sparsify.keep_fraction": -INF}, "sparsify.keep_fraction"),
    ({"sparsify.keep_fraction": "all"}, "sparsify.keep_fraction"),
    ({"sparsify.seed": -1}, "sparsify.seed"),
    # walk
    ({"walk": 5}, "walk"),
    ({"walk.foo": 1}, "walk.foo"),
    ({"walk.beta": 0}, "walk.beta"),
    ({"walk.beta": 2.0}, "walk.beta"),
    ({"walk.beta": True}, "walk.beta"),
    ({"walk.gamma": 0}, "walk.gamma"),
    ({"walk.seed": -1}, "walk.seed"),
    # pairs
    ({"pairs.foo": 1}, "pairs.foo"),
    ({"pairs.sigma": 2}, "pairs.sigma"),
    ({"pairs.sigma": 0}, "pairs.sigma"),
    ({"pairs.sigma": -1}, "pairs.sigma"),
    ({"pairs.sigma": True}, "pairs.sigma"),
    # confidence
    ({"confidence.foo": 1}, "confidence.foo"),
    ({"confidence.measure": "mf"}, "confidence.measure"),
    ({"confidence.measure": ""}, "confidence.measure"),
    ({"confidence.shift_k": 0.5}, "confidence.shift_k"),
    ({"confidence.shift_k": NAN}, "confidence.shift_k"),
    ({"confidence.shift_k": INF}, "confidence.shift_k"),
    ({"confidence.shift_k": -INF}, "confidence.shift_k"),
    ({"confidence.shift_k": "1"}, "confidence.shift_k"),
    # als
    ({"als.foo": 1}, "als.foo"),
    ({"als.lam": 0.25}, "als.lam"),  # the YAML key is "lambda"
    ({"als.factors": 0}, "als.factors"),
    ({"als.lambda": 0}, "als.lambda"),
    ({"als.lambda": -1.0}, "als.lambda"),
    ({"als.lambda": NAN}, "als.lambda"),
    ({"als.lambda": INF}, "als.lambda"),
    ({"als.lambda": -INF}, "als.lambda"),
    ({"als.lambda": False}, "als.lambda"),
    ({"als.sweeps": 0}, "als.sweeps"),
    ({"als.seed": -1}, "als.seed"),
    ({"als.init_scale": -0.1}, "als.init_scale"),
    ({"als.init_scale": NAN}, "als.init_scale"),
    ({"als.init_scale": INF}, "als.init_scale"),
    ({"als.init_scale": -INF}, "als.init_scale"),
    # recommend
    ({"recommend.foo": 1}, "recommend.foo"),
    ({"recommend.k_items": 0}, "recommend.k_items"),
    ({"recommend.mask_train": 1}, "recommend.mask_train"),
    # evaluate
    ({"evaluate.foo": 1}, "evaluate.foo"),
    ({"evaluate.cutoffs": []}, "evaluate.cutoffs"),
    ({"evaluate.cutoffs": 5}, "evaluate.cutoffs"),
    ({"evaluate.cutoffs": [0]}, "evaluate.cutoffs"),
    ({"evaluate.cutoffs": [True]}, "evaluate.cutoffs"),
    ({"evaluate.cutoffs": [5, 3, 5]}, "evaluate.cutoffs"),  # a repeat gives repeated columns
    # experiment
    ({"experiment.foo": 1}, "experiment.foo"),
    ({"experiment.measures": []}, "experiment.measures"),
    ({"experiment.measures": ["bogus"]}, "experiment.measures"),
    ({"experiment.measures": [""]}, "experiment.measures"),
    ({"experiment.sigmas": [2]}, "experiment.sigmas"),
    ({"experiment.sigmas": [0]}, "experiment.sigmas"),
    ({"experiment.sigmas": [3.0]}, "experiment.sigmas"),
    ({"experiment.keep_fractions": [0.0]}, "experiment.keep_fractions"),
    ({"experiment.keep_fractions": [1.5]}, "experiment.keep_fractions"),
    ({"experiment.keep_fractions": [NAN]}, "experiment.keep_fractions"),
    ({"experiment.seeds": []}, "experiment.seeds"),
    ({"experiment.seeds": [-1]}, "experiment.seeds"),
    ({"experiment.seeds": [1.5]}, "experiment.seeds"),
    # a repeat refits a cell and repeats its report row
    ({"experiment.measures": ["pmi", "co", "pmi"]}, "experiment.measures"),
    ({"experiment.sigmas": [3, 3]}, "experiment.sigmas"),
    ({"experiment.keep_fractions": [0.5, 1, 1.0]}, "experiment.keep_fractions"),
    ({"experiment.seeds": [0, 0]}, "experiment.seeds"),
]


def names_key(message, key):
    return re.match(rf"(unknown config key: )?{re.escape(key)}(:|$)", message)


@pytest.mark.parametrize("overrides,key", INVALID,
                         ids=[f"{k}={list(o.values())[0]!r}" for o, k in INVALID])
def test_invalid_config_names_its_key(overrides, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(with_overrides(overrides))
    assert names_key(str(exc.value), key), str(exc.value)


def test_top_level_must_be_a_mapping():
    with pytest.raises(ConfigError, match="^top level: expected a mapping"):
        parse_config([1, 2])


def test_yaml_syntax_error_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("walk:\n  beta: [3\n")
    assert main(["-c", str(path), "walk"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"walkrec walk: config error: {path}: not valid YAML"), err


@pytest.mark.parametrize("name", ["nosuch.yaml", "."], ids=["missing", "directory"])
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, name):
    path = tmp_path / name
    assert main(["-c", str(path), "split"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"walkrec split: config error: {path}: cannot read"), err


def test_empty_config_is_all_defaults():
    assert parse_config(None) == PipelineConfig()
    assert parse_config({}) == PipelineConfig()


@pytest.mark.parametrize("stage,overrides,key", [
    ("ingest", {"data.delimiter": ",,"}, "data.delimiter"),
    ("ingest", {"data.delimiter": "\n"}, "data.delimiter"),
    ("walk", {"walk.seed": -1}, "walk.seed"),
    ("experiment", {"experiment.sigmas": [2]}, "experiment.sigmas"),
    ("train", {"als.lambda": NAN}, "als.lambda"),
    ("split", {"workers": 0}, "workers"),
    ("experiment", {"als.lambda": INF}, "als.lambda"),
    ("ingest", {"data.interactions": "no-such-log.csv"}, "data.synthetic"),
    ("experiment", {"evaluate.cutoffs": [5, 5]}, "evaluate.cutoffs"),
    ("experiment", {"experiment.seeds": [1, 0, 1]}, "experiment.seeds"),
])
def test_cli_exits_2_naming_the_key(tmp_path, capsys, stage, overrides, key):
    raw = with_overrides({"work_dir": str(tmp_path / "work"), **overrides})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["-c", str(path), stage]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}" in err, err


def test_both_data_sources_are_rejected_naming_both_keys():
    with pytest.raises(ConfigError, match=r"^data\.synthetic: .*data\.interactions"):
        parse_config(with_overrides({"data.interactions": "log.csv"}))


def test_cli_rejects_workers_flag_below_one(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(with_overrides({"work_dir": str(tmp_path / "w")})))
    assert main(["-c", str(path), "--workers", "0", "split"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_example_config_resolves_to_literal():
    assert config_dict(load_config(EXAMPLE)) == {
        "data": {
            "interactions": None, "delimiter": ",", "user_col": 0, "item_col": 1,
            "header": False, "min_count": 0,
            "synthetic": {
                "users": 500, "items": 500, "groups": 10, "bulk_degree": 4,
                "heavy_degree": 12, "heavy_fraction": 0.125, "p_in": 0.5,
                "p_out": 0.005, "seed": 0,
            },
        },
        "split": {"ratios": (0.8, 0.1, 0.1), "seed": 0},
        "sparsify": {"keep_fraction": 1.0, "seed": 0},
        "walk": {"beta": 10, "gamma": 80, "seed": 0},
        "pairs": {"sigma": 3},
        "confidence": {"measure": "pmi", "shift_k": 1.0},
        "als": {"factors": 100, "lambda": 0.25, "sweeps": 15, "seed": 0, "init_scale": 0.01},
        "recommend": {"k_items": 10, "mask_train": True},
        "evaluate": {"cutoffs": (5, 10)},
        "experiment": {"measures": ("pmi", "co", "mf", "itempop"), "sigmas": (3,),
                       "keep_fractions": (1.0,), "seeds": (0, 1, 2)},
    }


def test_int_for_float_knob_is_stored_as_float():
    cfg = parse_config(with_overrides({
        "als.lambda": 1, "sparsify.keep_fraction": 1, "confidence.shift_k": 2,
        "experiment.keep_fractions": [1],
    }))
    for v in (cfg.als.lam, cfg.sparsify.keep_fraction, cfg.confidence.shift_k,
              *cfg.experiment.keep_fractions):
        assert type(v) is float
    assert cfg.als.lam == 1.0 and cfg.confidence.shift_k == 2.0


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out.update(_flatten(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


def test_override_seed_sets_exactly_the_six_seeds():
    cfg = parse_config(with_overrides({}))
    before = _flatten(config_dict(cfg))
    after = _flatten(config_dict(override_seed(cfg, 11)))
    changed = {k: after[k] for k in before if after[k] != before[k]}
    assert changed == {
        "data.synthetic.seed": 11, "split.seed": 11, "sparsify.seed": 11,
        "walk.seed": 11, "als.seed": 11, "experiment.seeds": (11,),
    }
    with pytest.raises(ConfigError, match="--seed"):
        override_seed(cfg, -1)


@pytest.mark.parametrize("build", [
    lambda: WalkConfig(beta=0),
    lambda: WalkConfig(gamma=0),
    lambda: WalkConfig(seed=-1),
    lambda: AlsConfig(factors=0),
    lambda: AlsConfig(lam=0.0),
    lambda: AlsConfig(lam=NAN),
    lambda: AlsConfig(lam=INF),
    lambda: AlsConfig(sweeps=0),
    lambda: AlsConfig(seed=-1),
    lambda: AlsConfig(init_scale=-0.1),
    lambda: ExperimentGrid(measures=("bogus",)),
    lambda: ExperimentGrid(sigmas=(2,)),
    lambda: ExperimentGrid(keep_fractions=(0.0,)),
    lambda: ExperimentGrid(seeds=(-1,)),
], ids=["walk.beta", "walk.gamma", "walk.seed", "als.factors", "als.lam",
        "als.lam_nan", "als.lam_inf", "als.sweeps", "als.seed", "als.init_scale",
        "grid.measures", "grid.sigmas", "grid.keep_fractions", "grid.seeds"])
def test_stage_classes_reject_out_of_bounds_at_construction(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("name, values", [("measures", ("pmi", "pmi")), ("sigmas", (1, 3, 1)),
                                          ("keep_fractions", (1.0, 1.0)), ("seeds", (7, 7))],
                         ids=["measures", "sigmas", "keep_fractions", "seeds"])
def test_experiment_grid_rejects_repeated_values(name, values):
    with pytest.raises(KnobError, match=rf"^{name} \[.*\] repeats a value$") as exc:
        ExperimentGrid(**{name: values})
    assert exc.value.name == name


@pytest.mark.parametrize("build", [lambda: EvaluateSection(cutoffs=(5, 10, 5)),
                                   lambda: PipelineSettings(cutoffs=(5, 10, 5))],
                         ids=["evaluate", "settings"])
def test_repeated_cutoffs_fail_at_construction(build):
    with pytest.raises(KnobError, match=r"^cutoffs \[5, 10, 5\] repeats a value$"):
        build()


def test_infinite_float_is_rejected_as_not_finite():
    with pytest.raises(ConfigError, match="^als.lambda: must be finite"):
        parse_config(with_overrides({"als.lambda": INF}))


def test_unset_knobs_resolve_to_pipeline_settings_defaults(tmp_path):
    cfg = parse_config({"data": {"interactions": "log.csv"}, "work_dir": str(tmp_path)})
    assert base_settings(cfg) == PipelineSettings()


@pytest.mark.parametrize("build,name", [
    (lambda: IngestFormat(user_col=-1), "user_col"),
    (lambda: IngestFormat(delimiter=",,"), "delimiter"),
    (lambda: IngestFormat(delimiter="\n"), "delimiter"),
    (lambda: IngestFormat(delimiter="\r"), "delimiter"),
    (lambda: generate_synthetic(n_groups=0), "n_groups"),
    (lambda: generate_synthetic(n_users=5, n_groups=6), "n_groups"),
    (lambda: generate_synthetic(p_out=0.6), "p_in"),
    (lambda: generate_synthetic(heavy_fraction=1.5), "heavy_fraction"),
    (lambda: WalkConfig(beta="3"), "beta"),
    (lambda: WalkConfig(beta=None), "beta"),
    (lambda: WalkConfig(beta=True), "beta"),
    (lambda: WalkConfig(beta=2.5), "beta"),
    (lambda: AlsConfig(sweeps=1.5), "sweeps"),
    (lambda: ExperimentGrid(seeds=(1.5,)), "seeds"),
    (lambda: generate_synthetic(n_users=10.5, n_groups=2), "n_users"),
    (lambda: RecommendSection(mask_train="false"), "mask_train"),
    (lambda: IngestFormat(header="no"), "header"),
    (lambda: IngestFormat(delimiter=5), "delimiter"),
    (lambda: DataSection(interactions=""), "interactions"),
    (lambda: PipelineConfig(work_dir=3), "work_dir"),
    (lambda: PipelineSettings(sigma=2), "sigma"),
    (lambda: PipelineSettings(measure="bogus"), "measure"),
], ids=["user_col", "delimiter", "delimiter_newline", "delimiter_return", "groups_zero",
        "groups_above_users", "p_out_above_p_in", "heavy_fraction", "beta_string", "beta_none",
        "beta_bool", "beta_float", "sweeps_float", "seeds_float", "users_float",
        "mask_train_string", "header_string", "delimiter_int", "interactions_empty",
        "work_dir_int", "settings_sigma_even", "settings_measure_unknown"])
def test_api_rejects_out_of_bounds_naming_the_field(build, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        build()


def test_api_accepts_numpy_integers_for_int_knobs():
    assert WalkConfig(beta=np.int64(3)).beta == 3


def test_api_stores_int_for_float_knob_as_float():
    lam = AlsConfig(lam=1).lam
    assert type(lam) is float and lam == 1.0


def test_base_settings_takes_every_knob_from_its_section():
    cfg = parse_config(with_overrides({
        "sparsify.keep_fraction": 0.5, "sparsify.seed": 6, "walk.beta": 3,
        "walk.gamma": 7, "walk.seed": 8, "pairs.sigma": 5, "confidence.measure": "co",
        "confidence.shift_k": 2.5, "als.factors": 6, "als.lambda": 0.5, "als.sweeps": 4,
        "als.seed": 9, "als.init_scale": 0.2, "recommend.k_items": 4,
        "recommend.mask_train": False, "evaluate.cutoffs": [2, 4],
    }))
    st = base_settings(cfg)
    sections = (cfg.confidence, cfg.pairs, cfg.sparsify, cfg.walk, cfg.als,
                cfg.recommend, cfg.evaluate)
    for name, value in vars(st).items():
        want = cfg.walk.seed if name == "seed" else next(
            getattr(s, name) for s in sections if hasattr(s, name))
        assert value == want and value != getattr(PipelineSettings(), name), name
    assert st.echo()["lambda"] == 0.5


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
def test_example_config_parses_alike_with_libyaml_and_pure_python():
    text = EXAMPLE.read_text(encoding="utf-8")
    raw = yaml.load(text, Loader=yaml.CSafeLoader)
    assert raw == yaml.load(text, Loader=yaml.SafeLoader)
    assert parse_config(raw) == load_config(EXAMPLE)


def test_resolved_config_parses_back_to_the_same_config():
    cfg = load_config(EXAMPLE)
    assert parse_config(config_dict(cfg)) == cfg
    cfg = parse_config(with_overrides({"data.synthetic.groups": 3, "als.lambda": 2}))
    assert parse_config(config_dict(cfg)) == cfg
