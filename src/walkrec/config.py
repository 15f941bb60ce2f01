"""YAML pipeline configuration: parsing, defaults, validation.

Defaults follow the standard operating point of the method: 10 walks of
80 vertices per vertex, window 3, 100 factors, ridge 0.25, top-10 lists.
Each knob's default, YAML key and bounds are declared once, with ``knob``
on the dataclass that uses it; the stage classes WalkConfig, AlsConfig and
ExperimentGrid are sections themselves.  One walker parses every section
from those declarations, and every error names the offending dotted key.
"""

import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import yaml

from .evaluation import ExperimentGrid, PipelineSettings
from .factorization import AlsConfig
from .knobs import KnobError, check, key, knob
from .walks import WalkConfig

__all__ = ["ConfigError", "PipelineConfig", "load_config", "parse_config",
           "base_settings", "config_dict"]


class ConfigError(ValueError):
    """Invalid or unknown configuration key."""


@dataclass(frozen=True)
class SyntheticSection:
    users: int = knob(500, min=1)
    items: int = knob(500, min=1)
    groups: int = knob(10, min=1)
    bulk_degree: int = knob(4, min=1)
    heavy_degree: int = knob(12, min=1)
    heavy_fraction: float = knob(0.125, min=0, max=1)
    p_in: float = knob(0.5, min=0, max=1)
    p_out: float = knob(0.005, min=0, max=1)
    seed: int = knob(0, min=0)

    def __post_init__(self):
        check(self)
        if self.groups > min(self.users, self.items):
            raise KnobError("groups", "must be in [1, min(users, items)]")
        if self.p_out > self.p_in:
            raise KnobError("p_in", "need 0 <= p_out <= p_in <= 1")


@dataclass(frozen=True)
class DataSection:
    interactions: str | None = None
    delimiter: str = ","
    user_col: int = knob(0, min=0)
    item_col: int = knob(1, min=0)
    value_col: int | None = knob(None, min=0)
    timestamp_col: int | None = knob(None, min=0)
    header: bool = False
    min_count: int = knob(0, min=0)
    synthetic: SyntheticSection | None = None

    def __post_init__(self):
        check(self)
        if len(self.delimiter) != 1:
            raise KnobError("delimiter", "must be a single character")


@dataclass(frozen=True)
class SplitSection:
    ratios: tuple[float, ...] = knob((0.8, 0.1, 0.1), gt=0)
    seed: int = knob(0, min=0)

    def __post_init__(self):
        check(self)
        if len(self.ratios) != 3:
            raise KnobError("ratios", "expected three fractions")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise KnobError("ratios", "fractions must sum to 1")


@dataclass(frozen=True)
class SparsifySection:
    keep_fraction: float = knob(1.0, gt=0, max=1)
    seed: int = knob(0, min=0)

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class PairsSection:
    sigma: int = knob(3, min=1, odd=True)

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class ConfidenceSection:
    measure: str = knob("pmi", choices=("co", "pmi"))
    shift_k: float = knob(1.0, min=1)

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class RecommendSection:
    k_items: int = knob(10, min=1)
    mask_train: bool = True

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class EvaluateSection:
    cutoffs: tuple[int, ...] = knob((5, 10), min=1)

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class PipelineConfig:
    data: DataSection = field(default_factory=DataSection)
    split: SplitSection = field(default_factory=SplitSection)
    sparsify: SparsifySection = field(default_factory=SparsifySection)
    walk: WalkConfig = field(default_factory=WalkConfig)
    pairs: PairsSection = field(default_factory=PairsSection)
    confidence: ConfidenceSection = field(default_factory=ConfidenceSection)
    als: AlsConfig = field(default_factory=AlsConfig)
    recommend: RecommendSection = field(default_factory=RecommendSection)
    evaluate: EvaluateSection = field(default_factory=EvaluateSection)
    experiment: ExperimentGrid = field(default_factory=ExperimentGrid)
    work_dir: str = "work"
    workers: int = knob(1, min=1)  # accepted for compatibility; has no effect

    def __post_init__(self):
        check(self)


def _dotted(path, k):
    return f"{path}.{k}" if path else str(k)


_SCALARS = {
    bool: ("boolean", lambda v: isinstance(v, bool)),
    int: ("integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("non-empty string", lambda v: isinstance(v, str) and v != ""),
}


def _coerce(tp, v, path):
    "Value v checked against annotation tp: a section, X | None, tuple[T, ...] or scalar."
    if is_dataclass(tp):
        return _section(tp, v, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return None if v is None else _coerce(args[0], v, path)
    if origin is tuple:
        if not isinstance(v, (list, tuple)) or not v:
            raise ConfigError(f"{path}: expected a non-empty list")
        return tuple(_coerce(args[0], x, path) for x in v)
    what, ok = _SCALARS[tp]
    if not ok(v):
        raise ConfigError(f"{path}: expected {what}, got {v!r}")
    return tp(v)


def _section(cls, raw, path):
    "Build dataclass cls from a mapping of YAML keys; errors name the dotted key."
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'top level'}: expected a mapping")
    by_key = {key(f): f for f in fields(cls)}
    for k in raw:
        if k not in by_key:
            raise ConfigError(f"unknown config key: {_dotted(path, k)}")
    values = {f.name: _coerce(f.type, raw[k], _dotted(path, k))
              for k, f in by_key.items() if k in raw}
    try:
        return cls(**values)
    except KnobError as exc:
        bad = next(key(f) for f in fields(cls) if f.name == exc.name)
        raise ConfigError(f"{_dotted(path, bad)}: {exc.reason}") from None


def parse_config(raw) -> PipelineConfig:
    """Validate a config mapping (already YAML-parsed) into PipelineConfig."""
    return _section(PipelineConfig, raw, "")


def load_config(path) -> PipelineConfig:
    """Read and validate a YAML config file."""
    with Path(path).open("r", encoding="utf-8") as f:
        raw = yaml.safe_load(f)
    return parse_config(raw)


def override_seed(cfg: PipelineConfig, seed: int) -> PipelineConfig:
    """Replace every seed in the config with one value (CLI --seed flag).

    Every field named ``seed`` becomes seed and every ``seeds`` list (seed,).
    """
    seed = int(seed)
    if seed < 0:
        raise ConfigError("--seed: seed must be >= 0")

    def reseed(obj):
        new = {}
        for f in fields(obj):
            v = getattr(obj, f.name)
            if f.name == "seed":
                new["seed"] = seed
            elif f.name == "seeds":
                new["seeds"] = (seed,)
            elif is_dataclass(v):
                new[f.name] = reseed(v)
        return replace(obj, **new)

    return reseed(cfg)


def base_settings(cfg: PipelineConfig) -> PipelineSettings:
    """Pipeline settings for one experiment cell before grid overrides.

    The cell seed set by the grid replaces the sparsify, walk, and ALS
    seeds; stagewise runs match a cell exactly when those three config
    seeds are set to the cell's seed.
    """
    return PipelineSettings(
        measure=cfg.confidence.measure,
        sigma=cfg.pairs.sigma,
        keep_fraction=cfg.sparsify.keep_fraction,
        seed=cfg.walk.seed,
        beta=cfg.walk.beta,
        gamma=cfg.walk.gamma,
        shift_k=cfg.confidence.shift_k,
        factors=cfg.als.factors,
        lam=cfg.als.lam,
        sweeps=cfg.als.sweeps,
        init_scale=cfg.als.init_scale,
        k_items=cfg.recommend.k_items,
        mask_train=cfg.recommend.mask_train,
        cutoffs=cfg.evaluate.cutoffs,
    )


def config_dict(cfg: PipelineConfig) -> dict:
    """The fully resolved config as plain data, for embedding in reports.

    Execution knobs that cannot affect results (worker count, work_dir)
    are omitted so reports stay byte-identical across them.
    """
    out = asdict(cfg)
    out.pop("workers", None)
    out.pop("work_dir", None)
    return out
