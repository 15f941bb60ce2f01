"""YAML pipeline configuration: parsing, defaults, validation.

Defaults follow the standard operating point of the method: 10 walks of
80 vertices per vertex, window 3, 100 factors, ridge 0.25, top-10 lists.
Each knob's default, YAML key and bounds are declared once, with ``knob``
on the dataclass that uses it; the stage classes WalkConfig, AlsConfig,
SyntheticConfig and IngestFormat (inside DataSection) are sections
themselves.  One walker parses every section from those declarations, and
every error names the offending dotted key.  PipelineSettings, the knobs
of one experiment cell, shares each field's declaration with the section
that holds it.
"""

import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .confidence import MEASURES
from .datasets import IngestFormat
from .factorization import AlsConfig
from .knobs import KnobError, Knobs, key, knob
from .synthetic import SyntheticConfig
from .walks import WalkConfig

__all__ = ["ConfigError", "PipelineConfig", "PipelineSettings", "ExperimentGrid",
           "load_config", "parse_config", "base_settings", "config_dict"]

CELL_MEASURES = MEASURES + ("mf", "itempop")


class ConfigError(ValueError):
    """Invalid or unknown configuration key."""


@dataclass(frozen=True)
class DataSection(IngestFormat):
    """The data source: an interaction log read with the inherited
    IngestFormat columns, or the synthetic generator."""

    interactions: str | None = None
    min_count: int = knob(0, min=0)
    synthetic: SyntheticConfig | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.interactions is not None and self.synthetic is not None:
            raise KnobError("synthetic", "cannot be set together with data.interactions; "
                            "give one data source")


@dataclass(frozen=True)
class SplitSection(Knobs):
    ratios: tuple[float, ...] = knob((0.8, 0.1, 0.1), gt=0)
    seed: int = knob(0, min=0)

    def __post_init__(self):
        super().__post_init__()
        if len(self.ratios) != 3:
            raise KnobError("ratios", "expected three fractions")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise KnobError("ratios", "fractions must sum to 1")


@dataclass(frozen=True)
class SparsifySection(Knobs):
    keep_fraction: float = knob(1.0, gt=0, max=1)
    seed: int = knob(0, min=0)


@dataclass(frozen=True)
class PairsSection(Knobs):
    sigma: int = knob(3, min=1, odd=True)


@dataclass(frozen=True)
class ConfidenceSection(Knobs):
    measure: str = knob("pmi", choices=MEASURES)
    shift_k: float = knob(1.0, min=1)


@dataclass(frozen=True)
class RecommendSection(Knobs):
    k_items: int = knob(10, min=1)
    mask_train: bool = True


@dataclass(frozen=True)
class EvaluateSection(Knobs):
    cutoffs: tuple[int, ...] = knob((5, 10), min=1, distinct=True)  # a repeat would repeat columns


@dataclass(frozen=True)
class ExperimentGrid(Knobs):
    """Cartesian grid over measure, window size, sparsity, and seed; a repeated
    value would refit a cell and repeat its report row."""

    measures: tuple[str, ...] = knob(("pmi", "co"), choices=CELL_MEASURES, distinct=True)
    sigmas: tuple[int, ...] = knob((3,), min=1, odd=True, distinct=True)
    keep_fractions: tuple[float, ...] = knob((1.0,), gt=0, max=1, distinct=True)
    seeds: tuple[int, ...] = knob((0,), min=0, distinct=True)


def _shared(section, name, **bounds):
    """A PipelineSettings field with the default, YAML key and bounds of the
    field name of section, the given bounds replacing its own."""
    f = section.__dataclass_fields__[name]
    return field(default=f.default, metadata={
        "key": f.metadata.get("key"), "bounds": {**f.metadata.get("bounds", {}), **bounds},
        "section": section})


@dataclass(frozen=True)
class PipelineSettings(Knobs):
    """Resolved knobs for one end-to-end pipeline pass.

    seed drives the three stochastic stages of a pass (sparsification,
    walk generation, factor init), so a single integer pins the run.
    Every field is declared as in its config section; measure also takes
    the cell measures mf and itempop.
    """

    measure: str = _shared(ConfidenceSection, "measure", choices=CELL_MEASURES)
    sigma: int = _shared(PairsSection, "sigma")
    keep_fraction: float = _shared(SparsifySection, "keep_fraction")
    seed: int = _shared(WalkConfig, "seed")
    beta: int = _shared(WalkConfig, "beta")
    gamma: int = _shared(WalkConfig, "gamma")
    shift_k: float = _shared(ConfidenceSection, "shift_k")
    factors: int = _shared(AlsConfig, "factors")
    lam: float = _shared(AlsConfig, "lam")
    sweeps: int = _shared(AlsConfig, "sweeps")
    init_scale: float = _shared(AlsConfig, "init_scale")
    k_items: int = _shared(RecommendSection, "k_items")
    mask_train: bool = _shared(RecommendSection, "mask_train")
    cutoffs: tuple[int, ...] = _shared(EvaluateSection, "cutoffs")

    def echo(self):
        "Config echo embedded in reports: every knob but cutoffs by YAML key, in field order."
        return {key(f): getattr(self, f.name) for f in fields(self) if f.name != "cutoffs"}


@dataclass(frozen=True)
class PipelineConfig(Knobs):
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


def _dotted(path, k):
    return f"{path}.{k}" if path else str(k)


def _section(cls, raw, path):
    """Build dataclass cls from a mapping of YAML keys, a subsection from each
    nested mapping; errors name the dotted key."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'top level'}: expected a mapping")
    by_key = {key(f): f for f in fields(cls)}
    for k in raw:
        if k not in by_key:
            raise ConfigError(f"unknown config key: {_dotted(path, k)}")
    values = {}
    for k, f in by_key.items():
        if k not in raw:
            continue
        sub = next((t for t in (f.type, *typing.get_args(f.type)) if is_dataclass(t)), None)
        optional = sub is not f.type  # a section field annotated C | None may be null
        values[f.name] = (raw[k] if sub is None or (raw[k] is None and optional)
                          else _section(sub, raw[k], _dotted(path, k)))
    try:
        return cls(**values)
    except KnobError as exc:
        bad = next(key(f) for f in fields(cls) if f.name == exc.name)
        raise ConfigError(f"{_dotted(path, bad)}: {exc.reason}") from None


def parse_config(raw) -> PipelineConfig:
    """Validate a config mapping (already YAML-parsed) into PipelineConfig."""
    return _section(PipelineConfig, raw, "")


def load_config(path) -> PipelineConfig:
    """Read and validate a YAML config file, parsed by libyaml when PyYAML has it.

    An unreadable or unparsable file raises ConfigError naming it."""
    try:
        with Path(path).open("r", encoding="utf-8") as f:
            raw = yaml.load(f, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    return parse_config(raw)


def override_seed(cfg: PipelineConfig, seed: int) -> PipelineConfig:
    """Replace every seed in the config with one value (CLI --seed flag).

    Every field named ``seed`` becomes seed and every ``seeds`` list (seed,).
    """
    if seed < 0:
        raise ConfigError("--seed: seed must be >= 0")

    def reseed(node):
        return {k: seed if k == "seed" else (seed,) if k == "seeds"
                else reseed(v) if isinstance(v, dict) else v for k, v in node.items()}

    return parse_config(reseed(_plain(cfg)))


def base_settings(cfg: PipelineConfig) -> PipelineSettings:
    """Pipeline settings for one experiment cell before grid overrides.

    Each settings field takes its section's value; the seed is the walk
    seed.  The cell seed set by the grid replaces the sparsify, walk, and
    ALS seeds; stagewise runs match a cell exactly when those three config
    seeds are set to the cell's seed.
    """
    sections = {f.type: getattr(cfg, f.name) for f in fields(cfg)}
    return PipelineSettings(**{f.name: getattr(sections[f.metadata["section"]], f.name)
                               for f in fields(PipelineSettings)})


def _plain(obj):
    "A section tree as nested dicts keyed by YAML key."
    if not is_dataclass(obj):
        return obj
    return {key(f): _plain(getattr(obj, f.name)) for f in fields(obj)}


def config_dict(cfg: PipelineConfig) -> dict:
    """The fully resolved config as plain data under its YAML keys, for reports.

    parse_config reads it back to the same config.  Execution knobs that
    cannot affect results (worker count, work_dir) are omitted so reports
    stay byte-identical across them.
    """
    out = _plain(cfg)
    out.pop("workers", None)
    out.pop("work_dir", None)
    return out
