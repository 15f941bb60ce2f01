"""Command-line pipeline: one subcommand per stage, wired through files.

Stages communicate via the persisted formats under the config's work_dir,
so expensive intermediates (walk corpora, pair counts) can be reused
across confidence measures and window sizes.  A single YAML config plus
the seeds it carries determine every output byte.
"""

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .config import ConfigError, base_settings, config_dict, load_config, override_seed
from .confidence import co_matrix, load_confidence, save_confidence, sppmi_matrix
from .datasets import (binarize, filter_min_interactions, ingest, load_dataset,
                       load_interactions, save_dataset, save_interactions, sparsify,
                       split)
from .evaluation import evaluate, run_experiment, write_report_json, write_report_tsv
from .factorization import als_fit, load_model, save_model
from .graph import build_graph
from .pairs import load_stats, sample_pairs, save_stats
from .recommend import (load_recommendations, recommend_topk, save_recommendations,
                        train_masks)
from .synthetic import generate_synthetic
from .walks import generate_walks, load_walks, save_walks


def _work(cfg):
    d = Path(cfg.work_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _source_pairs(cfg):
    "Binarized, filtered key pairs from the configured data source."
    data = cfg.data
    if data.synthetic is not None:
        pairs = generate_synthetic(**asdict(data.synthetic))
    elif data.interactions is not None:
        with open(data.interactions, "r", encoding="utf-8") as f:
            pairs = binarize(ingest(f, data))
    else:
        raise ConfigError("data.interactions or data.synthetic is required")
    return filter_min_interactions(pairs, data.min_count)


def _dataset_from_config(cfg):
    return split(_source_pairs(cfg), cfg.split.ratios, cfg.split.seed)


def cmd_ingest(cfg):
    pairs = _source_pairs(cfg)
    out = _work(cfg) / "interactions.tsv"
    save_interactions(pairs, out)
    print(f"ingest: {len(pairs)} interactions -> {out}")


def cmd_split(cfg):
    pairs = load_interactions(_work(cfg) / "interactions.tsv")
    ds = split(pairs, cfg.split.ratios, cfg.split.seed)
    if cfg.sparsify.keep_fraction < 1.0:
        ds.train = sparsify(ds.train, cfg.sparsify.keep_fraction, cfg.sparsify.seed)
    out = _work(cfg) / "dataset"
    save_dataset(ds, out)
    print(f"split: {len(ds.train)}/{len(ds.valid)}/{len(ds.test)} "
          f"train/valid/test over {ds.n_users} users x {ds.n_items} items -> {out}")


def cmd_walk(cfg):
    ds = load_dataset(_work(cfg) / "dataset")
    g = build_graph(ds.train, ds.n_users, ds.n_items)
    corpus = generate_walks(g, cfg.walk)
    out = _work(cfg) / "walks.txt"
    save_walks(corpus, out)
    print(f"walk: {len(corpus.walks)} walks of {cfg.walk.gamma} vertices -> {out}")


def cmd_pairs(cfg):
    corpus = load_walks(_work(cfg) / "walks.txt")
    stats = sample_pairs(corpus, cfg.pairs.sigma)
    out = _work(cfg) / "pair_stats.tsv"
    save_stats(stats, out)
    print(f"pairs: {stats.total} pair occurrences, "
          f"{stats.pair_count.nnz} distinct -> {out}")


def cmd_confidence(cfg):
    stats = load_stats(_work(cfg) / "pair_stats.tsv")
    if cfg.confidence.measure == "co":
        conf = co_matrix(stats)
    else:
        conf = sppmi_matrix(stats, cfg.confidence.shift_k)
    out = _work(cfg) / "confidence.tsv"
    save_confidence(conf, out)
    print(f"confidence: {conf.matrix.nnz} entries ({conf.measure}) -> {out}")


def cmd_train(cfg):
    conf = load_confidence(_work(cfg) / "confidence.tsv")
    model = als_fit(conf, cfg.als)
    out = _work(cfg) / "model.npz"
    save_model(model, cfg.als, out)
    print(f"train: {cfg.als.sweeps} sweeps, "
          f"final objective {model.loss_trace[-1]:.6g} -> {out}")


def cmd_recommend(cfg):
    model, _ = load_model(_work(cfg) / "model.npz")
    ds = load_dataset(_work(cfg) / "dataset")
    masks = train_masks(ds.train) if cfg.recommend.mask_train else None
    recs = recommend_topk(model, cfg.recommend.k_items, masks)
    out = _work(cfg) / "recommendations.tsv"
    save_recommendations(recs, out)
    print(f"recommend: top-{cfg.recommend.k_items} lists for {len(recs)} users -> {out}")


def cmd_evaluate(cfg):
    ds = load_dataset(_work(cfg) / "dataset")
    recs = load_recommendations(_work(cfg) / "recommendations.tsv", ds.n_users)
    rep = evaluate(recs, ds.test, cfg.evaluate.cutoffs,
                   config=base_settings(cfg).echo())
    work = _work(cfg)
    write_report_tsv([rep], work / "metrics.tsv")
    write_report_json([rep], work / "metrics.json", resolved_config=config_dict(cfg))
    parts = [f"P@{k}={100 * rep.precision[k]:.3f}% R@{k}={100 * rep.recall[k]:.3f}% "
             f"F1@{k}={100 * rep.f1[k]:.3f}%" for k in rep.cutoffs]
    print("evaluate: " + "  ".join(parts))


def cmd_experiment(cfg):
    ds = _dataset_from_config(cfg)
    rows = run_experiment(ds, base_settings(cfg), cfg.experiment)
    work = _work(cfg)
    write_report_tsv(rows, work / "report.tsv")
    write_report_json(rows, work / "report.json", resolved_config=config_dict(cfg))
    print(f"experiment: {len(rows)} grid cells -> {work / 'report.tsv'}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="walkrec",
        description="Random-walk enriched implicit-feedback recommendation pipeline",
    )
    parser.add_argument("-c", "--config", required=True, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every seed in the config")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; has no effect")
    sub = parser.add_subparsers(dest="stage", required=True)
    for name, help_text in [
        ("ingest", "parse, binarize, and filter the raw interaction source"),
        ("split", "index and split interactions into train/valid/test"),
        ("walk", "generate the random-walk corpus from the training graph"),
        ("pairs", "extract windowed user-item pair counts from the corpus"),
        ("confidence", "score pair counts into the confidence matrix"),
        ("train", "factorize the confidence matrix with ALS"),
        ("recommend", "write ranked top-K item lists per user"),
        ("evaluate", "score recommendations against the test split"),
        ("experiment", "run the full measure/window/sparsity/seed grid"),
    ]:
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = override_seed(cfg, args.seed)
        if args.workers is not None and args.workers < 1:
            raise ConfigError("--workers: must be >= 1")
        # looked up per call: a module global rebound after import is the one run
        globals()[f"cmd_{args.stage}"](cfg)
        return 0
    except ConfigError as exc:
        print(f"walkrec {args.stage}: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"walkrec {args.stage}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
