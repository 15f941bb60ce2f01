"""Command-line pipeline: one subcommand per stage, wired through files.

STAGES declares each stage once, in pipeline order: its help and the
work_dir artifacts it reads and writes.  main calls cmd_<stage>(cfg,
*reads, *writes) with their paths.  Intermediates (walk corpora, pair
counts) persist there for reuse; one YAML config plus the seeds it
carries determine every output byte.
"""

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .config import ConfigError, base_settings, config_dict, load_config, override_seed
from .confidence import co_matrix, load_confidence, save_confidence, sppmi_matrix
from .datasets import (filter_min_interactions, ingest, load_dataset, load_interactions,
                       save_dataset, save_interactions, sparsify, split)
from .evaluation import evaluate, run_experiment, write_report_json, write_report_tsv
from .factorization import als_fit, load_model, save_model
from .graph import build_graph
from .pairs import load_stats, sample_pairs, save_stats
from .recommend import load_recommendations, recommend_topk, save_recommendations
from .synthetic import generate_synthetic
from .walks import generate_walks, load_walks, save_walks

# stage -> (help, work_dir artifacts it reads, artifacts it writes), in pipeline order
STAGES = {
    "ingest": ("read distinct user-item pairs from the source and filter them",
               (), ("interactions.tsv",)),
    "split": ("index and split interactions into train/valid/test",
              ("interactions.tsv",), ("dataset",)),
    "walk": ("generate the random-walk corpus from the training graph",
             ("dataset",), ("walks.txt",)),
    "pairs": ("extract windowed user-item pair counts from the corpus",
              ("walks.txt",), ("pair_stats.npz",)),
    "confidence": ("score pair counts into the confidence matrix",
                   ("pair_stats.npz",), ("confidence.npz",)),
    "train": ("factorize the confidence matrix with ALS",
              ("confidence.npz",), ("model.npz",)),
    "recommend": ("write ranked top-K item lists per user",
                  ("model.npz", "dataset"), ("recommendations.tsv",)),
    "evaluate": ("score recommendations against the test split",
                 ("dataset", "recommendations.tsv"), ("metrics.tsv", "metrics.json")),
    "experiment": ("run the full measure/window/sparsity/seed grid",
                   (), ("report.tsv", "report.json")),
}


def _source_pairs(cfg):
    "Distinct, filtered key pairs from the configured data source."
    data = cfg.data
    if data.synthetic is not None:
        pairs = generate_synthetic(**asdict(data.synthetic))
    elif data.interactions is not None:
        with open(data.interactions, "r", encoding="utf-8") as f:
            pairs = ingest(f, data)
    else:
        raise ConfigError("data.interactions or data.synthetic is required")
    return filter_min_interactions(pairs, data.min_count)


def cmd_ingest(cfg, out):
    pairs = _source_pairs(cfg)
    save_interactions(pairs, out)
    print(f"ingest: {len(pairs)} interactions -> {out}")


def cmd_split(cfg, interactions, out):
    ds = split(load_interactions(interactions), cfg.split.ratios, cfg.split.seed)
    ds.train = sparsify(ds.train, cfg.sparsify.keep_fraction, cfg.sparsify.seed)
    save_dataset(ds, out)
    print(f"split: {len(ds.train)}/{len(ds.valid)}/{len(ds.test)} "
          f"train/valid/test over {ds.n_users} users x {ds.n_items} items -> {out}")


def cmd_walk(cfg, dataset, out):
    ds = load_dataset(dataset)
    corpus = generate_walks(build_graph(ds.train, ds.n_users, ds.n_items), cfg.walk)
    save_walks(corpus, out)
    print(f"walk: {len(corpus.walks)} walks of {cfg.walk.gamma} vertices -> {out}")


def cmd_pairs(cfg, walks, out):
    stats = sample_pairs(load_walks(walks), cfg.pairs.sigma)
    save_stats(stats, out)
    print(f"pairs: {stats.total} pair occurrences, "
          f"{stats.pair_count.nnz} distinct -> {out}")


def cmd_confidence(cfg, pair_stats, out):
    stats = load_stats(pair_stats)
    conf = (co_matrix(stats) if cfg.confidence.measure == "co"
            else sppmi_matrix(stats, cfg.confidence.shift_k))
    save_confidence(conf, out)
    print(f"confidence: {conf.matrix.nnz} entries ({conf.measure}) -> {out}")


def cmd_train(cfg, confidence, out):
    model = als_fit(load_confidence(confidence), cfg.als)
    save_model(model, cfg.als, out)
    print(f"train: {cfg.als.sweeps} sweeps, "
          f"final objective {model.loss_trace[-1]:.6g} -> {out}")


def cmd_recommend(cfg, model_path, dataset, out):
    model, _ = load_model(model_path)
    ds = load_dataset(dataset)
    mask = ds.train if cfg.recommend.mask_train else None
    recs = recommend_topk(model, cfg.recommend.k_items, mask)
    save_recommendations(recs, out)
    print(f"recommend: top-{cfg.recommend.k_items} lists for {len(recs)} users -> {out}")


def cmd_evaluate(cfg, dataset, recommendations, tsv, json_path):
    ds = load_dataset(dataset)
    recs = load_recommendations(recommendations, ds.n_users)
    rep = evaluate(recs, ds.test, cfg.evaluate.cutoffs, config=base_settings(cfg).echo())
    write_report_tsv([rep], tsv)
    write_report_json([rep], json_path, resolved_config=config_dict(cfg))
    parts = [f"P@{k}={100 * rep.precision[k]:.3f}% R@{k}={100 * rep.recall[k]:.3f}% "
             f"F1@{k}={100 * rep.f1[k]:.3f}%" for k in rep.cutoffs]
    print("evaluate: " + "  ".join(parts))


def cmd_experiment(cfg, tsv, json_path):
    ds = split(_source_pairs(cfg), cfg.split.ratios, cfg.split.seed)
    rows = run_experiment(ds, base_settings(cfg), cfg.experiment)
    write_report_tsv(rows, tsv)
    write_report_json(rows, json_path, resolved_config=config_dict(cfg))
    print(f"experiment: {len(rows)} grid cells -> {tsv}")


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
    for name, (help_text, _, _) in STAGES.items():
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
        work = Path(cfg.work_dir)
        work.mkdir(parents=True, exist_ok=True)
        _, reads, writes = STAGES[args.stage]
        # looked up per call: a module global rebound after import is the one run
        globals()[f"cmd_{args.stage}"](cfg, *(work / name for name in reads + writes))
        return 0
    except ConfigError as exc:
        print(f"walkrec {args.stage}: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"walkrec {args.stage}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
