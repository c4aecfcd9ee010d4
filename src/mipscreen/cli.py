"""Command-line pipeline: generate data, label it, train and evaluate the
screening model, sweep the hyperparameter grid, search, distill, bench.

Exit codes: 0 success, 1 usage error, 2 data or validation error. All
randomness flows from explicit --seed flags; reports carry their full
configuration as leading # comment lines so results are self-describing.
"""

import argparse
import dataclasses
import functools
import os
import sys

from . import data as dio
from . import distill as dst
from . import evaluate as ev
from . import screening as scr
from .search import _scores, argmax_batch


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process; each parse_args call fills a fresh
    namespace, so no flag value carries over between `run` calls."""
    p = _Parser(prog="mipscreen", description=__doc__)
    sub = p.add_subparsers(dest="command", metavar="command")

    # TrainConfig's SGD and seed flags, shared by train-screen and grid
    sgd = _Parser(add_help=False)
    _config_flags(sgd, scr.TrainConfig,
                  ("--t", "alternations", "alternations"),
                  ("--lr", "learning_rate", "SGD learning rate"),
                  ("--epochs", "epochs_per_alternation", "SGD epochs per alternation"),
                  ("--batch", "batch_size", "SGD batch size"),
                  ("--seed", "seed", "training seed"))

    g = sub.add_parser("gen", help="generate a synthetic corpus",
                       description="Write train/test context and candidate "
                       "embedding files plus topic tags into --out-dir.")
    _config_flags(g, dio.SyntheticSpec,
                  ("--m-train", "m_train", "training contexts"),
                  ("--m-test", "m_test", "held-out contexts"),
                  ("--n", "n_candidates", "candidate count"),
                  ("--d", "dim", "embedding dimension"),
                  ("--topics", "topics", "latent topic count"),
                  ("--sigma", "noise_sigma", "noise norm scale"),
                  ("--seed", "seed", "generator seed"))
    g.add_argument("--out-dir", required=True, help="output directory (required)")

    l = sub.add_parser("labels", help="compute oracle best-response labels")
    l.add_argument("--contexts", required=True, help="EMB1 context file (required)")
    l.add_argument("--candidates", required=True, help="EMB1 candidate file (required)")
    l.add_argument("--out", required=True, help="output labels text file (required)")

    t = sub.add_parser("train-screen", parents=[sgd], help="train the screening model")
    t.add_argument("--contexts", required=True, help="EMB1 training contexts (required)")
    t.add_argument("--candidates", required=True, help="EMB1 candidates (required)")
    t.add_argument("--labels", required=True, help="labels text file (required)")
    _config_flags(t, scr.TrainConfig,
                  ("--k", "k", "cluster count"), ("--lambda", "lam", "balancing coefficient"))
    t.add_argument("--out-model", required=True, help="output SCRN file (required)")

    e = sub.add_parser("eval-screen", help="evaluate a trained screening model")
    e.add_argument("--model", required=True, help="SCRN model file (required)")
    e.add_argument("--contexts", required=True, help="EMB1 held-out contexts (required)")
    e.add_argument("--candidates", required=True, help="EMB1 candidates (required)")
    e.add_argument("--report", default="", help="optional CSV report path")
    _config_flags(e, scr.TrainConfig, ("--seed", "seed", "seed recorded in the report"))

    r = sub.add_parser("grid", parents=[sgd], help="sweep the K x lambda grid")
    r.add_argument("--train-contexts", required=True, help="EMB1 training contexts (required)")
    r.add_argument("--test-contexts", required=True, help="EMB1 held-out contexts (required)")
    r.add_argument("--candidates", required=True, help="EMB1 candidates (required)")
    r.add_argument("--labels", required=True, help="labels text file (required)")
    r.add_argument("--k", default="10,20,50",
                   help="comma-separated cluster counts (default 10,20,50)")
    r.add_argument("--lambda", dest="lam", default="1e-5,5e-6,1e-6,5e-7",
                   help="comma-separated coefficients (default 1e-5,5e-6,1e-6,5e-7)")
    r.add_argument("--report", required=True, help="output CSV path (required)")

    s = sub.add_parser("search", help="retrieve the best candidate per context")
    s.add_argument("--context-file", required=True, help="EMB1 query contexts (required)")
    s.add_argument("--candidates", required=True, help="EMB1 candidates (required)")
    s.add_argument("--model", default="", help="SCRN model (--screened only; required there)")
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="brute-force search (default)")
    mode.add_argument("--screened", action="store_true", help="search the predicted subset only")

    d = sub.add_parser("distill", help="train a dual encoder against cached teacher scores")
    d.add_argument("--pairs", required=True, help="PAIR training file (required)")
    _config_flags(d, dst.DistillConfig,
                  ("--beta", "beta", "teacher score gap weight"),
                  ("--lr", "learning_rate", "SGD learning rate"),
                  ("--epochs", "epochs", "SGD epochs"),
                  ("--batch", "batch_size", "SGD batch size"),
                  ("--dim", "dim", "embedding width, 0 for half the feature length, at least 2"),
                  ("--seed", "seed", "training seed"))
    d.add_argument("--out-encoder", required=True, help="output DENC file (required)")

    gp = sub.add_parser("gen-pairs", help="generate planted-teacher pair files")
    _config_flags(gp, dio.PairSpec,
                  ("--n-train", "n_train", "training pair couples"),
                  ("--n-test", "n_test", "held-out pair couples"),
                  ("--f", "n_features", "feature length"),
                  ("--picks", "picks", "candidates per positive pick"),
                  ("--flip", "label_flip", "label swap fraction"),
                  ("--seed", "seed", "generator seed"))
    gp.add_argument("--out-train", required=True, help="output train PAIR file (required)")
    gp.add_argument("--out-test", required=True, help="output test PAIR file (required)")

    b = sub.add_parser("bench", help="per-query latency of exact vs screened search")
    b.add_argument("--contexts", required=True, help="EMB1 query contexts (required)")
    b.add_argument("--candidates", required=True, help="EMB1 candidates (required)")
    b.add_argument("--model", default="", help="SCRN model; adds the screened searcher")
    b.add_argument("--warmup", type=int, default=10, help="untimed queries (default 10)")
    b.add_argument("--iters", type=int, default=100, help="timed queries (default 100)")
    return p


def _config_flags(parser, cls, *flags):
    """Add an option per (flag, field, help) entry that sets that field of
    the dataclass `cls`; the field's default is the option's default, its
    type and the default its help prints."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for flag, name, text in flags:
        parser.add_argument(flag, dest=name, type=type(defaults[name]), default=defaults[name],
                            help=f"{text} (default %(default)s)")


def _config(cls, args, **given):
    """A `cls` from the parsed flags named like its fields, with `given`
    fields in place of parsed ones."""
    parsed = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
              if hasattr(args, f.name)}
    return cls(**{**parsed, **given})


def _cmd_gen(args) -> int:
    syn = dio.gen_synthetic(_config(dio.SyntheticSpec, args))
    os.makedirs(args.out_dir, exist_ok=True)
    for name in ("train_contexts", "test_contexts", "candidates"):
        dio.write_embeddings(getattr(syn, name), os.path.join(args.out_dir, name + ".emb"))
    for name in ("train_topics", "test_topics", "candidate_topics"):
        dio.write_labels(getattr(syn, name), os.path.join(args.out_dir, name + ".txt"))
    print(f"wrote synthetic corpus to {args.out_dir}")
    return 0


def _cmd_labels(args) -> int:
    contexts = dio.read_embeddings(args.contexts)
    candidates = dio.read_embeddings(args.candidates)
    dio.write_labels(dio.build_labels(contexts, candidates), args.out)
    print(f"wrote {contexts.shape[0]} labels to {args.out}")
    return 0


def _load_trainset(contexts_path, candidates_path, labels_path) -> scr.ScreeningTrainSet:
    return scr.ScreeningTrainSet(
        dio.read_embeddings(contexts_path),
        dio.read_embeddings(candidates_path),
        dio.read_labels(labels_path),
    )


def _cmd_train_screen(args) -> int:
    trainset = _load_trainset(args.contexts, args.candidates, args.labels)
    cfg = _config(scr.TrainConfig, args)
    result = scr.train(trainset, cfg)
    scr.save_model(result.model, args.out_model)
    print(
        f"trained K={cfg.k} lambda={cfg.lam:g} "
        f"(best objective {min(result.losses_after_subset):.6f} at "
        f"step {result.best_step}); model written to {args.out_model}"
    )
    return 0


def _cmd_eval_screen(args) -> int:
    model = scr.load_model(args.model)
    contexts = dio.read_embeddings(args.contexts)
    candidates = dio.read_embeddings(args.candidates)
    report = ev.evaluate_model(model, contexts, candidates)
    cell = ev.GridCell(
        model.k, model.lam, report.accuracy, report.speedup_ratio,
        report.mean_subset_size, args.seed,
    )
    sys.stdout.write(ev.format_report_table([cell]))
    if args.report:
        config = {
            "command": "eval-screen",
            "model": args.model,
            "contexts": args.contexts,
            "candidates": args.candidates,
            "n_candidates": model.n_candidates,
            "seed": args.seed,
        }
        with open(args.report, "w") as fh:
            fh.write(ev.format_report_csv([cell], config))
        print(f"report written to {args.report}")
    return 0


def _parse_list(text, cast, flag):
    try:
        values = [cast(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad value for {flag}: {exc}")
    if not values:
        raise _UsageError(f"{flag} must list at least one value")
    return values


def _cmd_grid(args) -> int:
    trainset = _load_trainset(args.train_contexts, args.candidates, args.labels)
    test_contexts = dio.read_embeddings(args.test_contexts)
    k_list = _parse_list(args.k, int, "--k")
    lam_list = _parse_list(args.lam, float, "--lambda")
    base = _config(scr.TrainConfig, args, k=k_list[0], lam=lam_list[0])
    cells = ev.grid_sweep(trainset, test_contexts, k_list, lam_list, base)
    config = {
        "command": "grid",
        "train_contexts": args.train_contexts,
        "test_contexts": args.test_contexts,
        "candidates": args.candidates,
        "labels": args.labels,
        "k_list": ",".join(str(k) for k in k_list),
        "lambda_list": ",".join(f"{v:g}" for v in lam_list),
        **{n: v for n, v in dataclasses.asdict(base).items() if n not in ("k", "lam")},
    }
    with open(args.report, "w") as fh:
        fh.write(ev.format_report_csv(cells, config))
    sys.stdout.write(ev.format_report_table(cells))
    print(f"report written to {args.report}")
    return 0


def _cmd_search(args) -> int:
    """Answer the whole context file in one call (`argmax_batch`, or
    `screened_search_batch` for --screened) and print one `index score`
    line per context, in input order, with one write; each score is
    `inner_product(context, candidates[index])` bit for bit (`_scores`)."""
    if args.screened and not args.model:
        raise _UsageError("search: --screened requires --model")
    if args.model and not args.screened:
        raise _UsageError("search: --model requires --screened")
    contexts = dio.read_embeddings(args.context_file)
    candidates = dio.read_embeddings(args.candidates)
    if args.screened:
        indices = scr.screened_search_batch(contexts, scr.load_model(args.model), candidates)
    else:
        indices = argmax_batch(contexts, candidates)
    scores = _scores(contexts, candidates.take(indices, axis=0))
    sys.stdout.write("".join(f"{i} {s:.6f}\n" for i, s in zip(indices.tolist(), scores.tolist())))
    return 0


def _cmd_distill(args) -> int:
    pairs = dio.read_pairs(args.pairs)
    cfg = _config(dst.DistillConfig, args)
    result = dst.train_distilled(pairs, None, cfg)
    dst.save_encoder(result.encoder, args.out_encoder)
    print(
        f"distilled beta={cfg.beta:g} over {len(pairs)} pairs "
        f"(final epoch loss {result.epoch_losses[-1]:.6f}); "
        f"encoder written to {args.out_encoder}"
    )
    return 0


def _cmd_gen_pairs(args) -> int:
    train_pairs, test_pairs, _ = dio.gen_pair_data(_config(dio.PairSpec, args))
    dio.write_pairs(train_pairs, args.out_train)
    dio.write_pairs(test_pairs, args.out_test)
    print(
        f"wrote {len(train_pairs)} train and {len(test_pairs)} test pairs "
        f"to {args.out_train}, {args.out_test}"
    )
    return 0


def _cmd_bench(args) -> int:
    contexts = dio.read_embeddings(args.contexts)
    candidates = dio.read_embeddings(args.candidates)

    def bench(mode, model=None):
        stats = ev.bench_latency(
            mode, contexts, candidates, model, warmup=args.warmup, iters=args.iters
        )
        print(
            f"{mode:<8} mean {stats.mean_ns / 1e6:.3f} ms  "
            f"p50 {stats.p50_ns / 1e6:.3f} ms  "
            f"p99 {stats.p99_ns / 1e6:.3f} ms  ({stats.count} queries)"
        )
        return stats

    exact_stats = bench("exact")
    if args.model:
        model = scr.load_model(args.model)
        scr_stats = bench("screened", model)
        print(
            f"wall-clock speedup {exact_stats.mean_ns / scr_stats.mean_ns:.2f}x, "
            f"subset speedup ratio {ev.speedup_ratio(model, contexts):.2f}x"
        )
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "labels": _cmd_labels,
    "train-screen": _cmd_train_screen,
    "eval-screen": _cmd_eval_screen,
    "grid": _cmd_grid,
    "search": _cmd_search,
    "distill": _cmd_distill,
    "gen-pairs": _cmd_gen_pairs,
    "bench": _cmd_bench,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser.format_usage())
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        message = str(exc).rstrip()
        if "usage" not in message.lower():
            message += "\n" + parser.format_usage().rstrip()
        sys.stderr.write(message + "\n")
        return 1
    except (OSError, ValueError, IndexError, KeyError) as exc:
        sys.stderr.write(f"mipscreen: error: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
