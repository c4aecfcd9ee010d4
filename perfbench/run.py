"""mipscreen benchmark: serve-100k, offline-100k and distill-pairs.

    python3 perfbench/run.py --workload serve-100k --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. A fuller record (host, config, every sample count) goes to
``perfbench/out/``. ``--workload all`` runs the three workloads one after
another in this process and prints one result line for each.

Every workload runs every pipeline stage in each round, so that every
end-to-end metric is measured on every workload. A workload picks the input
sizes: its own stages run at full scale, the other stages at a smaller
companion scale. At least MIN_ROUNDS rounds run; after that, a round starts
only if it should end within ``--seconds``. A stage timing, ``setup_s``
included, is the median of its calls in the run. A query's latency is the
interquartile mean of its repeats in the run (see ``iq_mean``), and the
latency percentiles are taken across queries.
Load is closed-loop: one client, one query at a time, or one bulk
``cli.run`` call over a query file.

The benchmark measures from outside the program: it times calls into the
public functions of each module and into ``mipscreen.cli.run``. With
``--trace 1`` rounds alternate between tracing off and on. Traced rounds
record a span around each of those calls, plus probe calls that break the
stages into layers; the per-layer metrics come from those spans, and the
tracing overhead is the traced rounds' stage time minus the untraced rounds'.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, replace
from pathlib import Path

BLAS_THREADS = 1  # one BLAS thread: steadier on a small shared machine
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from mipscreen import cli, core
    from mipscreen import data as dio
    from mipscreen import distill as dst
    from mipscreen import evaluate as ev
    from mipscreen import kmeans as km
    from mipscreen import screening as scr
    from mipscreen import search
except ImportError as exc:
    sys.exit(f"perfbench: cannot import mipscreen from {ROOT / 'src'}: {exc}")

MIN_ROUNDS = 3  # also the number of pair sub-corpora quality is averaged over
LEGS = 4  # a workload's short stages run this many times a round
COMPANION_SEED = 42  # companion inputs stay fixed; --seed varies the workload's own
K, LAM, DIM, TOPICS, SIGMA = 10, 1e-5, 32, 50, 0.3  # acceptance criterion 10
PAIR_FEATURES = 32
RANK_CANDIDATES = 10  # Recall@1/10
# Per-query exact calls cycle over the query file's first EXACT_QUERIES: an
# exact scan costs the same for every query, and fewer queries get more repeats.
EXACT_QUERIES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    own: str  # "screen" or "pairs": the inputs --seed varies
    setup: tuple  # the inputs its set-up reads, timed as setup_s
    short: tuple  # the stages that run LEGS times a round
    n: int  # candidates
    m_train: int  # training contexts; the served model is trained on all
    m_test: int  # held-out contexts: eval set, and the query file's source
    train_rows: int  # contexts the per-round labels and train stages use
    queries: int  # the query file: first rows of the eval set
    screened_per_round: int  # per-query calls, spread over the round
    exact_per_round: int
    pair_train: int  # pair couples per sub-corpus
    pair_test: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve-100k", "screen", ("candidates", "queries", "model"),
                 ("train", "cli_screened", "pairs", "distill", "rank"),
                 100_000, 4000, 1000, 1000, 1000, 10_000, 300, 2000, 500),
        Workload("offline-100k", "screen", ("candidates", "train", "test", "labels"),
                 ("cli_screened", "cli_exact", "pairs", "distill", "rank"),
                 100_000, 4000, 1000, 4000, 100, 3000, 300, 2000, 500),
        Workload("distill-pairs", "pairs", ("pairs_train", "pairs_test"),
                 ("labels", "train", "eval", "cli_screened", "cli_exact", "rank"),
                 10_000, 2000, 1000, 2000, 200, 3000, 440, 20_000, 1000),
    )
}


def tiny(w: Workload) -> Workload:
    """Smoke-test scale of a workload: same stages, seconds to run."""
    return replace(w, n=2000, m_train=200, m_test=60, train_rows=200, queries=40,
                   screened_per_round=110, exact_per_round=22, pair_train=200,
                   pair_test=60)


# ---------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans: [id, parent id, name, start ns, end ns].

    Spans are recorded only while ``enabled``; ``span`` then returns a
    shared null context, so traced and untraced rounds run the same code.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans = []
        self._stack = []

    def records(self):
        return [
            {"id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3],
             "end_ns": s[4], "run_id": self.run_id}
            for s in self.spans
        ]

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL


_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        tr.spans.append([self.sid, tr._stack[-1] if tr._stack else None,
                         self.name, time.perf_counter_ns(), 0])
        tr._stack.append(self.sid)

    def __exit__(self, *exc):
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.sid][4] = time.perf_counter_ns()
        return False


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def _timed(tr, name, fn, *args, **kwargs):
    """Call fn inside a span; return (result, elapsed ns)."""
    with tr.span(name):
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        dt = time.perf_counter_ns() - t0
    return out, dt


# ------------------------------------------------------------- inputs


def pair_seed(seed: int, r: int) -> int:
    return seed if r == 0 else dio.mix_seed(seed, 100 + r)


def pair_spec(w: Workload, seed: int, r: int):
    return dio.PairSpec(n_train=w.pair_train, n_test=w.pair_test,
                        n_features=PAIR_FEATURES, seed=pair_seed(seed, r))


def prepare(w: Workload, seed: int, pairs_seed: int, work: Path) -> dict:
    """Untimed: write the workload's inputs and reference results to disk.

    ``seed`` drives the screening corpus and model, ``pairs_seed`` the pair
    sub-corpora.
    """
    syn = dio.gen_synthetic(dio.SyntheticSpec(
        m_train=w.m_train, m_test=w.m_test, n_candidates=w.n, dim=DIM,
        topics=TOPICS, noise_sigma=SIGMA, seed=seed))
    paths = {
        "candidates": work / "candidates.emb",
        "train": work / "train_contexts.emb",
        "test": work / "test_contexts.emb",
        "queries": work / "queries.emb",
        "labels": work / "labels.txt",
        "model": work / "model.scrn",
    }
    dio.write_embeddings(syn.candidates, paths["candidates"])
    dio.write_embeddings(syn.train_contexts, paths["train"])
    dio.write_embeddings(syn.test_contexts, paths["test"])
    dio.write_embeddings(syn.test_contexts[: w.queries], paths["queries"])
    cfg = scr.TrainConfig(k=K, lam=LAM, alternations=10, seed=seed)
    rows = syn.train_contexts[: w.train_rows]
    labels_rows = dio.build_labels(rows, syn.candidates)
    model_rows = scr.train(
        scr.ScreeningTrainSet(rows, syn.candidates, labels_rows), cfg).model
    if w.train_rows == w.m_train:
        labels, model = labels_rows, model_rows
    else:
        labels = dio.build_labels(syn.train_contexts, syn.candidates)
        model = scr.train(scr.ScreeningTrainSet(
            syn.train_contexts, syn.candidates, labels), cfg).model
    dio.write_labels(labels, paths["labels"])
    scr.save_model(model, paths["model"])
    for r in range(MIN_ROUNDS):
        train_pairs, test_pairs, _ = dio.gen_pair_data(pair_spec(w, pairs_seed, r))
        paths[f"pairs_train{r}"] = work / f"pairs_train{r}.pair"
        paths[f"pairs_test{r}"] = work / f"pairs_test{r}.pair"
        dio.write_pairs(train_pairs, paths[f"pairs_train{r}"])
        dio.write_pairs(test_pairs, paths[f"pairs_test{r}"])
    queries = syn.test_contexts[: w.queries]
    return {
        "paths": paths, "cfg": cfg, "labels_rows": labels_rows,
        "model_rows": model_rows, "model": model, "queries": queries,
        "ref_screened": [scr.screened_search(c, model, syn.candidates) for c in queries],
        "ref_exact": [search.exact_argmax(c, syn.candidates) for c in queries],
    }


INPUTS = ("candidates", "train", "test", "queries", "labels", "model", "pairs_train",
          "pairs_test")


def read_input(tr, key, paths, r):
    """Read one input file; the model is also primed (its subsets unpacked)."""
    if key == "labels":
        return _timed(tr, "data.read_labels", dio.read_labels, paths[key])[0]
    if key == "model":
        model = _timed(tr, "screening.load_model", scr.load_model, paths[key])[0]
        with tr.span("screening.prime"):
            model.member_indices  # unpacks subset_bools on the way
            model.subset_sizes
        return model
    if key.startswith("pairs"):
        return _timed(tr, "data.read_pairs", dio.read_pairs, paths[f"{key}{r}"])[0]
    return _timed(tr, "data.read_embeddings", dio.read_embeddings, paths[key])[0]


def setup(tr, paths, r: int, own) -> tuple:
    """Read every input; return them and the ns the workload's own took.

    Only the workload's own inputs count as its set-up; the companion
    inputs are read afterwards, untimed.
    """
    with tr.span("bench.setup"):
        t0 = time.perf_counter_ns()
        d = {key: read_input(tr, key, paths, r) for key in own}
        ns = time.perf_counter_ns() - t0
        d.update((key, read_input(tr, key, paths, r)) for key in INPUTS if key not in own)
    return d, ns


# ------------------------------------------------------------- stages


class Checks:
    """Operations attempted and failed; a failure is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def _result_line(r) -> str:
    return f"{r.index} {r.score:.6f}"


def _median(values):
    return float(statistics.median(values))


def _pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def iq_mean(values) -> float:
    """Interquartile mean: the mean of the middle half of one query's repeats.

    On a shared virtual machine the CPU's speed switches between a quiet and
    a contended state; on a 2-vCPU VM the contended state cost Python-bound
    code 30-60%, a state lasted from tens of milliseconds to tens of
    seconds, and the contended share of a run varied from run to run. A
    query takes microseconds, so each repeat falls wholly in one state, and
    a median or a low quantile of the repeats jumps from one state to the
    other as that share crosses it. A mean moves smoothly with the share, as
    a stage's duration does; dropping the outer quarters removes interrupt
    spikes.
    """
    ranked = sorted(values)
    q = len(ranked) // 4
    return float(np.mean(ranked[q: len(ranked) - q]))


def per_query(samples) -> list:
    """Each query's latency: the interquartile mean of its repeats."""
    return [iq_mean(v) for v in samples if v]


class Bench:
    """One run's state: inputs, samples, checks and spans.

    A round runs every stage in STAGES order, then LEGS - 1 more times
    each of the workload's short stages. Every stage is preceded by a
    set-up and followed by a serve slot: a share of the round's per-query
    calls. So samples of every kind spread over the whole run and over many
    fresh copies of the inputs, and every timing sees both the quiet and
    the contended states of a shared host (see ``iq_mean``).
    """

    STAGES = ("labels", "train", "eval", "cli_screened", "cli_exact", "pairs",
              "distill", "rank")

    def __init__(self, w: Workload, seed: int, work: Path, run_id: str):
        self.w = w
        self.screen_seed = seed if w.own == "screen" else COMPANION_SEED
        self.pairs_seed = seed if w.own == "pairs" else COMPANION_SEED
        self.tr = Tracer(run_id)
        self.chk = Checks()
        self.s = {}  # sample lists by name
        self.counts = {}
        self.recall = {}  # pair sub-corpus -> Recall@1/10
        self.quality = None  # (accuracy, speedup ratio) of the served model
        self.prep = prepare(w, self.screen_seed, self.pairs_seed, work)
        self.d = None  # the latest set-up's inputs
        self.cursor = {"screened": 0, "exact": 0}
        model, q = self.prep["model"], self.prep["queries"]
        for c, got, want in zip(q, self.prep["ref_screened"], self.prep["ref_exact"]):
            # acceptance criterion 7: where the exact winner survives
            # screening, screened search must return it
            if np.any(scr.predict_subset(c, model) == want.index):
                self.chk.check(got.index == want.index,
                               f"screened {got.index} != exact {want.index}")

    def sample(self, key, ns):
        self.s.setdefault(key, []).append(ns)

    def timed(self, key, span, fn, *args, **kwargs):
        out, ns = _timed(self.tr, span, fn, *args, **kwargs)
        self.sample(key, ns)
        return out

    def round(self, sub: int):
        self.sub = sub
        steps = list(self.STAGES) + list(self.w.short) * (LEGS - 1)
        with self.tr.span("bench.round"):
            for step in steps:
                self.step_setup()
                getattr(self, "step_" + step)()
                self.serve_slot(math.ceil(self.w.screened_per_round / len(steps)),
                                math.ceil(self.w.exact_per_round / len(steps)))

    # -- steps

    def step_setup(self):
        self.d, ns = setup(self.tr, self.prep["paths"], self.sub, self.w.setup)
        self.sample("setup", ns)

    def serve_slot(self, n_screened, n_exact):
        """Closed-loop per-query calls, cycling through the query file."""
        d = self.d
        gc.disable()  # as timeit does: collector pauses are the benchmark's own
        try:
            with self.tr.span("bench.serve_slot"):
                for kind, n, span, fn, args in (
                    ("screened", n_screened, "screening.screened_search",
                     scr.screened_search, (d["model"], d["candidates"])),
                    ("exact", n_exact, "search.exact_argmax",
                     search.exact_argmax, (d["candidates"],)),
                ):
                    ref = self.prep["ref_" + kind]
                    cycle = len(ref)
                    if kind == "exact":
                        cycle = min(EXACT_QUERIES, cycle)
                    repeats = self.s.setdefault(kind, [[] for _ in range(cycle)])
                    for _ in range(n):
                        i = self.cursor[kind]
                        self.cursor[kind] = (i + 1) % cycle
                        got, ns = _timed(self.tr, span, fn, d["queries"][i], *args)
                        repeats[i].append(ns)
                        self.chk.check(got == ref[i],
                                       f"{kind} query {i}: {got} != {ref[i]}")
        finally:
            gc.enable()

    def step_labels(self):
        rows = self.d["train"][: self.w.train_rows]
        self.labels = self.timed("labels", "data.build_labels", dio.build_labels,
                                 rows, self.d["candidates"])
        self.chk.check(np.array_equal(self.labels, self.prep["labels_rows"]),
                       "labels differ from preparation")

    def step_train(self):
        self.trainset = scr.ScreeningTrainSet(
            self.d["train"][: self.w.train_rows], self.d["candidates"], self.labels)
        model = self.timed("train", "screening.train", scr.train, self.trainset,
                           self.prep["cfg"]).model
        ref = self.prep["model_rows"]
        self.chk.check(model.centroids.tobytes() == ref.centroids.tobytes()
                       and model.subsets.tobytes() == ref.subsets.tobytes(),
                       "retrained model differs from preparation")

    def step_eval(self):
        report = self.timed("eval", "evaluate.evaluate_model", ev.evaluate_model,
                            self.d["model"], self.d["test"], self.d["candidates"])
        quality = (report.accuracy, report.speedup_ratio)
        self.quality = self.quality or quality
        self.chk.check(quality == self.quality, "eval quality changed between rounds")

    def _cli(self, mode):
        paths = self.prep["paths"]
        argv = ["search", "--" + mode, "--context-file", str(paths["queries"]),
                "--candidates", str(paths["candidates"])]
        if mode == "screened":
            argv += ["--model", str(paths["model"])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.timed("cli_" + mode, "cli.run", cli.run, argv)
        lines = buf.getvalue().splitlines()
        ref = self.prep["ref_" + mode]
        self.chk.check(code == 0, f"cli search --{mode} exited {code}")
        self.chk.check(len(lines) == len(ref),
                       f"cli search --{mode} printed {len(lines)} lines, want {len(ref)}")
        for i, (line, r) in enumerate(zip(lines, ref)):
            self.chk.check(line == _result_line(r),
                           f"cli search --{mode} line {i}: {line!r} != {_result_line(r)!r}")
        self.counts["cli_lines"] = len(lines)

    def step_cli_screened(self):
        self._cli("screened")

    def step_cli_exact(self):
        self._cli("exact")

    def step_pairs(self):
        with _counting_teacher(self.tr, self.counts):
            train_pairs, _, self.teacher = self.timed(
                "pairs", "data.gen_pair_data", dio.gen_pair_data,
                pair_spec(self.w, self.pairs_seed, self.sub))
        disk = self.d["pairs_train"]
        self.chk.check(all(np.array_equal(a, b) for a, b in (
            (train_pairs.ctx_features, disk.ctx_features),
            (train_pairs.resp_features, disk.resp_features),
            (train_pairs.labels, disk.labels),
            (train_pairs.teacher_scores, disk.teacher_scores))),
            "regenerated pairs differ from the PAIR file")

    def step_distill(self):
        cfg = dst.DistillConfig(beta=1.0, seed=self.pairs_seed)
        result = self.timed("distill", "distill.train_distilled", dst.train_distilled,
                            self.d["pairs_train"], None, cfg)
        self.encoder = result.encoder
        self.final_loss = result.epoch_losses[-1]
        self.chk.check(math.isfinite(self.final_loss), "distillation loss is not finite")

    def step_rank(self):
        tr, test = self.tr, self.d["pairs_test"]
        pos_ctx, pool = test.ctx_features[0::2], test.resp_features[0::2]
        calls = [0]
        with tr.span("bench.rank_eval"):
            t0 = time.perf_counter_ns()
            instances = _timed(tr, "distill.ranking_instances_by_teacher",
                               dst.ranking_instances_by_teacher, self.teacher, pos_ctx,
                               pool, RANK_CANDIDATES, seed=1000 + self.pairs_seed)[0]
            recall = _timed(tr, "search.recall_at_1", search.recall_at_1,
                            _scorer(tr, self.encoder, calls), instances,
                            pos_ctx, pool)[0]
            self.sample("rank", time.perf_counter_ns() - t0)
        self.counts["scorer_calls"] = calls[0]
        self.chk.check(0.0 <= recall <= 1.0, f"recall {recall} outside [0, 1]")
        self.chk.check(self.recall.setdefault(self.sub, recall) == recall,
                       f"recall of sub-corpus {self.sub} changed between rounds")

    # -- probes, traced rounds only

    def probes(self):
        with self.tr.span("bench.probe"):
            self.probe_serve()
            self.probe_offline()
            self.probe_distill()

    def probe_serve(self):
        """Split screened search into assign and score; time the batched
        exact baseline; measure what one exact call allocates."""
        d = self.d
        model, cands, queries = d["model"], d["candidates"], d["queries"]
        for c in queries:
            members = self.timed("assign", "screening.predict_subset",
                                 scr.predict_subset, c, model)
            _, ns = _timed(self.tr, "screening.screened_search",
                           scr.screened_search, c, model, cands)
            self.sample("score", ns - self.s["assign"][-1])
            self.sample("subset_size", members.size)
        self.timed("argmax_batch", "search.argmax_batch", search.argmax_batch,
                   queries, cands)
        tracemalloc.start()
        search.exact_argmax(queries[0], cands)
        self.counts["exact_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    def probe_offline(self):
        """Replay one training alternation through the public screening
        functions; time k-means and screening accuracy on their own."""
        ts, cfg = self.trainset, self.prep["cfg"]
        fit = self.timed("kmeans", "kmeans.fit_spherical_kmeans",
                         km.fit_spherical_kmeans, ts.contexts,
                         km.KMeansConfig(k=cfg.k, seed=cfg.seed))
        self.counts["kmeans_iters"] = len(fit.objective)
        mu = _timed(self.tr, "screening.soft_assign_batch", scr.soft_assign_batch,
                    ts.contexts, fit.centroids)[0]
        alpha = self.timed("alpha", "screening.compute_alpha", scr.compute_alpha,
                           mu, ts, cfg.lam)
        bits = self.timed("update", "screening.update_subsets",
                          scr.update_subsets, alpha)
        model = scr.ScreeningModel(fit.centroids, scr.pack_subsets(bits), cfg.lam,
                                   ts.candidates.shape[0])
        model.subset_bools
        m = ts.contexts.shape[0]
        for lo in range(0, m, cfg.batch_size):
            hi = lo + cfg.batch_size
            self.timed("gradient", "screening.centroid_gradient",
                       scr.centroid_gradient, model, ts.contexts[lo:hi],
                       ts.labels[lo:hi])
        self.timed("loss", "screening.total_loss", scr.total_loss, model, ts)
        self.counts["gradient_calls"] = (
            cfg.alternations * cfg.epochs_per_alternation * math.ceil(m / cfg.batch_size))
        self.timed("accuracy", "evaluate.screening_accuracy", ev.screening_accuracy,
                   self.d["model"], self.d["test"], self.d["candidates"])

    def probe_distill(self, batches=100):
        """Time loss_and_gradients on 64-pair batches of the train pairs."""
        pairs = self.d["pairs_train"]
        cfg = dst.DistillConfig(beta=1.0, seed=self.pairs_seed)
        f = pairs.ctx_features.shape[1]
        rng = np.random.default_rng(self.pairs_seed)
        w_ctx = rng.normal(0.0, 0.1, (f, f // 2))
        w_resp = rng.normal(0.0, 0.1, (f, f // 2))
        ctx = pairs.ctx_features.astype(np.float64)
        resp = pairs.resp_features.astype(np.float64)
        scores = pairs.teacher_scores.astype(np.float64)
        y = pairs.labels.astype(np.float64)
        for b in range(min(batches, len(pairs) // cfg.batch_size)):
            sl = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
            self.timed("lossgrad", "distill.loss_and_gradients", dst.loss_and_gradients,
                       w_ctx, w_resp, ctx[sl], resp[sl], scores[sl], y[sl], cfg.beta)


def _scorer(tr, encoder, counter):
    w_c = encoder.w_ctx.astype(np.float64)
    w_r = encoder.w_resp.astype(np.float64)

    def score(c, r):
        counter[0] += 1
        if not tr.enabled:
            return core.score_dual(c @ w_c, r @ w_r)
        with tr.span("core.score_dual"):
            return core.score_dual(c @ w_c, r @ w_r)

    return score


@contextlib.contextmanager
def _counting_teacher(tr, counts):
    """Count and span PlantedTeacher.score_batch calls while tracing."""
    if not tr.enabled:
        yield
        return
    orig = dst.PlantedTeacher.score_batch
    counts["teacher_calls"] = 0

    def score_batch(self, *args):
        counts["teacher_calls"] += 1
        with tr.span("distill.PlantedTeacher.score_batch"):
            return orig(self, *args)

    dst.PlantedTeacher.score_batch = score_batch
    try:
        yield
    finally:
        dst.PlantedTeacher.score_batch = orig


# ------------------------------------------------------------------ run


def run_workload(name, seed, seconds, trace, scale="full", out_dir=None):
    """One benchmark run; returns (result line dict, record dict, tracer)."""
    w = WORKLOADS[name] if scale == "full" else tiny(WORKLOADS[name])
    out_dir = Path(out_dir or BENCH_DIR / "out")
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}-{time.time_ns()}"
    work = out_dir / f"work-{run_id}"
    work.mkdir(parents=True)
    try:
        t_prep = time.perf_counter()
        b = Bench(w, seed, work, run_id)
        prep_s = time.perf_counter() - t_prep
        start = time.perf_counter()
        rnd, last_s = 0, 0.0
        # traced runs alternate untraced and traced rounds after a first,
        # warm-up round; a round starts only if it should end in time
        while rnd < MIN_ROUNDS or time.perf_counter() - start + last_s < seconds:
            b.tr.enabled = bool(trace) and rnd % 2 == 1
            t0 = time.perf_counter_ns()
            b.round(rnd % MIN_ROUNDS)
            if rnd > 0:
                b.sample("round_traced" if b.tr.enabled else "round_untraced",
                         time.perf_counter_ns() - t0)
            if b.tr.enabled:
                b.probes()
            last_s = (time.perf_counter_ns() - t0) * 1e-9
            rnd += 1
        wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked_reference = scale == "full" and check_reference(name, seed, b)
    metrics = per_layer_metrics(b) if trace else end_to_end_metrics(b)
    chk = b.chk
    line = {"correct": chk.failed == 0, "attempted": chk.attempted,
            "failed": chk.failed, "metrics": metrics}
    record = {
        "workload": name,
        "scale": scale,
        "seed": seed,
        "trace": int(trace),
        "run_id": run_id,
        "rounds": rnd,
        "prepare_s": prep_s,
        "measure_s": wall_s,
        "samples": b.s,
        "failures": chk.notes,
        "checked_reference": checked_reference,
        "host": host_record(),
        "config": config_record(b),
        "result": line,
    }
    return line, record, b.tr


def _wrap(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(b) -> dict:
    w, s = b.w, b.s
    us, sec = 1e-3, 1e-9
    recall = [b.recall[r] for r in range(MIN_ROUNDS)]
    accuracy, speedup = b.quality
    screened, exact = per_query(s["screened"]), per_query(s["exact"])
    return {
        "setup_s": _wrap(_median(s["setup"]) * sec, "s"),
        "screened_p50_us": _wrap(_pct(screened, 50) * us, "us"),
        "screened_p99_us": _wrap(_pct(screened, 99) * us, "us"),
        "exact_p50_us": _wrap(_pct(exact, 50) * us, "us"),
        "exact_p99_us": _wrap(_pct(exact, 99) * us, "us"),
        "screened_qps": _wrap(w.queries / (_median(s["cli_screened"]) * sec), "1/s"),
        "exact_qps": _wrap(w.queries / (_median(s["cli_exact"]) * sec), "1/s"),
        "accuracy": _wrap(accuracy, "fraction"),
        "speedup_ratio": _wrap(speedup, "x"),
        "labels_s": _wrap(_median(s["labels"]) * sec, "s"),
        "train_s": _wrap(_median(s["train"]) * sec, "s"),
        "eval_s": _wrap(_median(s["eval"]) * sec, "s"),
        "pairs_s": _wrap(_median(s["pairs"]) * sec, "s"),
        "distill_s": _wrap(_median(s["distill"]) * sec, "s"),
        "rank_eval_s": _wrap(_median(s["rank"]) * sec, "s"),
        "recall_at_1": _wrap(sum(recall) / len(recall), "fraction"),
    }


def per_layer_metrics(b) -> dict:
    w, s, spans = b.w, b.s, b.tr.spans

    def span_median(name, per="call", scale=1e-9):
        """Median span time, per call or summed per set-up repetition."""
        if per == "call":
            vals = [sp[4] - sp[3] for sp in spans if sp[2] == name]
        else:
            totals = {}
            for sp in spans:
                if sp[2] == name:
                    totals[sp[1]] = totals.get(sp[1], 0) + sp[4] - sp[3]
            vals = list(totals.values())
        return _median(vals) * scale

    c = b.counts
    ms, us, sec = 1e-6, 1e-3, 1e-9
    screened_us = span_median("screening.screened_search", scale=us)
    exact_us = span_median("search.exact_argmax", scale=us)
    sizes = np.asarray(s["subset_size"], dtype=np.float64)
    argmax_batch_s = _median(s["argmax_batch"]) * sec
    return {
        "data.read_embeddings_s": _wrap(span_median("data.read_embeddings", "rep"), "s"),
        "data.read_pairs_s": _wrap(span_median("data.read_pairs", "rep"), "s"),
        "screening.load_model_s": _wrap(span_median("screening.load_model"), "s"),
        "screening.prime_s": _wrap(span_median("screening.prime"), "s"),
        "search.exact_argmax_us": _wrap(exact_us, "us"),
        "search.exact_cast_bytes": _wrap(c["exact_alloc_bytes"], "bytes"),
        "search.argmax_batch_s": _wrap(argmax_batch_s, "s"),
        "search.argmax_batch_qps": _wrap(w.queries / argmax_batch_s, "1/s"),
        "screening.predict_subset_us": _wrap(_median(s["assign"]) * us, "us"),
        "screening.score_us": _wrap(_median(s["score"]) * us, "us"),
        "screening.mean_subset_size": _wrap(sizes.mean(), "count"),
        "screening.fallback_rate": _wrap(np.mean(sizes == w.n), "fraction"),
        "screening.dot_products_per_query": _wrap(sizes.mean() + K, "count"),
        "kmeans.fit_s": _wrap(_median(s["kmeans"]) * sec, "s"),
        "kmeans.iters": _wrap(c["kmeans_iters"], "count"),
        "screening.compute_alpha_ms": _wrap(_median(s["alpha"]) * ms, "ms"),
        "screening.update_subsets_ms": _wrap(_median(s["update"]) * ms, "ms"),
        "screening.centroid_gradient_ms": _wrap(_median(s["gradient"]) * ms, "ms"),
        "screening.total_loss_ms": _wrap(_median(s["loss"]) * ms, "ms"),
        "screening.gradient_calls": _wrap(c["gradient_calls"], "count"),
        "evaluate.screening_accuracy_s": _wrap(_median(s["accuracy"]) * sec, "s"),
        "evaluate.wall_clock_speedup": _wrap(exact_us / screened_us, "x"),
        "data.gen_pair_data_s": _wrap(span_median("data.gen_pair_data"), "s"),
        "distill.teacher_calls": _wrap(c["teacher_calls"], "count"),
        "distill.loss_and_gradients_us": _wrap(_median(s["lossgrad"]) * us, "us"),
        "distill.final_loss": _wrap(b.final_loss, "nats"),
        "search.recall_at_1_s": _wrap(span_median("search.recall_at_1"), "s"),
        "search.scorer_calls": _wrap(c["scorer_calls"], "count"),
        "cli.search_screened_s": _wrap(_median(s["cli_screened"]) * sec, "s"),
        "cli.search_exact_s": _wrap(_median(s["cli_exact"]) * sec, "s"),
        "cli.output_lines": _wrap(c["cli_lines"], "count"),
        "trace.overhead_s": _wrap((_median(s["round_traced"])
                                   - _median(s["round_untraced"])) * sec, "s"),
    }


# ------------------------------------------------------------ records


def check_reference(name, seed, b) -> bool:
    """At a seed that perfbench/reference.json lists for the workload, each
    exact-valued metric must equal it; a difference is a failed operation.
    Returns whether the seed is listed."""
    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    ref = ref.get(name, {}).get(str(seed), {})
    got = end_to_end_metrics(b)
    for key, want in ref.items():
        b.chk.check(got[key]["value"] == want,
                    f"{key} {got[key]['value']!r} != reference {want!r}")
    return bool(ref)


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or the requested count."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def config_record(b):
    return {
        "workload": asdict(b.w),
        "screen_seed": b.screen_seed,
        "pairs_seed": b.pairs_seed,
        "dim": DIM, "topics": TOPICS, "sigma": SIGMA,
        "train": asdict(b.prep["cfg"]),
        "pair_features": PAIR_FEATURES,
        "pair_subcorpora": MIN_ROUNDS,
        "rank_candidates": RANK_CANDIDATES,
        "exact_queries": EXACT_QUERIES,
        "legs": LEGS,
        "load": "closed loop, one client, one query or one bulk call at a time",
    }


def write_outputs(record, tr, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if record["trace"]:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
            for rec in tr.records():
                fh.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = BENCH_DIR / "out"
    for name in names:
        line, record, tr = run_workload(name, args.seed, args.seconds, args.trace,
                                        out_dir=out_dir)
        write_outputs(record, tr, out_dir)
        for key, m in line["metrics"].items():
            print(f"{name:14s} {key:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
        for note in record["failures"]:
            print(f"{name}: FAILED {note}", file=sys.stderr)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
