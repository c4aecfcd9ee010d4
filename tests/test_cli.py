"""Command-line surface: pipelines, exit codes, and idempotence."""

import dataclasses
import hashlib
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from mipscreen import cli, core, search
from mipscreen.cli import run
from mipscreen.core import inner_product
from mipscreen.data import (
    PairSpec,
    SyntheticSpec,
    gen_pair_data,
    gen_synthetic,
    read_embeddings,
    write_embeddings,
    write_pairs,
)
from mipscreen.distill import DistillConfig, DualEncoder, PairSet, load_encoder, save_encoder
from mipscreen.screening import ScreeningModel, TrainConfig, pack_subsets, save_model
from mipscreen.search import exact_argmax


def _digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    code = run(
        [
            "gen", "--m-train", "200", "--m-test", "40", "--n", "60",
            "--d", "8", "--topics", "6", "--seed", "13", "--out-dir", str(d),
        ]
    )
    assert code == 0
    code = run(
        [
            "labels", "--contexts", str(d / "train_contexts.emb"),
            "--candidates", str(d / "candidates.emb"),
            "--out", str(d / "labels.txt"),
        ]
    )
    assert code == 0
    return d


class TestPipeline:
    def test_gen_writes_expected_files(self, corpus):
        for name in ("train_contexts.emb", "test_contexts.emb", "candidates.emb"):
            assert (corpus / name).exists()
        assert read_embeddings(corpus / "candidates.emb").shape == (60, 8)

    def test_gen_idempotent(self, corpus, tmp_path):
        code = run(
            [
                "gen", "--m-train", "200", "--m-test", "40", "--n", "60",
                "--d", "8", "--topics", "6", "--seed", "13",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        for name in ("train_contexts.emb", "candidates.emb"):
            assert _digest(tmp_path / name) == _digest(corpus / name)

    def test_train_eval_round(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "model.scrn"
        code = run(
            [
                "train-screen", "--contexts", str(corpus / "train_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"),
                "--labels", str(corpus / "labels.txt"),
                "--k", "4", "--lambda", "1e-4", "--seed", "3",
                "--out-model", str(model_path),
            ]
        )
        assert code == 0
        assert model_path.exists()
        report_path = tmp_path / "eval.csv"
        code = run(
            [
                "eval-screen", "--model", str(model_path),
                "--contexts", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        lines = report_path.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert any(line.startswith("K,lambda") for line in lines)

    def test_train_deterministic_files(self, corpus, tmp_path):
        paths = [tmp_path / "a.scrn", tmp_path / "b.scrn"]
        for p in paths:
            code = run(
                [
                    "train-screen", "--contexts", str(corpus / "train_contexts.emb"),
                    "--candidates", str(corpus / "candidates.emb"),
                    "--labels", str(corpus / "labels.txt"),
                    "--k", "3", "--seed", "21", "--out-model", str(p),
                ]
            )
            assert code == 0
        assert _digest(paths[0]) == _digest(paths[1])

    def test_grid_default_has_twelve_rows(self, corpus, tmp_path, capsys):
        report = tmp_path / "grid.csv"
        code = run(
            [
                "grid", "--train-contexts", str(corpus / "train_contexts.emb"),
                "--test-contexts", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"),
                "--labels", str(corpus / "labels.txt"),
                "--report", str(report),
            ]
        )
        assert code == 0
        capsys.readouterr()
        rows = [
            line for line in report.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("K,")
        ]
        assert len(rows) == 12  # 3 cluster counts x 4 coefficients

    def test_search_exact_vs_screened_all_full(self, corpus, tmp_path, capsys):
        candidates = read_embeddings(corpus / "candidates.emb")
        model = ScreeningModel(
            np.ones((2, candidates.shape[1]), dtype=np.float32),
            pack_subsets(np.ones((2, candidates.shape[0]), dtype=bool)),
            1e-4,
            candidates.shape[0],
        )
        model_path = tmp_path / "full.scrn"
        save_model(model, model_path)
        args = [
            "search", "--context-file", str(corpus / "test_contexts.emb"),
            "--candidates", str(corpus / "candidates.emb"),
        ]
        assert run(args + ["--exact"]) == 0
        exact_out = capsys.readouterr().out
        assert run(args + ["--screened", "--model", str(model_path)]) == 0
        screened_out = capsys.readouterr().out
        assert exact_out == screened_out

    @pytest.mark.parametrize("dim", [7, 33])
    def test_search_scores_print_as_inner_products(self, tmp_path, capsys, dim):
        rng = np.random.default_rng(dim)
        contexts = rng.normal(size=(50, dim)).astype(np.float32)
        candidates = rng.normal(size=(300, dim)).astype(np.float32)
        write_embeddings(contexts, tmp_path / "c.emb")
        write_embeddings(candidates, tmp_path / "r.emb")
        bits = rng.random((3, 300)) < 0.5
        model = ScreeningModel(rng.normal(size=(3, dim)).astype(np.float32),
                               pack_subsets(bits), 1e-4, 300)
        save_model(model, tmp_path / "m.scrn")
        args = ["search", "--context-file", str(tmp_path / "c.emb"),
                "--candidates", str(tmp_path / "r.emb")]
        for mode in (["--exact"], ["--screened", "--model", str(tmp_path / "m.scrn")]):
            assert run(args + mode) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 50
            for c, line in zip(contexts, lines):
                i = int(line.split()[0])
                assert line == f"{i} {inner_product(c, candidates[i]):.6f}"

    @pytest.mark.parametrize("dim", [1, 7, 32, 33])
    def test_search_scores_are_inner_products_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        contexts = rng.normal(size=(2000, dim)).astype(np.float32)
        rows = (rng.normal(size=(2000, dim)) * rng.lognormal(size=(2000, 1))).astype(np.float32)
        contexts[11] = 0
        want = np.array([inner_product(c, r) for c, r in zip(contexts, rows)])
        assert search._scores(contexts, rows).tobytes() == want.tobytes()
        # a broadcast context, as `top_k` passes its one context
        want = np.array([inner_product(contexts[5], r) for r in rows])
        broadcast = np.broadcast_to(contexts[5], rows.shape)
        assert search._scores(broadcast, rows).tobytes() == want.tobytes()

    def test_search_exact_on_the_ball_path_prints_inner_products(self, tmp_path, capsys,
                                                                 monkeypatch):
        # 8-row tiles and 4-query blocks, as in test_ball_path.py: 64 queries
        # over 400 clustered rows take the ball path
        monkeypatch.setattr(core, "_TILE_ROWS", 8)
        monkeypatch.setattr(core, "_BLOCK_ROWS", 4)
        built = []
        build = core._balls
        monkeypatch.setattr(core, "_balls", lambda *a: built.append(build(*a)) or built[-1])
        syn = gen_synthetic(SyntheticSpec(m_train=8, m_test=64, n_candidates=400, dim=6,
                                          topics=3, noise_sigma=0.1, seed=16))
        write_embeddings(syn.test_contexts, tmp_path / "c.emb")
        write_embeddings(syn.candidates, tmp_path / "r.emb")
        assert run(["search", "--exact", "--context-file", str(tmp_path / "c.emb"),
                    "--candidates", str(tmp_path / "r.emb")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(built) == 1 and built[0] is not None
        monkeypatch.undo()
        for c, line in zip(syn.test_contexts, lines, strict=True):
            i = exact_argmax(c, syn.candidates).index
            assert line == f"{i} {inner_product(c, syn.candidates[i]):.6f}"

    def test_bench_runs(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "m.scrn"
        run(
            [
                "train-screen", "--contexts", str(corpus / "train_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"),
                "--labels", str(corpus / "labels.txt"),
                "--k", "4", "--out-model", str(model_path),
            ]
        )
        code = run(
            [
                "bench", "--contexts", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"),
                "--model", str(model_path), "--warmup", "2", "--iters", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact" in out and "screened" in out

    def test_distill_pipeline(self, tmp_path, capsys):
        train_path = tmp_path / "train.pair"
        test_path = tmp_path / "test.pair"
        code = run(
            [
                "gen-pairs", "--n-train", "40", "--n-test", "20", "--seed", "5",
                "--out-train", str(train_path), "--out-test", str(test_path),
            ]
        )
        assert code == 0
        enc_path = tmp_path / "enc.denc"
        code = run(
            [
                "distill", "--pairs", str(train_path), "--beta", "0.5",
                "--epochs", "4", "--out-encoder", str(enc_path),
            ]
        )
        assert code == 0
        assert enc_path.exists()
        capsys.readouterr()


class TestExitCodes:
    def test_help_exits_zero_everywhere(self, capsys):
        documented_defaults = {
            "gen", "train-screen", "grid", "distill", "gen-pairs", "bench",
        }
        for cmd in (
            [], ["gen"], ["labels"], ["train-screen"], ["eval-screen"],
            ["grid"], ["search"], ["distill"], ["gen-pairs"], ["bench"],
        ):
            with pytest.raises(SystemExit) as exc:
                run(cmd + ["--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "usage" in out.lower()
            if cmd and cmd[0] in documented_defaults:
                assert "default" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["gen", "--out-dir", "/tmp/x", "--bogus", "1"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unparseable_value_is_usage_error(self, capsys):
        assert run(["gen", "--out-dir", "/tmp/x", "--n", "lots"]) == 1
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_screened_without_model_is_usage_error(self, corpus, capsys):
        code = run(
            [
                "search", "--screened",
                "--context-file", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"),
            ]
        )
        assert code == 1
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["alone", "exact"])
    def test_model_without_screened_is_usage_error(self, corpus, capsys, mode):
        code = run(
            [
                "search", *mode, "--model", "/nonexistent.scrn",
                "--context-file", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "search: --model requires --screened" in captured.err
        assert captured.out == ""

    def test_missing_file_is_data_error(self, capsys):
        code = run(
            [
                "labels", "--contexts", "/nope/missing.emb",
                "--candidates", "/nope/missing2.emb", "--out", "/tmp/out.txt",
            ]
        )
        assert code == 2
        assert "/nope/missing.emb" in capsys.readouterr().err

    def test_candidate_count_mismatch_is_data_error(self, corpus, tmp_path, capsys):
        candidates = read_embeddings(corpus / "candidates.emb")
        model = ScreeningModel(
            np.ones((1, candidates.shape[1]), dtype=np.float32),
            pack_subsets(np.ones((1, 7), dtype=bool)),
            1e-4,
            7,
        )
        model_path = tmp_path / "tiny.scrn"
        save_model(model, model_path)
        code = run(
            [
                "search", "--screened", "--model", str(model_path),
                "--context-file", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "mipscreen: error: candidate count mismatch: candidates 60 vs model 7\n"

    def test_corrupt_model_is_data_error(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.scrn"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = run(
            [
                "eval-screen", "--model", str(bad),
                "--contexts", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"),
            ]
        )
        assert code == 2
        assert "magic" in capsys.readouterr().err


class TestCachedParser:
    """One parser serves every `run` call in a process; no flag value may
    carry over from one call to the next."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_screened_model_does_not_carry_over(self, corpus, tmp_path, capsys):
        candidates = read_embeddings(corpus / "candidates.emb")
        bits = np.zeros((1, candidates.shape[0]), dtype=bool)
        bits[0, 0] = True  # every query answers candidate 0
        model_path = tmp_path / "one.scrn"
        save_model(ScreeningModel(np.ones((1, candidates.shape[1]), dtype=np.float32),
                                  pack_subsets(bits), 1e-4, candidates.shape[0]), model_path)
        args = ["search", "--context-file", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb")]
        assert run(args + ["--exact"]) == 0
        exact_out = capsys.readouterr().out
        assert run(args + ["--screened", "--model", str(model_path)]) == 0
        screened_out = capsys.readouterr().out
        assert screened_out != exact_out
        assert {line.split()[0] for line in screened_out.splitlines()} == {"0"}
        assert run(args + ["--exact"]) == 0
        captured = capsys.readouterr()
        assert captured.out == exact_out and captured.err == ""
        assert run(args) == 0  # the default mode is exact
        assert capsys.readouterr().out == exact_out

    def test_defaults_return_after_a_flag(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "train-screen", lambda args: seen.append(args) or 0)
        argv = ["train-screen", "--contexts", "c.emb", "--candidates", "r.emb",
                "--labels", "l.txt", "--out-model", "m.scrn"]
        assert run(argv + ["--t", "3", "--k", "5", "--lambda", "0.01"]) == 0
        assert run(argv) == 0
        assert [(a.alternations, a.k, a.lam) for a in seen] == [(3, 5, 0.01), (10, 10, 1e-6)]
        assert seen[0] is not seen[1]

    def test_usage_error_and_help_after_a_good_call(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, "labels", lambda args: 0)
        good = ["labels", "--contexts", "c.emb", "--candidates", "r.emb", "--out", "l.txt"]
        assert run(good) == 0
        assert run(good + ["--bogus"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --bogus" in err and "usage" in err.lower()
        assert run(["labels", "--contexts", "c.emb"]) == 1
        assert "required" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(["labels", "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()
        assert run(good) == 0


class TestInputMismatch:
    def _model(self, tmp_path, dim, n=60):
        path = tmp_path / f"d{dim}.scrn"
        bits = np.ones((2, n), dtype=bool)
        model = ScreeningModel(np.eye(2, dim, dtype=np.float32), pack_subsets(bits), 0.5, n)
        save_model(model, path)
        return path

    def test_eval_screen_empty_contexts(self, corpus, tmp_path, capsys):
        empty = tmp_path / "empty.emb"
        write_embeddings(np.zeros((0, 8), dtype=np.float32), empty)
        argv = ["eval-screen", "--model", str(self._model(tmp_path, 8)),
                "--contexts", str(empty), "--candidates", str(corpus / "candidates.emb")]
        _assert_one_line_data_error(argv, capsys, "need at least one context")

    def test_grid_empty_test_contexts(self, corpus, tmp_path, capsys):
        empty = tmp_path / "empty.emb"
        write_embeddings(np.zeros((0, 8), dtype=np.float32), empty)
        argv = ["grid", "--train-contexts", str(corpus / "train_contexts.emb"),
                "--test-contexts", str(empty),
                "--candidates", str(corpus / "candidates.emb"),
                "--labels", str(corpus / "labels.txt"),
                "--report", str(tmp_path / "grid.csv")]
        _assert_one_line_data_error(argv, capsys, "need at least one context")
        assert not (tmp_path / "grid.csv").exists()

    def test_grid_test_contexts_dimension(self, corpus, tmp_path, capsys):
        wide = tmp_path / "wide.emb"
        write_embeddings(np.ones((5, 10), dtype=np.float32), wide)
        argv = ["grid", "--train-contexts", str(corpus / "train_contexts.emb"),
                "--test-contexts", str(wide),
                "--candidates", str(corpus / "candidates.emb"),
                "--labels", str(corpus / "labels.txt"),
                "--k", "2,3", "--lambda", "1e-3",
                "--report", str(tmp_path / "grid.csv")]
        _assert_one_line_data_error(
            argv, capsys, "dimension mismatch: test contexts 10 vs train set 8")
        assert not (tmp_path / "grid.csv").exists()

    def test_eval_screen_model_dimension(self, corpus, tmp_path, capsys):
        argv = ["eval-screen", "--model", str(self._model(tmp_path, 5)),
                "--contexts", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb")]
        _assert_one_line_data_error(argv, capsys, "dimension mismatch: contexts 8 vs model 5")

    def test_search_screened_model_dimension(self, corpus, tmp_path, capsys):
        argv = ["search", "--screened", "--model", str(self._model(tmp_path, 5)),
                "--context-file", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb")]
        _assert_one_line_data_error(argv, capsys, "dimension mismatch: candidates 8 vs model 5")

    @pytest.mark.parametrize("command", ["search", "bench", "eval-screen"])
    def test_model_candidate_count_mismatch_reads_one_way(self, corpus, tmp_path, capsys,
                                                          command):
        model = str(self._model(tmp_path, 8, n=61))
        contexts, candidates = str(corpus / "test_contexts.emb"), str(corpus / "candidates.emb")
        argv = {
            "search": ["search", "--screened", "--model", model,
                       "--context-file", contexts, "--candidates", candidates],
            "bench": ["bench", "--model", model, "--contexts", contexts,
                      "--candidates", candidates, "--warmup", "0", "--iters", "1"],
            "eval-screen": ["eval-screen", "--model", model,
                            "--contexts", contexts, "--candidates", candidates],
        }[command]
        _assert_one_line_data_error(
            argv, capsys, "candidate count mismatch: candidates 60 vs model 61")

    @pytest.mark.parametrize("command", ["labels", "search"])
    def test_empty_candidates_read_one_way(self, corpus, tmp_path, capsys, command):
        empty = tmp_path / "empty.emb"
        write_embeddings(np.zeros((0, 8), dtype=np.float32), empty)
        contexts = str(corpus / "test_contexts.emb")
        argv = {
            "labels": ["labels", "--contexts", contexts, "--candidates", str(empty),
                       "--out", str(tmp_path / "labels.txt")],
            "search": ["search", "--exact", "--context-file", contexts,
                       "--candidates", str(empty)],
        }[command]
        _assert_one_line_data_error(argv, capsys, "candidate set is empty")

    @pytest.mark.parametrize("command", ["train-screen", "grid"])
    def test_label_outside_int64(self, corpus, tmp_path, capsys, command):
        labels = tmp_path / "big.txt"
        labels.write_text("3\n\n99999999999999999999999\n")
        files = ["--candidates", str(corpus / "candidates.emb"), "--labels", str(labels)]
        if command == "train-screen":
            argv = ["train-screen", "--contexts", str(corpus / "train_contexts.emb"), *files,
                    "--k", "2", "--out-model", str(tmp_path / "m.scrn")]
        else:
            argv = ["grid", "--train-contexts", str(corpus / "train_contexts.emb"),
                    "--test-contexts", str(corpus / "test_contexts.emb"), *files,
                    "--k", "2", "--lambda", "1e-3", "--report", str(tmp_path / "grid.csv")]
        _assert_one_line_data_error(argv, capsys, "line 3 reads 99999999999999999999999")

    @pytest.mark.parametrize("bad", ["3.5", "abc"])
    def test_label_not_an_integer(self, corpus, tmp_path, capsys, bad):
        labels = tmp_path / "bad.txt"
        labels.write_text(f"3\n\n{bad}\n4\n")
        argv = ["train-screen", "--contexts", str(corpus / "train_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb"), "--labels", str(labels),
                "--k", "2", "--out-model", str(tmp_path / "m.scrn")]
        _assert_one_line_data_error(argv, capsys, f"line 3 reads {bad}")
        assert not (tmp_path / "m.scrn").exists()

    @pytest.mark.parametrize("command", ["labels", "search"])
    def test_zero_dimension_embeddings(self, tmp_path, capsys, command):
        flat = tmp_path / "flat.emb"
        flat.write_bytes(b"EMB1" + bytes([1]) + struct.pack("<II", 4, 0))
        if command == "labels":
            argv = ["labels", "--contexts", str(flat), "--candidates", str(flat),
                    "--out", str(tmp_path / "labels.txt")]
        else:
            argv = ["search", "--exact", "--context-file", str(flat), "--candidates", str(flat)]
        _assert_one_line_data_error(argv, capsys, "embedding dimension must be >= 1")


def _corruptions(blob, header_size):
    """Every prefix up to one byte past the header, the file minus its
    last byte, and the file with its first magic byte or its version byte
    flipped."""
    for n in range(header_size + 2):
        yield blob[:n]
    yield blob[:-1]
    for i in (0, 4):
        yield blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1 :]


def _assert_one_line_data_error(argv, capsys, message=""):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("mipscreen: error: ") and err.count("\n") == 1, err
    assert message in err, err


class TestContainerFuzz:
    def _fuzz(self, blob, header_size, path, argv, capsys):
        for variant in _corruptions(blob, header_size):
            path.write_bytes(variant)
            _assert_one_line_data_error(argv, capsys)

    def test_emb1(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.emb"
        argv = ["search", "--exact", "--context-file", str(bad),
                "--candidates", str(corpus / "candidates.emb")]
        self._fuzz((corpus / "test_contexts.emb").read_bytes(), 13, bad, argv, capsys)

    def test_scrn(self, corpus, tmp_path, capsys):
        good, bad = tmp_path / "good.scrn", tmp_path / "bad.scrn"
        bits = np.zeros((3, 60), dtype=bool)
        bits[0, :7] = True
        model = ScreeningModel(np.eye(3, 8, dtype=np.float32), pack_subsets(bits), 0.5, 60)
        save_model(model, good)
        argv = ["search", "--screened", "--model", str(bad),
                "--context-file", str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb")]
        self._fuzz(good.read_bytes(), 25, bad, argv, capsys)

    @pytest.mark.parametrize("command", ["search", "eval-screen"])
    def test_scrn_padding_bits(self, corpus, tmp_path, capsys, command):
        path = tmp_path / "pad.scrn"
        save_model(ScreeningModel(np.eye(2, 8, dtype=np.float32),
                                  pack_subsets(np.ones((2, 60), dtype=bool)), 0.5, 60), path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = bytes(7) + b"\x80"  # the last row keeps only bit 63 of 60
        path.write_bytes(bytes(blob))
        contexts = "--context-file" if command == "search" else "--contexts"
        argv = [command, "--model", str(path), contexts, str(corpus / "test_contexts.emb"),
                "--candidates", str(corpus / "candidates.emb")]
        if command == "search":
            argv.append("--screened")
        _assert_one_line_data_error(argv, capsys, "packed subsets set bits past candidate 59")

    def test_pair(self, tmp_path, capsys):
        good, bad = tmp_path / "good.pair", tmp_path / "bad.pair"
        write_pairs(gen_pair_data(PairSpec(n_train=4, n_test=2, n_features=3))[0], good)
        argv = ["distill", "--pairs", str(bad), "--out-encoder", str(tmp_path / "e.denc")]
        self._fuzz(good.read_bytes(), 13, bad, argv, capsys)

    def test_denc(self, tmp_path):
        # no subcommand reads DENC; cli.run maps this ValueError to exit 2
        good, bad = tmp_path / "good.denc", tmp_path / "bad.denc"
        w = np.arange(6, dtype=np.float32).reshape(3, 2)
        save_encoder(DualEncoder(w, -w), good)
        for variant in _corruptions(good.read_bytes(), 13):
            bad.write_bytes(variant)
            with pytest.raises(ValueError) as exc:
                load_encoder(bad)
            assert "\n" not in str(exc.value)

    def test_non_finite_teacher_score_named_before_training(self, tmp_path, capsys):
        pairs = gen_pair_data(PairSpec(n_train=4, n_test=2, n_features=3))[0]
        scores = pairs.teacher_scores.copy()
        scores[1] = np.nan
        path = tmp_path / "nan.pair"
        write_pairs(PairSet(pairs.ctx_features, pairs.resp_features, pairs.labels, scores), path)
        argv = ["distill", "--pairs", str(path), "--out-encoder", str(tmp_path / "e.denc")]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "mipscreen: error: teacher scores contains non-finite entries\n"
        assert not (tmp_path / "e.denc").exists()


_SGD_FLAGS = {"--t": "alternations", "--lr": "learning_rate",
              "--epochs": "epochs_per_alternation", "--batch": "batch_size", "--seed": "seed"}
# command: (config class, the function handed the config, flag -> field)
_CONFIG_FLAGS = {
    "gen": (SyntheticSpec, "dio.gen_synthetic",
            {"--m-train": "m_train", "--m-test": "m_test", "--n": "n_candidates",
             "--d": "dim", "--topics": "topics", "--sigma": "noise_sigma", "--seed": "seed"}),
    "train-screen": (TrainConfig, "scr.train", {**_SGD_FLAGS, "--k": "k", "--lambda": "lam"}),
    "grid": (TrainConfig, "ev.grid_sweep", _SGD_FLAGS),
    "distill": (DistillConfig, "dst.train_distilled",
                {"--beta": "beta", "--lr": "learning_rate", "--epochs": "epochs",
                 "--batch": "batch_size", "--dim": "dim", "--seed": "seed"}),
    "gen-pairs": (PairSpec, "dio.gen_pair_data",
                  {"--n-train": "n_train", "--n-test": "n_test", "--f": "n_features",
                   "--picks": "picks", "--flip": "label_flip", "--seed": "seed"}),
}


class TestConfigDefaults:
    """The config dataclasses hold the default of every flag that sets one
    of their fields."""

    @pytest.fixture
    def required(self, corpus, tmp_path):
        pairs = tmp_path / "train.pair"
        write_pairs(gen_pair_data(PairSpec(n_train=4, n_test=2, n_features=3))[0], pairs)
        files = ["--candidates", str(corpus / "candidates.emb"),
                 "--labels", str(corpus / "labels.txt")]
        return {
            "gen": ["--out-dir", str(tmp_path)],
            "train-screen": ["--contexts", str(corpus / "train_contexts.emb"), *files,
                             "--out-model", str(tmp_path / "m.scrn")],
            "grid": ["--train-contexts", str(corpus / "train_contexts.emb"),
                     "--test-contexts", str(corpus / "test_contexts.emb"), *files,
                     "--report", str(tmp_path / "grid.csv")],
            "distill": ["--pairs", str(pairs), "--out-encoder", str(tmp_path / "e.denc")],
            "gen-pairs": ["--out-train", str(tmp_path / "a.pair"),
                          "--out-test", str(tmp_path / "b.pair")],
        }

    def _config(self, monkeypatch, command, argv):
        """The config `command` hands its library call for these flags."""
        cls, target, _ = _CONFIG_FLAGS[command]
        module, name = target.split(".")

        class Stop(Exception):
            pass

        def capture(*args):
            seen.extend(a for a in args if isinstance(a, cls))
            raise Stop

        seen = []
        monkeypatch.setattr(getattr(cli, module), name, capture)
        with pytest.raises(Stop):
            run([command, *argv])
        assert len(seen) == 1
        return seen[0]

    @pytest.mark.parametrize("command", sorted(_CONFIG_FLAGS))
    def test_required_flags_give_dataclass_defaults(self, monkeypatch, required, command):
        cls = _CONFIG_FLAGS[command][0]
        got = self._config(monkeypatch, command, required[command])
        if command == "grid":  # the sweep starts at the first listed K and lambda
            assert (got.k, got.lam) == (10, 1e-5)
            got = dataclasses.replace(got, k=cls().k, lam=cls().lam)
        assert got == cls()

    @pytest.mark.parametrize("command", sorted(_CONFIG_FLAGS))
    def test_each_flag_sets_its_field(self, monkeypatch, required, command):
        cls, _, flags = _CONFIG_FLAGS[command]
        # a default of 0 (DistillConfig.dim) doubles to itself, so set 3
        doubled = {field: 2 * getattr(cls(), field) or 3 for field in flags.values()}
        argv = [a for flag, field in flags.items() for a in (flag, str(doubled[field]))]
        got = self._config(monkeypatch, command, required[command] + argv)
        assert {field: getattr(got, field) for field in flags.values()} == doubled

    def test_eval_screen_seed_defaults_to_train_config(self):
        args = cli._build_parser().parse_args(
            ["eval-screen", "--model", "m", "--contexts", "c", "--candidates", "n"])
        assert args.seed == TrainConfig().seed

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from a non-finite value either
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", [("gen", "--sigma"), ("train-screen", "--lr"),
                                               ("grid", "--lr"), ("distill", "--lr"),
                                               ("distill", "--beta")])
    def test_non_finite_values_are_refused(self, capsys, tmp_path, required, command, flag,
                                           value):
        field = _CONFIG_FLAGS[command][2][flag]
        fresh = ["--out-dir", str(tmp_path / "corpus")] if command == "gen" else []
        before = sorted(tmp_path.iterdir())
        assert run([command, *required[command], *fresh, f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"mipscreen: error: {field} must be finite[^\n]*, got {value}\n",
                            captured.err), captured.err
        assert sorted(tmp_path.iterdir()) == before  # no output file or directory

    @pytest.mark.parametrize("command", sorted(_CONFIG_FLAGS))
    def test_help_prints_each_default(self, capsys, command):
        cls, _, flags = _CONFIG_FLAGS[command]
        with pytest.raises(SystemExit):
            run([command, "--help"])
        options = " ".join(capsys.readouterr().out.split("options:")[1].split())
        entries = {e.split()[0]: e for e in re.split(r" (?=--)", options)}
        for flag, field in flags.items():
            assert entries[flag].endswith(f"(default {getattr(cls(), field)})"), entries[flag]


def _readme_commands():
    """The `mipscreen` command lines of README's fenced block under
    "## Command line", with continuations joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    return [argv for line in block.replace("\\\n", " ").splitlines()
            if (argv := shlex.split(line, comments=True))]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"mipscreen"}
    assert {argv[1] for argv in commands} == set(cli._COMMANDS)  # every subcommand
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = run(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
