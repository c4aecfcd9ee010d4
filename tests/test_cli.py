"""Command-line surface: pipelines, exit codes, and idempotence."""

import hashlib

import numpy as np
import pytest

from mipscreen.cli import run
from mipscreen.data import (
    PairSpec,
    gen_pair_data,
    read_embeddings,
    write_embeddings,
    write_pairs,
)
from mipscreen.distill import DualEncoder, PairSet, load_encoder, save_encoder
from mipscreen.screening import ScreeningModel, pack_subsets, save_model


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
        assert "--model" in err and "--candidates" in err

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
