"""Command-line harness: subcommands, exit codes, CSV artifacts."""

import csv
from pathlib import Path

import pytest

from descattn import aggregator, cli, streaming
from descattn.cli import (BENCH_COLUMNS, SWEEP_COLUMNS, EXIT_IO, EXIT_OK,
                          EXIT_USAGE, EXIT_VERIFY, RunSpec, main, run_from_row,
                          sweep)

TINY = ["--frames", "2", "--grid", "4x4", "--channels", "16", "--heads", "2",
        "--ratio", "2", "--layers", "1", "--seed", "3"]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestVerify:
    def test_default_config_passes(self, capsys):
        assert main(["verify", "--seed", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestFlops:
    def test_production_configuration_prints_reduction(self, tmp_path, capsys):
        code = main(["flops", "--frames", "1000", "--grid", "37x37", "--ratio", "4",
                     "--aux", "--interval", "200", "--channels", "16", "--heads", "2",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "14.58" in out
        assert "15.76" in out
        rows = read_csv(tmp_path / "flops.csv")
        assert {r["mode"] for r in rows} == {"dense", "descriptor"}

    def test_markdown_table_written(self, tmp_path):
        code = main(["flops", *TINY, "--format", "md", "--out", str(tmp_path)])
        assert code == EXIT_OK
        text = (tmp_path / "flops.md").read_text()
        assert text.startswith("| Metric | Mode |")


class TestBench:
    def test_artifacts_and_schema(self, tmp_path):
        code = main(["bench", *TINY, "--repeats", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        bench = read_csv(tmp_path / "bench.csv")
        assert list(bench[0].keys()) == list(BENCH_COLUMNS)
        assert {r["mode"] for r in bench} == {"dense", "descriptor", "stream"}
        rows = read_csv(tmp_path / "sweep.csv")
        assert list(rows[0].keys()) == list(SWEEP_COLUMNS)

    def test_rows_reproduce_checksums(self, tmp_path):
        main(["bench", *TINY, "--repeats", "1", "--out", str(tmp_path)])
        for row in read_csv(tmp_path / "sweep.csv"):
            assert run_from_row(row) == row["checksum"]

    def test_repeats_share_checksums(self, tmp_path):
        main(["bench", *TINY, "--repeats", "3", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "sweep.csv")
        by_mode = {}
        for row in rows:
            by_mode.setdefault(row["mode"], set()).add(row["checksum"])
        for mode, sums in by_mode.items():
            assert len(sums) == 1, f"{mode} checksums differ across repeats"

    def test_ratio_sweep_produces_a_row_per_value(self, tmp_path):
        code = main(["bench", "--frames", "2", "--grid", "8x8", "--channels", "16",
                     "--heads", "2", "--layers", "1", "--ratio", "1,2,4,8",
                     "--repeats", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        assert {r["r"] for r in rows} == {"1", "2", "4", "8"}

    def test_v1_layout_and_replay(self):
        # both headers and three sweep.csv rows of TINY as the v1 writer left them
        assert ",".join(BENCH_COLUMNS) == (
            "mode,S,r,p,c,method,wall_ms_median,wall_ms_p90,tokens,cache_tokens,"
            "selector,interval,aux,layers,channels,heads,grid,camera,register,seed,"
            "precision,repeats")
        text = ("run_id,repeat,mode,S,r,p,c,method,selector,interval,aux,layers,"
                "channels,heads,grid,camera,register,seed,precision,wall_ms,tokens,"
                "cache_tokens,checksum\n"
                "0,0,dense,2,2,5,10,bilinear,cluster,200,True,1,16,2,4x4,1,4,3,f32,"
                "1.631,42,0,99abc73ad103f359\n"
                "0,0,descriptor,2,2,5,10,bilinear,cluster,200,True,1,16,2,4x4,1,4,3,"
                "f32,2.099,42,0,4f53602b0de3d15d\n"
                "0,0,stream,2,2,5,10,bilinear,cluster,200,True,1,16,2,4x4,1,4,3,f32,"
                "2.178,42,25,4f53602b0de3d15d\n")
        assert text.startswith(",".join(SWEEP_COLUMNS) + "\n")
        for row in csv.DictReader(text.splitlines()):
            assert run_from_row(row) == row["checksum"]

    def test_only_the_forward_is_timed(self, tmp_path, monkeypatch):
        calls = {"tokens": 0, "weights": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "generate_synthetic",
                            counting("tokens", cli.generate_synthetic))
        weights = counting("weights", aggregator.init_weights)
        for module in (cli, aggregator, streaming):
            monkeypatch.setattr(module, "init_weights", weights)
        assert main(["bench", *TINY, "--repeats", "3", "--out", str(tmp_path)]) == EXIT_OK
        # one per mode, built before the warm-up, never inside a timed call
        assert calls == {"tokens": 3, "weights": 3}

    def test_markdown_summary(self, tmp_path):
        main(["bench", *TINY, "--repeats", "1", "--out", str(tmp_path)])
        assert (tmp_path / "summary.md").read_text().startswith("| mode |")

    def test_empty_spec_writes_header_only(self, tmp_path):
        sweep([], tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == ",".join(SWEEP_COLUMNS)

    def test_failure_manifest_preserves_partial_results(self, tmp_path):
        rows = sweep([RunSpec(frames=2, grid=(4, 4), channels=16, heads=2,
                              ratio=2, layers=1, repeats=1),
                      RunSpec(frames=2, grid=(4, 4), channels=16, heads=2,
                              ratio=9, layers=1, repeats=1)], tmp_path)
        assert rows, "the valid run must still produce rows"
        failures = read_csv(tmp_path / "failures.csv")
        assert len(failures) == 1 and failures[0]["run_id"] == "1"


class TestStreamAndHistogram:
    def test_stream_writes_cache_report(self, tmp_path, capsys):
        code = main(["stream", "--frames", "6", "--chunk", "2", "--retain", "2",
                     *TINY[2:], "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "cache_report.csv")
        assert len(rows) == 1  # one layer
        assert "ratio_vs_full" in capsys.readouterr().out

    def test_stream_output_is_pinned(self, tmp_path, capsys):
        # S=6, p=2, 4x4 grid at r=2, anchors on: frames 0, 2 and 4 keep
        # 4 descriptors each, plus the 21 verbatim first-frame tokens
        code = main(["stream", "--frames", "6", "--chunk", "2", "--retain", "2",
                     *TINY[2:], "--aux", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "cache_report.csv").read_bytes() == (
            b"layer,total_tokens,compressed_tokens,aux_tokens,bytes,"
            b"ratio_vs_full_token_cache\r\n"
            b"0,33,12,21,2112,0.26190476\r\n")
        assert capsys.readouterr().out == \
            "frames=6 cache_tokens=33 ratio_vs_full=0.261905\n"

    def test_histogram_files(self, tmp_path):
        code = main(["histogram", *TINY, "--out", str(tmp_path)])
        assert code == EXIT_OK
        for mode in ("frame", "global"):
            rows = read_csv(tmp_path / f"histogram_{mode}.csv")
            assert len(rows) == 64
            total = sum(int(r["count"]) for r in rows)
            assert total > 0


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["bench", "--bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["bench", "stream", "histogram"])
    def test_format_is_a_flops_flag_only(self, command, tmp_path):
        # only flops has a markdown output for --format to select
        assert main([command, *TINY, "--format", "md",
                     "--out", str(tmp_path)]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_invalid_combination_is_usage_error(self, tmp_path, capsys):
        code = main(["flops", "--grid", "4x4", "--ratio", "9",
                     "--channels", "16", "--heads", "2", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "invalid" in capsys.readouterr().err

    def test_unwritable_out_dir_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        code = main(["flops", *TINY, "--out", str(blocker / "sub")])
        assert code == EXIT_IO

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == EXIT_OK

    def test_verify_failure_exit_code(self, monkeypatch):
        from descattn import verify as verify_mod

        def boom(seed):
            raise AssertionError("forced")

        monkeypatch.setattr(verify_mod, "CHECKS", [("forced.failure", boom)])
        assert main(["verify"]) == EXIT_VERIFY


class TestConfigFile:
    def test_file_values_apply_and_cli_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=1000\ngrid=37x37\nratio=4\naux=true\n"
                       "channels=16\nheads=2\ninterval=200\n")
        out = tmp_path / "out"
        code = main(["flops", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert "14.58" in capsys.readouterr().out
        # explicit flag beats the file
        code = main(["flops", "--config", str(cfg), "--ratio", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "14.58" not in text

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("framse=9\n")
        code = main(["flops", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "framse" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["flops", "--config", str(tmp_path / "nope.cfg")]) == EXIT_IO
