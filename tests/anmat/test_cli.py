"""Tests for the ``anmat`` command-line interface."""

import pytest

from repro.anmat.cli import EXIT_CLEAN, EXIT_VIOLATIONS_FOUND, build_parser, main
from repro.errors import CsvFormatError
from repro.dataset.csvio import write_csv
from repro.datagen import build_dataset
from repro.engine import DEFAULT_SHARD_ROWS


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_choices(self):
        args = build_parser().parse_args(["discover", "--dataset", "phone_state"])
        assert args.dataset == "phone_state"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discover", "--dataset", "nope"])


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "phone_state" in out
        assert "zip_city_state" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "--dataset", "paper_d2_zip"]) == 0
        out = capsys.readouterr().out
        assert "pattern::position, frequency" in out

    def test_discover_command(self, capsys):
        code = main(
            [
                "discover",
                "--dataset", "paper_d2_zip",
                "--min-coverage", "0.5",
                "--allowed-violations", "0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Discovered" in out

    def test_detect_command_with_score(self, capsys):
        # the dataset has injected errors, so detect signals them via the
        # documented non-zero exit code
        code = main(
            [
                "detect",
                "--dataset", "phone_state",
                "--min-coverage", "0.5",
                "--score",
            ]
        )
        assert code == EXIT_VIOLATIONS_FOUND
        out = capsys.readouterr().out
        assert "violations over" in out
        assert "precision=" in out

    def test_detect_exit_code_distinguishes_clean_data(self, tmp_path, capsys):
        dataset = build_dataset("zip_city_state", n_rows=200)
        clean_path = tmp_path / "clean.csv"
        write_csv(dataset.clean_table, clean_path)
        assert main(["detect", "--csv", str(clean_path)]) == EXIT_CLEAN
        dirty_path = tmp_path / "dirty.csv"
        write_csv(dataset.table, dirty_path)
        assert main(["detect", "--csv", str(dirty_path)]) == EXIT_VIOLATIONS_FOUND
        capsys.readouterr()

    def test_detect_help_mentions_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["detect", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert str(EXIT_VIOLATIONS_FOUND) in out

    def test_score_without_ground_truth_warns_on_stderr(self, tmp_path, capsys):
        # a CSV upload has no injected ground truth: --score must say so
        # instead of silently skipping the evaluation block
        dataset = build_dataset("zip_city_state", n_rows=200)
        path = tmp_path / "zips.csv"
        write_csv(dataset.table, path)
        code = main(["detect", "--csv", str(path), "--score"])
        assert code == EXIT_VIOLATIONS_FOUND
        captured = capsys.readouterr()
        assert "--score ignored" in captured.err
        assert "precision=" not in captured.out

    def test_csv_input(self, tmp_path, capsys):
        dataset = build_dataset("zip_city_state", n_rows=200)
        path = tmp_path / "zips.csv"
        write_csv(dataset.table, path)
        assert main(["discover", "--csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Discovered" in out


class TestShardRows:
    """The --shard-rows flag: sharded runs keep the documented exit-code
    and stderr contracts and report the same violations."""

    def test_flag_parses_and_rejects_negative(self):
        args = build_parser().parse_args(["detect", "--shard-rows", "500"])
        assert args.shard_rows == 500
        with pytest.raises(SystemExit):  # argparse usage error, exit 2
            build_parser().parse_args(["detect", "--shard-rows", "-1"])

    def test_shard_size_one_smoke_run(self, capsys):
        # the degenerate one-row-per-shard partition must still work
        code = main(
            [
                "detect",
                "--dataset", "paper_d2_zip",
                "--min-coverage", "0.4",
                "--allowed-violations", "0.3",
                "--shard-rows", "1",
            ]
        )
        assert code == EXIT_VIOLATIONS_FOUND
        out = capsys.readouterr().out
        assert "strategy=sharded" in out

    def test_sharded_detect_reports_same_violations_as_monolithic(
        self, tmp_path, capsys
    ):
        dataset = build_dataset("zip_city_state", n_rows=200)
        path = tmp_path / "zips.csv"
        write_csv(dataset.table, path)
        assert main(["detect", "--csv", str(path)]) == EXIT_VIOLATIONS_FOUND
        monolithic = capsys.readouterr().out
        code = main(["detect", "--csv", str(path), "--shard-rows", "32"])
        assert code == EXIT_VIOLATIONS_FOUND
        sharded = capsys.readouterr().out
        # same violation count and suspects, different strategy label
        assert monolithic.splitlines()[0].replace("auto", "sharded") == (
            sharded.splitlines()[0]
        )

    def test_sharded_detect_exit_zero_on_clean_data(self, tmp_path, capsys):
        dataset = build_dataset("zip_city_state", n_rows=200)
        path = tmp_path / "clean.csv"
        write_csv(dataset.clean_table, path)
        assert main(["detect", "--csv", str(path), "--shard-rows", "64"]) == EXIT_CLEAN
        capsys.readouterr()

    def test_sharded_score_without_ground_truth_still_warns(self, tmp_path, capsys):
        dataset = build_dataset("zip_city_state", n_rows=200)
        path = tmp_path / "zips.csv"
        write_csv(dataset.table, path)
        code = main(["detect", "--csv", str(path), "--shard-rows", "32", "--score"])
        assert code == EXIT_VIOLATIONS_FOUND
        captured = capsys.readouterr()
        assert "--score ignored" in captured.err

    def test_sharded_csv_rejects_ragged_rows_with_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("zip,city\n90001,Los Angeles\n90002\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            main(["detect", "--csv", str(path), "--shard-rows", "1"])

    def test_malformed_csv_upload_leaks_no_store_root(self, tmp_path, monkeypatch):
        # the upload goes through AnmatSession.upload_csv, which closes
        # the half-filled store before the parse error surfaces (the
        # object store's prefetcher keeps it alive past the error, so
        # garbage collection would not remove its root in time)
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        path = tmp_path / "ragged.csv"
        path.write_text("zip,city\n90001,Los Angeles\n90002,Irvine\n90003\n")
        with pytest.raises(CsvFormatError, match="line 4"):
            main(["detect", "--csv", str(path), "--shard-rows", "1", "--store", "object"])
        assert list(scratch.iterdir()) == [], "store root leaked after a bad CSV"

    def test_sharded_discover_matches_monolithic_rules(self, tmp_path, capsys):
        import re

        def strip_timing(text):
            # the header embeds wall-clock ("... in 0.02s") — not part of
            # the rule-set contract under comparison
            return re.sub(r"in \d+\.\d+s", "in Xs", text)

        dataset = build_dataset("zip_city_state", n_rows=200)
        path = tmp_path / "zips.csv"
        write_csv(dataset.table, path)
        assert main(["discover", "--csv", str(path)]) == 0
        monolithic = capsys.readouterr().out
        assert main(["discover", "--csv", str(path), "--shard-rows", "32"]) == 0
        assert strip_timing(capsys.readouterr().out) == strip_timing(monolithic)


class TestStoreFlags:
    """--store / --spill-dir: out-of-core uploads from the CLI."""

    def test_flag_parses_on_all_upload_commands(self):
        for command in ("profile", "discover", "detect"):
            args = build_parser().parse_args([command, "--store", "spill"])
            assert args.store == "spill"
            args = build_parser().parse_args(
                [command, "--store", "object", "--spill-dir", "/tmp/x"]
            )
            assert args.spill_dir == "/tmp/x"
        with pytest.raises(SystemExit):  # argparse usage error, exit 2
            build_parser().parse_args(["detect", "--store", "cloud"])

    def test_store_defaults_to_memory(self):
        args = build_parser().parse_args(["detect"])
        assert args.store == "memory"
        assert args.spill_dir is None

    def test_spill_store_reports_same_violations_as_memory(self, tmp_path, capsys):
        dataset = build_dataset("zip_city_state", n_rows=200)
        path = tmp_path / "zips.csv"
        write_csv(dataset.table, path)
        code = main(["detect", "--csv", str(path), "--shard-rows", "32"])
        assert code == EXIT_VIOLATIONS_FOUND
        memory = capsys.readouterr().out
        for store in ("spill", "object"):
            code = main(
                [
                    "detect",
                    "--csv", str(path),
                    "--shard-rows", "32",
                    "--store", store,
                    "--spill-dir", str(tmp_path / store),
                ]
            )
            assert code == EXIT_VIOLATIONS_FOUND
            assert capsys.readouterr().out == memory

    def test_non_memory_store_implies_sharding(self, capsys):
        # without --shard-rows, --store spill still runs sharded (an
        # out-of-core store under a monolithic run would be pointless)
        code = main(
            [
                "detect",
                "--dataset", "paper_d2_zip",
                "--min-coverage", "0.4",
                "--allowed-violations", "0.3",
                "--store", "spill",
                "--explain-plan",
            ]
        )
        assert code == EXIT_VIOLATIONS_FOUND
        out = capsys.readouterr().out
        assert "backend=sharded" in out
        assert "store=spill" in out
        assert "materialization=never" in out

    def test_builtin_dataset_reshards_into_the_store(self, tmp_path, capsys):
        spill_dir = tmp_path / "spill"
        code = main(
            [
                "discover",
                "--dataset", "paper_d2_zip",
                "--min-coverage", "0.4",
                "--allowed-violations", "0.3",
                "--store", "spill",
                "--shard-rows", "4",
                "--spill-dir", str(spill_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        # the run streamed through real spill files in the named dir
        assert sorted(spill_dir.glob("shard_*.shard"))

    def test_spill_store_profile_command(self, capsys):
        assert main(["profile", "--dataset", "paper_d2_zip", "--store", "spill"]) == 0
        out = capsys.readouterr().out
        assert "pattern::position, frequency" in out


class TestObjectUrlFlag:
    """--object-url: shard objects served by a remote HTTP store."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.sharding.devserver import ObjectHTTPServer

        with ObjectHTTPServer() as running:
            yield running

    def test_flag_parses_and_defaults_to_none(self):
        args = build_parser().parse_args(["detect"])
        assert args.object_url is None
        args = build_parser().parse_args(
            ["detect", "--store", "object", "--object-url", "http://127.0.0.1:80"]
        )
        assert args.object_url == "http://127.0.0.1:80"

    def test_non_http_url_rejected(self):
        # the CLI builds its session config first, which validates the URL
        from repro.errors import DiscoveryError

        with pytest.raises(DiscoveryError, match="http"):
            main(
                [
                    "detect",
                    "--store", "object",
                    "--object-url", "s3://bucket/prefix",
                ]
            )

    def test_non_http_url_rejected_by_the_config_too(self):
        # the session API path validates before any client is built
        from repro.discovery import DiscoveryConfig
        from repro.errors import DiscoveryError

        with pytest.raises(DiscoveryError, match="object_url"):
            DiscoveryConfig(store="object", object_url="s3://bucket/prefix")

    def test_remote_detect_matches_memory_and_leaks_nothing(
        self, server, tmp_path, capsys
    ):
        dataset = build_dataset("zip_city_state", n_rows=200)
        path = tmp_path / "zips.csv"
        write_csv(dataset.table, path)
        code = main(["detect", "--csv", str(path), "--shard-rows", "32"])
        assert code == EXIT_VIOLATIONS_FOUND
        memory = capsys.readouterr().out
        code = main(
            [
                "detect",
                "--csv", str(path),
                "--shard-rows", "32",
                "--store", "object",
                "--object-url", server.url,
            ]
        )
        assert code == EXIT_VIOLATIONS_FOUND
        assert capsys.readouterr().out == memory
        # the run owned its remote namespace: nothing left on the server
        assert server.object_count() == 0

    def test_plan_records_the_http_client(self, server, capsys):
        code = main(
            [
                "detect",
                "--dataset", "paper_d2_zip",
                "--min-coverage", "0.4",
                "--allowed-violations", "0.3",
                "--store", "object",
                "--object-url", server.url,
                "--explain-plan",
            ]
        )
        assert code == EXIT_VIOLATIONS_FOUND
        out = capsys.readouterr().out
        assert "store=object[http]" in out
        assert server.object_count() == 0

    def test_plan_records_the_local_client_without_a_url(self, capsys):
        code = main(
            [
                "detect",
                "--dataset", "paper_d2_zip",
                "--min-coverage", "0.4",
                "--allowed-violations", "0.3",
                "--store", "object",
                "--explain-plan",
            ]
        )
        assert code == EXIT_VIOLATIONS_FOUND
        assert "store=object[local]" in capsys.readouterr().out


class TestExecutionFlags:
    """--n-workers / --explain-plan on discover and detect; the removed
    --executor and --pool overrides are usage errors."""

    def test_n_workers_parses_and_removed_flags_are_rejected(self):
        for command in ("discover", "detect"):
            args = build_parser().parse_args([command, "--n-workers", "2"])
            assert args.n_workers == 2
            for flag, value in (("--executor", "sharded"), ("--pool", "per-call")):
                with pytest.raises(SystemExit):  # argparse usage error, exit 2
                    build_parser().parse_args([command, flag, value])

    @pytest.mark.parametrize(
        "flag,value",
        [("--strategy", "scan"), ("--rule-maintenance", "full"), ("--prefetch-depth", "2")],
    )
    def test_removed_knob_flags_are_rejected(self, flag, value):
        # one route per upload: none of these knobs exists
        for command in ("profile", "discover", "detect"):
            with pytest.raises(SystemExit):  # argparse usage error, exit 2
                build_parser().parse_args([command, flag, value])

    def test_use_kernels_flag_is_rejected(self):
        # the kernels are the only mining route; there is no knob left
        for command in ("discover", "detect"):
            for value in ("auto", "on", "off"):
                with pytest.raises(SystemExit):  # argparse usage error, exit 2
                    build_parser().parse_args([command, "--use-kernels", value])

    def test_routes_report_identically(self, capsys):
        outputs = {}
        routes = {
            "serial": [],
            "workers": ["--n-workers", "2"],
            "sharded": ["--shard-rows", "2"],
        }
        for label, flags in routes.items():
            code = main(
                [
                    "detect",
                    "--dataset", "paper_d2_zip",
                    "--min-coverage", "0.4",
                    "--allowed-violations", "0.3",
                    *flags,
                ]
            )
            assert code == EXIT_VIOLATIONS_FOUND
            outputs[label] = capsys.readouterr().out
        # same violations; only the strategy label differs on sharded
        for label in ("workers", "sharded"):
            assert outputs[label].splitlines()[0] == (
                outputs["serial"].splitlines()[0].replace("auto", "sharded")
            )
            assert outputs[label].splitlines()[1:] == outputs["serial"].splitlines()[1:]

    def test_explain_plan_prints_before_running(self, capsys):
        code = main(
            [
                "detect",
                "--dataset", "paper_d2_zip",
                "--min-coverage", "0.4",
                "--allowed-violations", "0.3",
                "--shard-rows", "8",
                "--explain-plan",
            ]
        )
        assert code == EXIT_VIOLATIONS_FOUND
        out = capsys.readouterr().out
        assert "execution plan (discovery): backend=sharded" in out
        assert "execution plan (detection): backend=sharded" in out
        # the plans print before any report output
        assert out.index("execution plan") < out.index("violations over")

    def test_explain_plan_on_discover(self, capsys):
        code = main(
            [
                "discover",
                "--dataset", "paper_d2_zip",
                "--min-coverage", "0.4",
                "--allowed-violations", "0.3",
                "--explain-plan",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execution plan (discovery): backend=serial" in out

    def test_n_workers_detect_matches_serial(self, capsys):
        def detect(*flags):
            code = main(
                ["detect", "--dataset", "phone_state", "--min-coverage", "0.5", *flags]
            )
            return code, capsys.readouterr().out

        baseline, serial_out = detect()
        code, workers_out = detect("--n-workers", "2")
        assert code == baseline == EXIT_VIOLATIONS_FOUND
        # workers run sharded at the default shard size: the same count
        # as serial under the sharded label, and the same report (same
        # violation order) as an explicit --shard-rows run
        assert workers_out.splitlines()[0] == serial_out.splitlines()[0].replace(
            "strategy=auto)", "strategy=sharded)"
        )
        _code, sharded_out = detect("--shard-rows", str(DEFAULT_SHARD_ROWS))
        assert workers_out == sharded_out
