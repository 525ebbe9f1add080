"""End-to-end tests for the ``sisg`` command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_variant_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "a", "b", "--variant", "XX"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "ds.npz", "model"])
        assert args.port == 8460
        assert args.max_batch == 32
        assert args.high_water == 512
        assert args.duration == 0.0
        assert args.refresh_every is None

    def test_netload_defaults(self):
        args = build_parser().parse_args(["netload", "ds.npz"])
        assert args.port == 8460
        assert args.processes == 2
        assert args.mix == "0.7,0.1,0.1,0.1"
        assert args.output is None

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream", "ds.npz", "model"])
        assert args.windows == 2
        assert args.new_items_per_window == 2
        assert args.port == 0  # ephemeral: the smoke picks a free port
        assert args.drift_threshold is None

    def test_serve_accepts_stream_every(self):
        args = build_parser().parse_args(
            ["serve", "ds.npz", "model", "--stream-every", "5"]
        )
        assert args.stream_every == 5.0

    def test_surface_is_the_recorded_one(self):
        """Every sub-command's flags, positionals and defaults, against
        the surface recorded before the stack flags were declared once:
        sharing them may add, drop or re-default nothing (``serve-demo``
        must not, say, silently gain ``--seed``)."""
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        surface = {
            name: {
                " ".join(action.option_strings) or action.dest: action.default
                for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
            }
            for name, parser in subparsers.choices.items()
        }
        golden = Path(__file__).with_name("cli_parser_surface.json")
        assert surface == json.loads(golden.read_text())


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds.npz"
    code = main(
        [
            "generate",
            str(path),
            "--items", "200",
            "--users", "60",
            "--leaves", "8",
            "--tops", "3",
            "--sessions", "400",
            "--seed", "5",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def serving_model_path(dataset_path, tmp_path_factory):
    """A trained SISG-F-U model for the serving commands (has user types)."""
    path = tmp_path_factory.mktemp("cli-serve") / "model"
    code = main(
        [
            "train",
            str(dataset_path),
            str(path),
            "--variant", "SISG-F-U",
            "--dim", "8",
            "--epochs", "1",
            "--window", "2",
            "--negatives", "3",
        ]
    )
    assert code == 0
    return path


class TestWorkflow:
    def test_generate_creates_file(self, dataset_path):
        assert dataset_path.exists()

    def test_stats(self, dataset_path, capsys):
        assert main(["stats", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "#Items" in out
        assert "#Training pairs" in out

    def test_partition(self, dataset_path, capsys):
        assert main(["partition", str(dataset_path), "--workers", "3"]) == 0
        out = capsys.readouterr().out
        assert "hbgp" in out and "random" in out

    def test_train_evaluate_recommend(self, dataset_path, tmp_path, capsys):
        model_path = tmp_path / "model"
        code = main(
            [
                "train",
                str(dataset_path),
                str(model_path),
                "--variant", "SISG-F",
                "--dim", "8",
                "--epochs", "1",
                "--window", "2",
                "--negatives", "3",
            ]
        )
        assert code == 0
        assert model_path.with_suffix(".npz").exists()

        code = main(
            ["evaluate", str(dataset_path), str(model_path), "--ks", "1", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HR@1" in out and "HR@10" in out

        code = main(["recommend", str(model_path), "0", "-k", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("item_") == 5

    def test_serve_demo(self, dataset_path, serving_model_path, capsys):
        code = main(
            ["serve-demo", str(dataset_path), str(serving_model_path), "-k", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for needle in ("table", "ann", "cold_item", "popularity", "hot swap"):
            assert needle in out
        assert '"store_version": 1' in out  # the demo performed a swap

    @pytest.mark.parametrize(
        "stack_flags",
        [
            pytest.param([], id="one-store"),
            # Regression: --cells above the catalogue size used to crash
            # the unsharded build and work with --shards 2.
            pytest.param(["--cells", "5000"], id="cells-clamped"),
            pytest.param(
                ["--shards", "2", "--shard-executor", "process",
                 "--ann-precision", "int8", "--zero-copy"],
                id="two-shards-process-int8-zero-copy",
            ),
        ],
    )
    def test_loadgen_json_report(
        self, dataset_path, serving_model_path, tmp_path, capsys, stack_flags
    ):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "loadgen",
                str(dataset_path),
                str(serving_model_path),
                "--requests", "300",
                "--batch-size", "8",
                "--swap-mid",
                "--output", str(out_path),
                *stack_flags,
            ]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["failures"] == 0
        assert report["swap_performed"]
        assert len(report["versions_served"]) == 2
        assert report["qps"] > 0
        assert "table" in report["tiers"]
        for stats in report["tiers"].values():
            assert stats["p50"] <= stats["p95"] <= stats["p99"]
        # stdout carries the same report
        assert json.loads(capsys.readouterr().out) == report

    def test_loadgen_bad_mix_rejected(self, dataset_path, serving_model_path):
        code = main(
            [
                "loadgen",
                str(dataset_path),
                str(serving_model_path),
                "--mix", "0.5,0.5",
            ]
        )
        assert code == 2

    def test_refresh_daemon_recovers_from_injected_failure(
        self, dataset_path, serving_model_path, tmp_path, capsys
    ):
        out_path = tmp_path / "status.json"
        code = main(
            [
                "refresh-daemon",
                str(dataset_path),
                str(serving_model_path),
                "--cycles", "1",
                "--inject-failures", "1",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        status = json.loads(out_path.read_text())
        assert status["store_version"] == 1
        assert status["history"][0]["promoted"]
        assert status["history"][0]["attempts"] == 2  # retry recovered
        assert status["metrics"]["counters"]["refresh_retries"] == 1
        # stdout carries the same status
        assert json.loads(capsys.readouterr().out) == status

    def test_refresh_daemon_drift_gate_exits_nonzero(
        self, dataset_path, serving_model_path, capsys
    ):
        code = main(
            [
                "refresh-daemon",
                str(dataset_path),
                str(serving_model_path),
                "--cycles", "1",
                "--drift-threshold", "1e-12",
            ]
        )
        assert code == 1  # nothing promoted: the old generation serves
        status = json.loads(capsys.readouterr().out)
        assert status["store_version"] == 0
        assert status["history"][0]["aborted_by"] == "drift_gate"

    def test_refresh_daemon_sharded(
        self, dataset_path, serving_model_path, capsys
    ):
        code = main(
            [
                "refresh-daemon",
                str(dataset_path),
                str(serving_model_path),
                "--cycles", "1",
                "--shards", "2",
            ]
        )
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["store_version"] == [1, 1]

    def test_serve_demo_refresh_every(
        self, dataset_path, serving_model_path, capsys
    ):
        code = main(
            [
                "serve-demo",
                str(dataset_path),
                str(serving_model_path),
                "-k", "5",
                "--refresh-every", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "refresh daemon" in out
        assert "promoted=True" in out
        assert "warm item after refresh" in out

    def test_netload_bad_mix_rejected(self, dataset_path):
        code = main(["netload", str(dataset_path), "--mix", "1,2,3"])
        assert code == 2

    def test_stream_smoke(
        self, dataset_path, serving_model_path, tmp_path, capsys
    ):
        """`sisg stream`: windows apply against a live gateway while
        requests fire; new listings must end up servable over the wire."""
        out_path = tmp_path / "stream.json"
        code = main(
            [
                "stream",
                str(dataset_path),
                str(serving_model_path),
                "--windows", "1",
                "--new-items-per-window", "1",
                "--events-per-window", "32",
                "--requests-per-window", "8",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        # The generator may overshoot --events-per-window by one warm
        # run, spilling a second micro-batch: "applied them all" is the
        # contract, an exact count is not.
        assert report["windows_applied"] >= 1
        assert report["request_errors"] == 0
        assert report["new_items_servable"]
        assert report["new_item_tiers"]
        # The staleness gauge reset when the last window applied.
        assert (
            report["staleness_after_last_apply_s"]
            < report["staleness_before_last_apply_s"]
        )
        assert json.loads(capsys.readouterr().out) == report

    def test_serve_then_netload_over_socket(
        self, dataset_path, serving_model_path, tmp_path, capsys
    ):
        """The full network path: `sisg serve` on a socket, `sisg netload`
        driving it (netload polls /healthz, so starting both concurrently
        is safe)."""
        import socket
        import threading

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        serve_code: list = []
        server = threading.Thread(
            target=lambda: serve_code.append(
                main(
                    [
                        "serve",
                        str(dataset_path),
                        str(serving_model_path),
                        "--port", str(port),
                        "--duration", "5",
                    ]
                )
            ),
        )
        server.start()
        try:
            out_path = tmp_path / "netload.json"
            code = main(
                [
                    "netload",
                    str(dataset_path),
                    "--port", str(port),
                    "--requests", "60",
                    "--rate", "400",
                    "--processes", "1",
                    "--connections", "4",
                    "--output", str(out_path),
                ]
            )
        finally:
            server.join(timeout=60.0)
        assert code == 0  # netload exits 1 when any request errored
        assert serve_code == [0]
        report = json.loads(out_path.read_text())
        assert report["ok"] == 60
        assert report["errors"] == 0
        counters = report["gateway"]["counters"]
        assert counters["gateway_coalesced_batches"] > 0
        out = capsys.readouterr().out
        assert "gateway listening on" in out

    def test_train_distributed_engine(self, dataset_path, tmp_path):
        model_path = tmp_path / "dist_model"
        code = main(
            [
                "train",
                str(dataset_path),
                str(model_path),
                "--variant", "SGNS",
                "--dim", "8",
                "--epochs", "1",
                "--engine", "distributed",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert model_path.with_suffix(".npz").exists()

    @pytest.mark.parametrize(
        "engine_flags",
        [
            pytest.param(
                ["--engine", "parallel", "--workers", "2",
                 "--shard-strategy", "hbgp"],
                id="parallel-hbgp-2w",
            ),
            pytest.param(["--engine", "tns", "--workers", "auto"], id="tns-auto"),
        ],
    )
    def test_train_engine(self, engine_flags, dataset_path, tmp_path):
        model_path = tmp_path / "engine_model"
        code = main(
            [
                "train", str(dataset_path), str(model_path),
                "--dim", "16", "--epochs", "1", *engine_flags,
            ]
        )
        assert code == 0
        assert model_path.with_suffix(".npz").exists()
