"""CLI: argument parsing, model factory, end-to-end run command."""

import json

import pytest

from repro import bench
from repro.bench import PRESETS, SUITES, default_output
from repro.cli import available_models, build_parser, main, model_factory
from repro.serving.engine import DEFAULT_CACHE_SIZE
from repro.experiments.configs import get_scale


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--model", "AGNN"])
        assert args.dataset == "ML-100K"
        assert args.scenario == "item_cold"
        assert args.scale == "smoke"

    def test_run_rejects_bad_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "AGNN", "--scenario", "tepid"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_export_bundle_defaults(self):
        args = build_parser().parse_args(["export-bundle", "--output", "bundles/x"])
        assert args.model == "AGNN"
        assert args.scale == "smoke"
        assert args.output == "bundles/x"

    def test_export_bundle_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export-bundle"])

    def test_export_bundle_rejects_baselines(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export-bundle", "--model", "NFM", "--output", "x"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--bundle", "bundles/x"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.cache_size == DEFAULT_CACHE_SIZE
        assert not args.verbose

    def test_serve_requires_bundle(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serving_bench_defaults(self):
        args = build_parser().parse_args(["bench", "serving"])
        assert args.suite == "serving"
        assert not args.check and not args.json
        assert args.output is None
        assert default_output(args.suite, args.check) == "BENCH_serving.json"
        assert default_output("training", False) == "BENCH_training.json"
        # a check run never overwrites the committed baseline by default
        assert default_output("serving", True) is None

    def test_serve_batching_defaults(self):
        args = build_parser().parse_args(["serve", "--bundle", "bundles/x"])
        assert not args.no_batching
        assert args.tick_interval == 0.0  # adaptive drain: no artificial window
        assert args.max_batch_pairs == 8192
        assert args.max_queue_depth == 1024

    def test_serve_no_batching_flag(self):
        args = build_parser().parse_args(["serve", "--bundle", "bundles/x", "--no-batching"])
        assert args.no_batching

    def test_load_bench_defaults(self):
        full = PRESETS["serving"]["full"]
        assert full["concurrencies"] == (1, 4, 16)
        assert full["duration_s"] == pytest.approx(1.0)
        assert full["rate_rps"] == pytest.approx(300.0)
        assert bench.PAIRS_PER_REQUEST == 16
        assert bench.FIT_DIM == 40
        assert bench.MAX_QUEUE_DEPTH == 4096

    def test_load_bench_custom_ramp(self):
        args = build_parser().parse_args(["bench", "serving", "--check", "--output", "x.json"])
        assert args.check and args.output == "x.json"
        check = PRESETS["serving"]["check"]
        # the coalescing gate asserts its win at c=16, so the quick preset keeps it
        assert max(check["concurrencies"]) == 16
        assert check["duration_s"] < PRESETS["serving"]["full"]["duration_s"]

    def test_serve_workers_default_single_process(self):
        args = build_parser().parse_args(["serve", "--bundle", "bundles/x"])
        assert args.workers == 1

    def test_serve_workers_flag(self):
        args = build_parser().parse_args(["serve", "--bundle", "bundles/x", "--workers", "4"])
        assert args.workers == 4

    def test_load_bench_pool_defaults(self):
        for preset in ("full", "check"):
            config = PRESETS["serving"][preset]
            assert config["pool_workers"] == (1, 2, 4)
            assert max(config["concurrencies"]) == 16  # the pool sweep runs at top c

    def test_load_bench_pool_flags(self):
        # presets are fixed: the old per-knob flags are gone
        for flag in (["--pool-workers", "1", "8"], ["--concurrency", "2"], ["--epochs", "1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench", "serving", *flag])

    def test_load_bench_no_pool(self):
        for old in ("telemetry-bench", "train-bench", "graph-bench",
                    "serving-bench", "load-bench", "refresh-bench"):
            assert main([old]) == 2, old

    def test_refresh_defaults(self):
        args = build_parser().parse_args(["refresh", "--store", "stores/live"])
        assert args.store == "stores/live"
        assert args.dataset == "ML-100K"
        assert args.scale == "smoke"
        assert args.epochs is None
        assert args.interaction_fraction == pytest.approx(0.1)
        assert args.new_user_fraction == pytest.approx(0.05)
        assert args.new_item_fraction == pytest.approx(0.05)
        assert args.seed == 0

    def test_refresh_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["refresh"])

    def test_refresh_bench_defaults(self):
        args = build_parser().parse_args(["bench", "refresh"])
        assert args.suite == "refresh" and not args.check
        full, check = PRESETS["refresh"]["full"], PRESETS["refresh"]["check"]
        assert full["swap_threads"] == 4
        assert full["swap_requests"] == 50
        assert full["swaps"] == 6
        assert full["min_speedup"] == pytest.approx(1.5)
        assert full["refresh_epochs"] is None
        assert check["swaps"] > 0 and check["swap_threads"] > 1

    def test_graph_bench_defaults(self):
        args = build_parser().parse_args(["bench", "graphs", "--json"])
        assert args.suite == "graphs" and args.json
        full = PRESETS["graphs"]["full"]
        assert full["n_grid"] == (2_000, 8_000, 32_000, 100_000)
        assert full["exact_grid"] == (2_000, 4_000, 8_000)
        assert full["pool_size"] == 100
        assert full["repeats"] == 2
        assert set(SUITES) == {"training", "graphs", "serving", "refresh"}
        assert all(set(PRESETS[suite]) == {"full", "check"} for suite in SUITES)

    def test_graph_bench_rejects_bad_grid(self):
        assert main(["bench", "nope"]) == 2
        assert main(["bench"]) == 2

class TestModelFactory:
    def test_agnn_variant(self):
        scale = get_scale("smoke")
        model = model_factory("AGNN_-fgate", scale)()
        assert model.name == "AGNN_-fgate"

    def test_baseline(self):
        scale = get_scale("smoke")
        model = model_factory("NFM", scale)()
        assert model.name == "NFM"

    def test_unknown(self):
        with pytest.raises(KeyError):
            model_factory("GPT", get_scale("smoke"))

    def test_available_models_superset(self):
        models = available_models()
        assert "AGNN" in models
        assert "LLAE" in models
        assert len(models) >= 20  # 12 baselines + 15 variants (shared AGNN entry)


class TestCommands:
    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "AGNN" in out and "baseline" in out

    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Sparsity" in out

    def test_run_json_output(self, capsys):
        code = main(
            ["run", "--model", "NFM", "--scenario", "item_cold", "--scale", "smoke",
             "--epochs", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "NFM"
        assert payload["epochs_trained"] >= 1
        assert payload["rmse"] > 0

    def test_export_bundle_writes_loadable_bundle(self, capsys, tmp_path):
        code = main(
            ["export-bundle", "--scale", "smoke", "--epochs", "1",
             "--output", str(tmp_path / "bundle"), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "AGNN"
        from repro.serving import load_bundle

        bundle = load_bundle(payload["bundle"])
        assert bundle.manifest["model_name"] == "AGNN"

    def test_run_multi_seed(self, capsys):
        code = main(
            ["run", "--model", "NFM", "--scenario", "item_cold", "--scale", "smoke",
             "--epochs", "1", "--seeds", "0", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [0, 1]
        assert payload["rmse_std"] >= 0.0
