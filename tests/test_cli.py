"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("fig7a", "fig7b", "fig7c", "abl-rand", "state"):
            assert name in output

    def test_run_command(self, capsys):
        assert main(["run", "fig7c", "--runs", "2", "--seed", "9"]) == 0
        output = capsys.readouterr().out
        assert "fig7c-variance" in output
        assert "dr" in output

    @pytest.mark.parametrize("runs", ["0", "-1"])
    @pytest.mark.parametrize("experiment", ["fig1", "fig7a"])
    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_non_positive_runs_is_a_usage_error(
        self, command, experiment, runs, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, experiment, "--runs", runs])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"--runs: must be at least 1, got {int(runs)}" in captured.err
        assert captured.out == ""

    def test_run_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestVerifyRepairCommands:
    """Exit-code contract: 0 clean, 1 corruption/loss, 2 bad usage."""

    @pytest.fixture
    def shard_dir(self, tmp_path):
        from tests.store.conftest import build_trace

        directory = tmp_path / "shards"
        build_trace(n=60, with_states=True).to_shards(directory, shard_size=20)
        return directory

    def test_verify_clean_store_exits_zero(self, shard_dir, capsys):
        assert main(["verify", str(shard_dir)]) == 0
        assert "all shards verified" in capsys.readouterr().out

    def test_verify_corrupt_store_exits_one_and_names_the_shard(
        self, shard_dir, capsys
    ):
        from repro.testing.faults import flip_shard_bit

        flip_shard_bit(shard_dir, 1)
        assert main(["verify", str(shard_dir)]) == 1
        output = capsys.readouterr().out
        assert "shard-00001.npz" in output
        assert "repro repair" in output

    def test_verify_missing_directory_exits_two(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_repair_excises_and_exits_one_on_loss(self, shard_dir, capsys):
        from repro.testing.faults import truncate_shard

        truncate_shard(shard_dir, 0)
        assert main(["repair", str(shard_dir)]) == 1
        assert "lost" in capsys.readouterr().out
        assert main(["verify", str(shard_dir)]) == 0

    def test_repair_with_source_exits_zero(self, shard_dir, tmp_path, capsys):
        from tests.store.conftest import build_trace

        from repro.testing.faults import flip_shard_bit

        source = tmp_path / "trace.jsonl"
        build_trace(n=60, with_states=True).to_jsonl(source)
        flip_shard_bit(shard_dir, 2)
        assert main(["repair", str(shard_dir), "--source", str(source)]) == 0
        assert "re-derived from source" in capsys.readouterr().out
        assert main(["verify", str(shard_dir)]) == 0

    def test_v1_store_refused_without_traceback(self, shard_dir, capsys):
        import json

        manifest_path = shard_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        for entry in manifest["shards"]:
            del entry["sha256"], entry["bytes"]
        manifest_path.write_text(json.dumps(manifest))
        assert main(["verify", str(shard_dir)]) == 1
        verify = capsys.readouterr()
        assert "format version 1 is not supported" in verify.out
        assert main(["repair", str(shard_dir)]) == 2
        repair = capsys.readouterr()
        assert "format version 1 is not supported" in repair.err
        assert "Traceback" not in verify.out + verify.err + repair.out + repair.err

    def test_repair_nothing_to_do_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["repair", str(empty)]) == 2
        assert "nothing to repair" in capsys.readouterr().err


class TestServeCommand:
    """The serve subcommand's setup error paths (the live server is
    exercised end-to-end in tests/serve/)."""

    def test_missing_registry_exits_one(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "absent.json")]) == 1
        assert "repro serve: error" in capsys.readouterr().err

    def test_invalid_registry_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "registry.json"
        bad.write_text("{broken")
        assert main(["serve", str(bad)]) == 1
        assert "repro serve: error" in capsys.readouterr().err
