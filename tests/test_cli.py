"""End-to-end CLI tests: experiment configs, result dirs, reports."""

import json

import pytest

from tlbo import bench, oracles
from tlbo.cli import main


def family_cfg(out_dir=None, budget=5, seeds=2, methods=("transbo", "random")):
    cfg = {
        "protocol": "static",
        "tasks": {
            "kind": "synthetic",
            "family": {
                "base": "quadratic-bowl",
                "n_tasks": 3,
                "translation_range": 1.0,
                "scale_range": [0.9, 1.1],
                "noise_scale": 0.01,
                "seed": 4,
            },
        },
        "methods": list(methods),
        "budget": budget,
        "seeds": seeds,
        "N_S": 15,
        "n_cv": 5,
        "n_candidates": 400,
    }
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)
    return cfg


def normalized_records(path):
    """Result records with wallclock fields removed, for determinism checks."""
    out = []
    for line in path.read_text().strip().splitlines():
        record = json.loads(line)
        record.pop("suggest_wallclock_ms", None)
        out.append(record)
    return out


SELFTEST_NAMES = (
    "encoding",
    "standardize",
    "ranking-loss-values",
    "ranking-gradient-fd",
    "simplex-solver-vs-grid",
    "simplex-solver-kkt-badly-scaled",
    "expected-improvement-quadrature",
    "average-rank-ties",
    "combined-prediction",
    "likelihood-vs-reference",
    "likelihood-vs-dense",
    "lbfgsb-vs-minimize",
    "predict-blocks",
)


class TestSelftest:
    def test_exit_zero(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [f"PASS {name}" for name in SELFTEST_NAMES]

    def test_failing_check_exits_one_and_runs_the_rest(self, monkeypatch, capsys):
        def broken():
            raise AssertionError("deliberate mismatch")

        checks = list(oracles.CHECKS)
        failing = checks[3][0]
        checks[3] = (failing, broken)
        monkeypatch.setattr(oracles, "CHECKS", tuple(checks))
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == f"FAIL {failing}: deliberate mismatch"
        others = [line for i, line in enumerate(lines) if i != 3]
        assert others == [f"PASS {name}" for name, _ in checks if name != failing]


class TestRunStaticCli:
    def test_writes_result_dir(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(family_cfg(out_dir=tmp_path / "res")))
        assert main(["run-static", str(cfg_path)]) == 0
        assert (tmp_path / "res" / "manifest.json").exists()
        runs = list((tmp_path / "res" / "runs").glob("*.jsonl"))
        assert len(runs) == 3 * 2 * 2  # tasks x methods x seeds

    def test_rerun_reproduces_records_byte_identically(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(family_cfg(budget=6, seeds=1)))
        assert main(["run-static", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
        assert main(["run-static", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
        files1 = sorted((tmp_path / "r1" / "runs").glob("*.jsonl"))
        files2 = sorted((tmp_path / "r2" / "runs").glob("*.jsonl"))
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            a = [json.dumps(r, sort_keys=True) for r in normalized_records(f1)]
            b = [json.dumps(r, sort_keys=True) for r in normalized_records(f2)]
            assert a == b

    def test_missing_out_dir_fails_with_error_record(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(family_cfg()))
        assert main(["run-static", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "ValidationError"

    @pytest.mark.parametrize("verb", ["run-static", "run-dynamic"])
    def test_missing_out_dir_checked_before_running(self, tmp_path, capsys, monkeypatch, verb):
        def refuse(*args, **kwargs):
            raise RuntimeError("the protocol ran without an output directory")

        monkeypatch.setattr(bench, "run_static", refuse)
        monkeypatch.setattr(bench, "run_dynamic", refuse)
        cfg = family_cfg()
        cfg["protocol"] = verb.removeprefix("run-")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([verb, str(cfg_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "output directory" in record["message"]

    @pytest.mark.parametrize(
        "verb, change",
        [
            ("run-static", {"protocol": "dynamic"}),
            ("run-dynamic", {"protocol": "static"}),
            ("run-dynamic", {"protocol": "dynamic", "targets": [0]}),
            ("run-dynamic", {"protocol": "dynamic", "flip_sources": True}),
            ("run-static", {"n_s": 15}),
            ("run-static", {"budgett": 5}),
        ],
    )
    def test_mismatched_protocol_or_unread_key_rejected(self, tmp_path, capsys, monkeypatch, verb, change):
        def refuse(*args, **kwargs):
            raise RuntimeError("the protocol ran with a config it does not read")

        monkeypatch.setattr(bench, "run_static", refuse)
        monkeypatch.setattr(bench, "run_dynamic", refuse)
        cfg = family_cfg(out_dir=tmp_path / "res")
        cfg.update(change)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([verb, str(cfg_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("budget", 3.9),
            ("budget", "30"),
            ("budget", True),
            ("N_S", 15.0),
            ("n_cv", None),
            ("n_candidates", "400"),
            ("base_seed", False),
            ("workers", 1.5),
            ("flip_sources", "false"),
            ("flip_sources", 0),
            ("seeds", "12"),
            ("seeds", 2.5),
            ("seeds", True),
            ("seeds", [0, "1"]),
            ("seeds", [0, 1.0]),
        ],
    )
    def test_value_of_the_wrong_json_type_rejected(self, tmp_path, capsys, monkeypatch, key, value):
        def refuse(*args, **kwargs):
            raise RuntimeError(f"the protocol ran with {key}={value!r}")

        monkeypatch.setattr(bench, "build_static_sources", refuse)
        monkeypatch.setattr(bench, "_map_jobs", refuse)
        cfg = family_cfg(out_dir=tmp_path / "res")
        cfg[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run-static", str(cfg_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert repr(key) in record["message"] or record["message"].startswith(f"{key} ")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("methods",), "igp", "methods"),
            (("methods",), 3, "methods"),
            (("targets",), 0, "targets"),
            (("tasks",), {"kind": "tabular", "paths": "abc"}, "paths"),
            (("tasks", "family", "n_tasks"), "3", "n_tasks"),
        ],
    )
    def test_list_or_family_value_of_the_wrong_type_rejected(self, tmp_path, capsys, monkeypatch, path, value, key):
        def refuse(*args, **kwargs):
            raise RuntimeError(f"a task was built with {key}={value!r}")

        monkeypatch.setattr(bench, "make_synthetic_family", refuse)
        monkeypatch.setattr(bench, "load_tabular", refuse)
        cfg = family_cfg(out_dir=tmp_path / "res")
        node = cfg
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run-static", str(cfg_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert repr(key) in record["message"]
        assert not (tmp_path / "res").exists()

    def test_single_fold_fails_with_error_record(self, tmp_path, capsys):
        cfg = family_cfg(out_dir=tmp_path / "res", methods=("transbo",), budget=4, seeds=1)
        cfg["n_cv"] = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run-static", str(cfg_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("verb", ["run-static", "run-dynamic"])
    def test_negative_base_seed_fails_with_error_record(self, tmp_path, capsys, verb):
        cfg = family_cfg(out_dir=tmp_path / "res", methods=("random",), budget=4, seeds=1)
        cfg.update(protocol=verb.removeprefix("run-"), base_seed=-1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([verb, str(cfg_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "base_seed" in record["message"]
        assert not (tmp_path / "res").exists()

    def test_bad_config_fails_with_error_record(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["run-static", str(cfg_path)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"


class TestUnreadKeyInsideAnObject:
    """Keys inside ``tasks``, a family and a ``bench-synthetic`` spec are read
    like top-level ones: a key left unread is a ValidationError naming it."""

    @pytest.mark.parametrize("where", ["family", "tasks", "bench-synthetic"])
    def test_rejected_before_any_task_is_built(self, tmp_path, capsys, monkeypatch, where):
        def refuse(*args, **kwargs):
            raise RuntimeError("a task was built from an object with an unread key")

        monkeypatch.setattr(bench, "make_synthetic_family", refuse)
        cfg = family_cfg(out_dir=tmp_path / "res")
        key = "extra" if where == "tasks" else "n_taks"
        if where == "bench-synthetic":
            cfg = {**cfg["tasks"]["family"], key: 3}
            argv = ["bench-synthetic", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "res")]
        else:
            (cfg["tasks"] if where == "tasks" else cfg["tasks"]["family"])[key] = 1
            argv = ["run-static", str(tmp_path / "cfg.json")]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert repr(key) in record["message"]
        assert not (tmp_path / "res").exists()


class TestRunDynamicCli:
    def test_writes_result_dir(self, tmp_path):
        cfg = family_cfg(out_dir=tmp_path / "res", methods=("igp", "random"), budget=4, seeds=1)
        cfg["protocol"] = "dynamic"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run-dynamic", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "res" / "manifest.json").read_text())
        assert manifest["protocol"] == "dynamic"


class TestBenchSynthetic:
    def test_materializes_tables(self, tmp_path):
        spec = {
            "base": "quadratic-bowl",
            "n_tasks": 2,
            "translation_range": 1.0,
            "scale_range": [1.0, 1.0],
            "noise_scale": 0.0,
            "seed": 3,
            "grid_size": 50,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["bench-synthetic", str(spec_path), "--out", str(tmp_path / "tables")]) == 0
        tables = sorted((tmp_path / "tables").glob("quadratic-bowl-*.json"))
        assert len(tables) == 2
        manifest = json.loads((tmp_path / "tables" / "family.json").read_text())
        assert len(manifest) == 2

        from tlbo.bench import load_tabular

        task = load_tabular(tables[0])
        assert len(task.rows) == 50

    def test_grid_size_is_read_from_the_spec_only(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"base": "quadratic-bowl", "n_tasks": 1, "grid_size": 20}))
        with pytest.raises(SystemExit):
            main(["bench-synthetic", str(spec_path), "--out", str(tmp_path / "t"), "--grid-size", "5"])
        assert main(["bench-synthetic", str(spec_path), "--out", str(tmp_path / "t")]) == 0
        task = bench.load_tabular(tmp_path / "t" / "quadratic-bowl-00.json")
        assert len(task.rows) == 20

    @pytest.mark.parametrize("grid_size", [20.5, "20", True])
    def test_grid_size_of_the_wrong_json_type_rejected(self, tmp_path, capsys, grid_size):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"base": "quadratic-bowl", "n_tasks": 1, "grid_size": grid_size}))
        assert main(["bench-synthetic", str(spec_path), "--out", str(tmp_path / "t")]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError" and "'grid_size'" in record["message"]
        assert not (tmp_path / "t").exists()

    def test_spec_that_is_not_an_object_fails_with_error_record(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[1, 2]")
        assert main(["bench-synthetic", str(spec_path), "--out", str(tmp_path / "t")]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"
        assert str(spec_path) in record["message"]
        assert not (tmp_path / "t").exists()

    def test_tables_usable_as_tabular_experiment(self, tmp_path):
        spec = {
            "base": "quadratic-bowl",
            "n_tasks": 2,
            "seed": 3,
            "grid_size": 30,
            "translation_range": 1.0,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        main(["bench-synthetic", str(spec_path), "--out", str(tmp_path / "tables")])
        cfg = {
            "protocol": "static",
            "tasks": {
                "kind": "tabular",
                "paths": [str(p) for p in sorted((tmp_path / "tables").glob("*-0*.json"))],
            },
            "methods": ["random"],
            "budget": 4,
            "seeds": 1,
            "N_S": 10,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run-static", str(cfg_path), "--out", str(tmp_path / "res")]) == 0


class TestReportCli:
    def test_report_from_result_dir(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(family_cfg(out_dir=tmp_path / "res", budget=4, seeds=1)))
        main(["run-static", str(cfg_path)])
        assert main(["report", str(tmp_path / "res"), str(tmp_path / "csv")]) == 0
        assert (tmp_path / "csv" / "adtm.csv").exists()
        assert (tmp_path / "csv" / "avg_rank.csv").exists()
        assert (tmp_path / "csv" / "overhead.csv").exists()

    def test_missing_dir_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope"), str(tmp_path / "csv")]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"
