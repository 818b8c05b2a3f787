"""Harness tests: spec parsing, seeding and reproducibility, sweep output
files with resume, worker parity, the scaling benchmark, and the CLI."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from rmaccess.geometry_channel import GeometryConfig, expected_neighbors
from rmaccess.sim_cli import (
    CSV_HEADER,
    ExperimentSpec,
    calibrated_epsilon,
    main,
    presets,
    run_single_trial,
    run_sweep,
    scaling_bench,
)


def tiny_spec(**overrides):
    base = dict(devices=50, antennas=2, m=4, p=2, trials=2, seed=9, area=10_000.0)
    base.update(overrides)
    return ExperimentSpec(**base)


def drop_runtime(rec):
    return {k: v for k, v in rec.items() if k != "runtime"}


def test_calibrated_epsilon_frozen_values():
    spec = ExperimentSpec()
    point = spec.points()[0]
    eps = calibrated_epsilon(spec.frame_for(point), spec.geometry_for(point))
    assert eps == pytest.approx(37.72260613626624, rel=1e-12)
    spec2 = ExperimentSpec(devices=2000, antennas=1)
    point2 = spec2.points()[0]
    eps2 = calibrated_epsilon(spec2.frame_for(point2), spec2.geometry_for(point2))
    assert eps2 == pytest.approx(10.418571110025294, rel=1e-12)
    # no interference, noise floor only
    quiet = GeometryConfig(density=0.0, area=1.0, alpha=4.0, theta=1e-6, gamma=1e6, r=4)
    assert calibrated_epsilon(spec.frame_for(point), quiet) == pytest.approx(16.0)


def test_detector_for_uses_floor_and_overrides():
    spec = ExperimentSpec()
    point = spec.points()[0]
    cfg = spec.detector_for(point)
    assert cfg.eps == pytest.approx(37.72260613626624)
    assert cfg.k_max == 3
    assert cfg.estimate_delay
    pinned = ExperimentSpec(eps=20.0, k_max=7)
    cfg2 = pinned.detector_for(pinned.points()[0])
    assert cfg2.eps == 20.0 and cfg2.k_max == 7
    sync = ExperimentSpec(m=10, p=2, tau_max=0.0)
    assert not sync.detector_for(sync.points()[0]).estimate_delay
    # k_max = ceil(6 K* / 2**p * r**(1/4)): 12.4686 expected neighbors at
    # the default point give 3 above; an idle frame still gets one iteration
    assert expected_neighbors(spec.geometry_for(point)) == pytest.approx(12.468594178495989)
    idle = ExperimentSpec(devices=0)
    assert idle.detector_for(idle.points()[0]).k_max == 1


def test_points_cartesian_product():
    spec = ExperimentSpec(sweep={"K": [100, 200], "r": [1, 2]})
    pts = spec.points()
    assert len(pts) == 4
    assert pts[0] == {"K": 100, "r": 1, "m": 6, "p": 6, "d": 0}
    assert {(pt["K"], pt["r"]) for pt in pts} == {(100, 1), (100, 2), (200, 1), (200, 2)}
    with pytest.raises(ValueError):
        ExperimentSpec(sweep={"q": [1]})
    with pytest.raises(ValueError):
        ExperimentSpec(sweep={"K": []})


def test_from_mapping_flat_and_sectioned():
    flat = ExperimentSpec.from_mapping({"area": 9.0, "m": 5, "devices": 10})
    grouped = ExperimentSpec.from_mapping(
        {"geometry": {"area": 9.0}, "frame": {"m": 5, "devices": 10}}
    )
    assert flat == grouped
    with pytest.raises(ValueError):
        ExperimentSpec.from_mapping({"bogus": 1})
    with pytest.raises(ValueError):
        ExperimentSpec.from_mapping({"geometry": {"m": 5}})  # wrong section
    assert ExperimentSpec.from_mapping({}) == ExperimentSpec()


def test_from_yaml(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "frame": {"m": 4, "p": 2, "devices": 20, "antennas": 2},
                "sweep": {"K": [10, 20]},
                "trials": 3,
                "out": str(tmp_path / "run"),
            }
        )
    )
    spec = ExperimentSpec.from_yaml(path)
    assert spec.m == 4 and spec.trials == 3
    assert spec.sweep == {"K": [10, 20]}


def test_run_single_trial_is_deterministic():
    spec = tiny_spec()
    point = spec.points()[0]
    a = run_single_trial(spec, point, 0)
    b = run_single_trial(spec, point, 0)
    assert drop_runtime(a) == drop_runtime(b)
    c = run_single_trial(spec, point, 1)
    assert drop_runtime(a) != drop_runtime(c)
    assert a["B"] == 13 and a["K"] == 50 and a["trial"] == 0
    assert 0.0 <= a["fa"] <= 1.0
    assert a["miss"] is None or 0.0 <= a["miss"] <= 1.0


def test_run_single_trial_empty_population():
    spec = tiny_spec(devices=0)
    rec = run_single_trial(spec, spec.points()[0], 0)
    assert rec["truth"] == 0 and rec["miss"] is None
    assert rec["fa"] == 0.0 and rec["decoded"] == 0


def test_run_sweep_outputs_and_resume(tmp_path):
    spec = tiny_spec(out=str(tmp_path / "results" / "demo"))
    records = run_sweep(spec, workers=1)
    jsonl = tmp_path / "results" / "demo.jsonl"
    csv = tmp_path / "results" / "demo.csv"
    assert len(records) == 2
    lines = jsonl.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["trial"] == 0
    table = csv.read_text().strip().splitlines()
    assert table[0] == CSV_HEADER
    assert len(table) == 2
    row = table[1].split(",")
    assert row[:5] == ["50", "2", "4", "2", "0"]
    assert row[-1] == "2"

    # a second run recomputes nothing: the jsonl is byte-identical
    before = jsonl.read_bytes()
    run_sweep(spec, workers=1)
    assert jsonl.read_bytes() == before

    # extending the trial count keeps the old records untouched
    more = tiny_spec(trials=3, out=str(tmp_path / "results" / "demo"))
    extended = run_sweep(more, workers=1)
    assert len(extended) == 3
    new_lines = jsonl.read_text().strip().splitlines()
    assert new_lines[:2] == lines


def test_run_sweep_worker_parity(tmp_path):
    serial = run_sweep(tiny_spec(out=str(tmp_path / "a")), workers=1)
    pooled = run_sweep(tiny_spec(out=str(tmp_path / "b")), workers=2)
    assert [drop_runtime(r) for r in serial] == [drop_runtime(r) for r in pooled]


def test_presets_are_runnable_shapes():
    catalog = presets()
    assert set(catalog) == {"baseline", "antennas", "subblocks", "synchronous"}
    outs = set()
    for name, spec in catalog.items():
        outs.add(spec.out)
        for point in spec.points():
            spec.frame_for(point)
            spec.geometry_for(point)
            spec.detector_for(point)
    assert len(outs) == 4
    assert catalog["synchronous"].tau_max == 0.0


def test_scaling_bench_smoke():
    results = scaling_bench(m_values=(9, 10), r=4, reps=1, seed=1)
    assert [rec["m"] for rec in results] == [9, 10]
    for rec in results:
        assert rec["detections"] == 2  # k_max exhausted on the two-device slot
        assert rec["seconds"] > 0
        assert rec["model"] == 2 * 2 ** rec["m"] * (4 * 4 + rec["m"] + 2)
        assert rec["normalized"] > 0


def test_cli_run_and_bench(tmp_path, capsys):
    spec_file = tmp_path / "exp.yaml"
    spec_file.write_text(
        yaml.safe_dump(
            {
                "frame": {"m": 4, "p": 2, "devices": 30, "antennas": 2},
                "geometry": {"area": 10000.0},
                "trials": 1,
                "seed": 5,
                "out": str(tmp_path / "cli_run"),
            }
        )
    )
    assert main(["run", str(spec_file), "--workers", "1"]) == 0
    printed = capsys.readouterr().out
    assert CSV_HEADER in printed
    assert (tmp_path / "cli_run.csv").exists()

    # overrides replace the spec fields
    assert main(["run", str(spec_file), "--workers", "1", "--trials", "2",
                 "--out", str(tmp_path / "cli_run2")]) == 0
    records = (tmp_path / "cli_run2.jsonl").read_text().strip().splitlines()
    assert len(records) == 2

    assert main(["bench", "--m", "9", "--reps", "1"]) == 0
    assert "normalized" in capsys.readouterr().out

    with pytest.raises(SystemExit):
        main(["run", "--preset", "nope"])
    with pytest.raises(SystemExit):
        main(["run"])


def test_workers_env_override(monkeypatch, tmp_path):
    from rmaccess.sim_cli import _resolve_workers

    monkeypatch.setenv("RMACCESS_WORKERS", "3")
    assert _resolve_workers(None) == 3
    assert _resolve_workers(1) == 1  # explicit argument wins
    monkeypatch.setenv("RMACCESS_WORKERS", "zebra")
    with pytest.raises(ValueError):
        _resolve_workers(None)
    monkeypatch.delenv("RMACCESS_WORKERS")
    assert _resolve_workers(None) >= 1


@pytest.mark.parametrize(
    "values", [[2, 2.7], [1.5], [True, 4], [np.bool_(False)], ["4"], [float("nan")]]
)
def test_sweep_rejects_non_integer_values(values):
    with pytest.raises(ValueError, match="sweep axis 'r' has non-integer value"):
        ExperimentSpec(sweep={"r": values})


@pytest.mark.parametrize("values", [[2, 2], [2, 2.0], [4, 1, 4]])
def test_sweep_rejects_repeated_values(values):
    # a repeated value used to run every trial of its point twice
    with pytest.raises(ValueError, match="sweep axis 'r' repeats a value"):
        ExperimentSpec(sweep={"r": values})


def test_sweep_accepts_integral_floats():
    assert [pt["r"] for pt in ExperimentSpec(sweep={"r": [1, 2.0]}).points()] == [1, 2]


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_rejects_non_positive_count(workers):
    from rmaccess.sim_cli import _resolve_workers

    with pytest.raises(ValueError, match="workers must be at least 1"):
        _resolve_workers(workers)


@pytest.mark.parametrize("env", ["0", "-1"])
def test_workers_env_rejects_non_positive_count(monkeypatch, env):
    from rmaccess.sim_cli import _resolve_workers

    monkeypatch.setenv("RMACCESS_WORKERS", env)
    with pytest.raises(ValueError, match="RMACCESS_WORKERS must be at least 1"):
        _resolve_workers(None)
