import json

import numpy as np
import pytest

from mimowave import cli, experiments, mm
from mimowave.errors import ConfigError
from mimowave.experiments import (
    ExperimentConfig,
    config_from_dict,
    desk_scale,
    format_cell,
    load_config,
    load_waveform,
    run_experiment,
    save_waveform,
    write_csv,
)

from conftest import random_complex


def small_config_dict(tmp_path, experiment="entropy_vs_energy", **overrides):
    raw = {
        "experiment": experiment,
        "seed": 99,
        "sweep": [0.5, 1.0],
        "true_doa_deg": 25.0,
        "p_fa": 0.01,
        "mc_trials": 10_000,
        "output": str(tmp_path / "out.csv"),
        "scenario": {
            "n_tx": 2,
            "n_rx": 2,
            "code_length": 3,
            "noise_power": 1.0,
            "energy_budget": 1.0,
            "nominal_doa_deg": 15.0,
            "nominal_amplitude": 1.2,
            "uncertainty_angles_deg": [-20.0, 0.0, 15.0, 30.0],
            "uncertainty_power": 0.05,
        },
    }
    raw.update(overrides)
    return raw


# ----------------------------------------------------------- config parsing

def test_config_round_trip(tmp_path):
    raw = small_config_dict(tmp_path)
    cfg = config_from_dict(raw)
    assert cfg.experiment == "entropy_vs_energy"
    assert cfg.sweep == (0.5, 1.0)
    assert cfg.scenario.n_tx == 2
    assert cfg.scenario.seed == 99
    echoed = experiments.config_to_dict(cfg)
    assert config_from_dict(echoed) == cfg


def test_config_requires_seed(tmp_path):
    raw = small_config_dict(tmp_path)
    del raw["seed"]
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(raw)


def test_config_rejects_unknown_keys(tmp_path):
    raw = small_config_dict(tmp_path, typo_key=1)
    with pytest.raises(ConfigError, match="typo_key"):
        config_from_dict(raw)
    raw = small_config_dict(tmp_path)
    raw["scenario"]["n_elements"] = 4
    with pytest.raises(ConfigError, match="n_elements"):
        config_from_dict(raw)


def test_config_rejects_bad_experiment(tmp_path):
    with pytest.raises(ConfigError, match="unknown experiment"):
        config_from_dict(small_config_dict(tmp_path, experiment="mystery"))


def test_config_sweep_rules(tmp_path):
    raw = small_config_dict(tmp_path)
    del raw["sweep"]
    with pytest.raises(ConfigError, match="sweep"):
        config_from_dict(raw)
    # single_design may omit the sweep: it defaults to the energy budget
    raw = small_config_dict(tmp_path, experiment="single_design")
    del raw["sweep"]
    cfg = config_from_dict(raw)
    assert cfg.sweep == (1.0,)


def test_config_trial_budget_guard(tmp_path):
    raw = small_config_dict(tmp_path, p_fa=1e-4, mc_trials=1000)
    with pytest.raises(ConfigError, match="trials"):
        config_from_dict(raw)


def test_config_amplitude_forms(tmp_path):
    raw = small_config_dict(tmp_path)
    raw["scenario"]["nominal_amplitude"] = [1.0, -0.5]
    cfg = config_from_dict(raw)
    assert cfg.scenario.nominal_amplitude == 1.0 - 0.5j
    raw["scenario"]["nominal_amplitude"] = [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_desk_scale_shrinks(tmp_path):
    cfg = config_from_dict(small_config_dict(tmp_path, mc_trials=100_000))
    small = desk_scale(cfg)
    assert small.scenario.n_tx == 4
    assert small.scenario.code_length == 8
    assert small.mc_trials == 20_000
    # spacings survive
    assert small.scenario.tx.spacing_wavelengths == cfg.scenario.tx.spacing_wavelengths


# ------------------------------------------------------------------ files

def test_format_cell():
    assert format_cell(3) == "3"
    assert format_cell("x") == "x"
    assert format_cell(0.1) == "0.10000000000000001"
    assert format_cell(float("nan")) == "nan"


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 0.5], [2, float("nan")]])
    data = path.read_bytes()
    assert data == b"a,b\n1,0.5\n2,nan\n"


def test_waveform_round_trip(tmp_path):
    rng = np.random.default_rng(50)
    x = random_complex(rng, (5, 3))
    path = tmp_path / "w.json"
    save_waveform(path, x)
    back = load_waveform(path)
    assert np.allclose(back, x, atol=1e-15)
    payload = json.loads(path.read_text())
    assert payload["rows"] == 5 and payload["cols"] == 3
    # column-major interleaving: first pair is X[0, 0]
    assert payload["entries"][0] == pytest.approx(x[0, 0].real)
    assert payload["entries"][1] == pytest.approx(x[0, 0].imag)
    assert payload["entries"][2] == pytest.approx(x[1, 0].real)


def test_load_waveform_rejects_short_payload(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"rows": 2, "cols": 2, "entries": [1.0, 2.0]}')
    with pytest.raises(ValueError):
        load_waveform(path)


# ---------------------------------------------------------------- runners

def test_entropy_experiment_end_to_end(tmp_path):
    cfg = config_from_dict(small_config_dict(tmp_path))
    outcome = run_experiment(cfg)
    assert outcome.failures == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "p_t,entropy_robust,entropy_nominal"
    assert len(lines) == 3
    for line in lines[1:]:
        p_t, d_rob, d_nom = (float(v) for v in line.split(","))
        assert d_rob >= d_nom - 1e-9, f"robust below nominal at P_t={p_t}"
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["experiment"] == "entropy_vs_energy"
    assert all(p["status"] == "ok" for p in manifest["points"])
    assert manifest["wall_clock_s"] > 0


def test_failed_point_leaves_nan_row(tmp_path):
    # a negative energy in the sweep cannot build a scenario: the point
    # must fail alone and the rest of the run survive
    cfg = config_from_dict(small_config_dict(tmp_path, sweep=[0.5, -1.0]))
    outcome = run_experiment(cfg)
    assert outcome.failures == 1
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[2] == "-1,nan,nan"
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["points"][1]["status"] == "error"
    assert "energy" in manifest["points"][1]["error"]


def test_ascent_error_leaves_nan_row(tmp_path, monkeypatch):
    # a typed ascent failure inside the design loop fails its point only
    monkeypatch.setattr(mm, "trs_solve",
                        lambda m_mat, m_vec, p_t, tol: (np.zeros_like(m_vec), 0.0))
    cfg = config_from_dict(small_config_dict(tmp_path, sweep=[0.5]))
    outcome = run_experiment(cfg)
    assert outcome.failures == 1
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[1] == "0.5,nan,nan"
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["points"][0]["error"].startswith("AscentError")


def test_pd_experiment_end_to_end(tmp_path):
    cfg = config_from_dict(small_config_dict(
        tmp_path, experiment="pd_vs_energy", sweep=[1.0]))
    outcome = run_experiment(cfg)
    assert outcome.failures == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "p_t,pd_robust,pd_nominal,gamma_robust,gamma_nominal"
    row = [float(v) for v in lines[1].split(",")]
    assert 0.0 <= row[1] <= 1.0 and 0.0 <= row[2] <= 1.0


def test_doa_experiment_rows(tmp_path):
    cfg = config_from_dict(small_config_dict(
        tmp_path, experiment="pd_vs_nominal_doa", sweep=[15.0, 35.0]))
    run_experiment(cfg)
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "nominal_doa_deg,mismatch_deg,pd_robust,pd_nominal"
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(10.0)  # |15 - 25|


def test_single_design_outputs(tmp_path):
    cfg = config_from_dict(small_config_dict(
        tmp_path, experiment="single_design", sweep=[1.0]))
    outcome = run_experiment(cfg)
    assert outcome.failures == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective,multiplier,energy"
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert objs == sorted(objs), "iteration trace must be nondecreasing"
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    wf_path = manifest["results"]["waveform_path"]
    x = load_waveform(wf_path)
    assert x.shape == (3, 2)
    assert manifest["results"]["relative_entropy"] == pytest.approx(objs[-1])


def test_reruns_are_byte_identical(tmp_path):
    raw = small_config_dict(tmp_path, experiment="pd_vs_energy", sweep=[1.0])
    cfg = config_from_dict(raw)
    run_experiment(cfg)
    first = (tmp_path / "out.csv").read_bytes()
    run_experiment(cfg)
    assert (tmp_path / "out.csv").read_bytes() == first


def test_point_substreams_are_stable(tmp_path):
    # dropping the first sweep point must not change the second point's row
    full = config_from_dict(small_config_dict(
        tmp_path, experiment="entropy_vs_energy", sweep=[0.5, 1.0],
        output=str(tmp_path / "full.csv")))
    run_experiment(full)
    row_full = (tmp_path / "full.csv").read_text().splitlines()[2]
    # a one-point sweep at the same index cannot exist, but the same value
    # re-run at index 1 must reproduce the row bit for bit
    again = config_from_dict(small_config_dict(
        tmp_path, experiment="entropy_vs_energy", sweep=[0.7, 1.0],
        output=str(tmp_path / "again.csv")))
    run_experiment(again)
    row_again = (tmp_path / "again.csv").read_text().splitlines()[2]
    assert row_full == row_again


# -------------------------------------------------------------------- CLI

def test_cli_sweep_success(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(small_config_dict(tmp_path)))
    code = cli.main(["sweep", str(config_path)])
    assert code == 0
    assert (tmp_path / "out.csv").exists()
    out = capsys.readouterr().out
    assert "out.csv" in out


def test_cli_design_requires_single_design(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(small_config_dict(tmp_path)))
    code = cli.main(["design", str(config_path)])
    assert code == 1
    assert "single_design" in capsys.readouterr().err


def test_cli_sweep_rejects_single_design(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        small_config_dict(tmp_path, experiment="single_design", sweep=[1.0])))
    assert cli.main(["sweep", str(config_path)]) == 1


def test_cli_design_runs(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        small_config_dict(tmp_path, experiment="single_design", sweep=[1.0])))
    assert cli.main(["design", str(config_path)]) == 0
    assert (tmp_path / "out.csv").exists()


def test_cli_partial_failure_exit_code(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        small_config_dict(tmp_path, sweep=[0.5, -1.0])))
    code = cli.main(["sweep", str(config_path)])
    assert code == 2
    assert "failed" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text("{}")
    assert cli.main(["sweep", str(config_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_overrides(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(small_config_dict(tmp_path)))
    other = tmp_path / "other.csv"
    code = cli.main(["sweep", str(config_path), "--out", str(other),
                     "--seed", "123"])
    assert code == 0
    manifest = json.loads((tmp_path / "other.csv.manifest.json").read_text())
    assert manifest["seed"] == 123
    assert manifest["config"]["output"] == str(other)


def test_cli_desk_scale_flag(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(small_config_dict(tmp_path)))
    assert cli.main(["sweep", str(config_path), "--desk-scale"]) == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["config"]["scenario"]["n_tx"] == 4
    assert manifest["config"]["scenario"]["code_length"] == 8
