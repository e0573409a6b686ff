import json
import math

import pytest

from parabolic_escape.cli import RunConfig, build_map, config_from_args, build_parser, main, parse_index_range, parse_window, run
from parabolic_escape.exceptions import ConfigError, DomainError
from parabolic_escape.maps import MapSpec
from parabolic_escape.operators import markov_grid


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_index_range_forms():
    assert parse_index_range("5") == [5]
    assert parse_index_range("2:10:2") == [2, 4, 6, 8, 10]
    assert parse_index_range("2:128:geom") == [2, 4, 8, 16, 32, 64, 128]
    assert parse_index_range("2:20:geom:1.5")[-1] == 20
    with pytest.raises(ConfigError):
        parse_index_range("10:2:1")
    with pytest.raises(ConfigError):
        parse_index_range("2:10:geom:0.5")


def test_parse_window():
    assert parse_window("20:60", 60) == (20, 60)
    assert parse_window(None, 60) is None
    with pytest.raises(ConfigError):
        parse_window("20:80", 60)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig("escape", hole_index="2", epsilon=0.1).validate()
    with pytest.raises(ConfigError):
        RunConfig("escape").validate()
    with pytest.raises(ConfigError):
        RunConfig("sandwich").validate()
    with pytest.raises(ConfigError):
        RunConfig("escape", hole_index="2", method="magic").validate()
    RunConfig("escape", hole_index="2").validate()


def test_build_map_variants(tmp_path):
    assert build_map(RunConfig("escape", map="farey", hole_index="2")).family == "farey"
    pwl = build_map(RunConfig("escape", map="pwl", s=1.0, hole_index="2"))
    assert type(pwl.weights).__name__ == "HarmonicWeights"
    zipf = build_map(RunConfig("escape", map="pwl", s=1.0, pwl_weights="zipf", hole_index="2"))
    assert type(zipf.weights).__name__ == "ZipfWeights"
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps([0.5, 0.3, 0.2]))
    explicit = build_map(RunConfig("escape", map="pwl", pwl_weights=str(wfile), hole_index="2"))
    assert explicit.weights.kmax == 3


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_escape_command_literal_value(capsys):
    code, out, _ = run_cli(
        ["escape", "--map", "pwl", "--s", "1", "--hole-index", "2", "--method", "induced"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["results"][0]
    # the reported rate is the exact decay rate; the classical pressure-ratio
    # value is carried in the diagnostics
    assert row["gamma_mu"] == pytest.approx(0.3164745543990541, abs=1e-12)
    assert row["diagnostics"]["gamma_pressure_ratio"] == pytest.approx(0.3243720864865315, abs=1e-12)
    assert row["lambda"] == pytest.approx(2 / 3, abs=1e-14)


def test_escape_csv_output(tmp_path, capsys):
    out_path = tmp_path / "row.csv"
    code, _, _ = run_cli(
        ["escape", "--map", "farey", "--hole-index", "3", "--grid", "256", "--format", "csv", "--output", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "family,s,N,a_N,m_H,lambda,gamma_rho,sum_k_rho,gamma_mu,method,grid_M,eigen_residual,runtime_ms"
    assert lines[1].startswith("farey,1,3,0.25,0.25,")


def test_sweep_monotone_column(capsys):
    code, out, _ = run_cli(
        ["sweep", "--map", "lsv", "--s", "0.5", "--hole-index", "2:16:geom", "--grid", "512"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    gammas = [r["gamma_mu"] for r in payload["results"]]
    assert all(b <= a + 1e-10 for a, b in zip(gammas, gammas[1:]))
    assert payload["failures"] == []


def test_fit_command(capsys):
    code, out, _ = run_cli(
        ["fit", "--map", "pwl", "--s", "0.5", "--pwl-weights", "zipf", "--hole-index", "30:1000:geom"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["regime"] == "linear"
    assert payload["fit"]["variation"] < 0.1


def test_sandwich_command(capsys):
    code, out, _ = run_cli(
        ["sandwich", "--map", "farey", "--epsilon", "0.3", "--grid", "512"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["N_epsilon"] == 2
    assert payload["result"]["gamma_lower"] < payload["result"]["gamma_upper"]


def test_mc_command_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        [
            "mc", "--map", "pwl", "--s", "1", "--hole-index", "2", "--samples", "100000",
            "--tmax", "20", "--window", "5:15", "--seed", "9", "--format", "csv",
            "--output", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,survivors,estimate,stderr"
    assert len(lines) == 21


def test_mc_command_threads_deterministic(capsys):
    argv = ["mc", "--map", "pwl", "--s", "1", "--hole-index", "2", "--samples", "131072",
            "--tmax", "15", "--seed", "4"]
    _, out1, _ = run_cli(argv + ["--threads", "1"], capsys)
    _, out4, _ = run_cli(argv + ["--threads", "4"], capsys)
    c1 = json.loads(out1)
    c4 = json.loads(out4)
    assert c1["curve"] == c4["curve"]
    assert c1["result"]["gamma"] == c4["result"]["gamma"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"map": "pwl", "s": 1.0, "hole_index": "2", "grid": 128}))
    code, out, _ = run_cli(["escape", "--config", str(cfg_path), "--hole-index", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["hole_index"] == "3"  # flag wins
    assert payload["config"]["grid"] == 128  # file value survives
    assert payload["results"][0]["N"] == 3


def test_json_round_trip(capsys):
    code, out, _ = run_cli(["escape", "--map", "pwl", "--s", "1", "--hole-index", "2"], capsys)
    payload = json.loads(out)
    cfg = RunConfig.from_dict(payload["config"])
    cfg.validate()
    code2, out2, _ = run_cli(["escape", "--map", "pwl", "--s", "1", "--hole-index", "2"], capsys)
    assert json.loads(out2)["results"][0]["gamma_mu"] == payload["results"][0]["gamma_mu"]
    assert cfg.to_dict() == payload["config"]


def test_both_hole_specs_rejected(capsys):
    code, _, err = run_cli(
        ["escape", "--map", "farey", "--hole-index", "2", "--epsilon", "0.1"], capsys
    )
    assert code == 2
    assert "ConfigError" in err


def test_coarse_grid_rejected(capsys):
    # a grid with no more cells than branches must fail loudly rather than
    # fall back to the natural partition (1.7% low for lsv s=0.5, N=30, grid 16)
    with pytest.raises(DomainError):
        markov_grid(MapSpec.lsv(0.5), 30, 16)
    code, out, err = run_cli(
        ["escape", "--map", "lsv", "--s", "0.5", "--hole-index", "30", "--grid", "16"], capsys
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"holes": 2}))
    code, _, err = run_cli(["escape", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert "unknown config keys" in err


def test_verify_command(capsys):
    code, out, _ = run_cli(["verify", "--grid", "2048"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
