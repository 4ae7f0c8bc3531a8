"""End-to-end tests of the command-line interface.

Every test drives ``dispatch(argv)`` in process and checks exit codes, CSV
and JSON payloads, and the reproducibility manifest contract.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tvls.cli as cli_mod
from tvls.cli import dispatch
from tvls.errors import PreconditionError, TruncationWarning
from tvls.kernels import convergence_diagnostic
from tvls.model import model_from_json
from tvls.stability import lambda_max_check

CAR1 = {
    "p": 1,
    "A": [[{"family": "constant", "params": [-1.0]}]],
    "B": [1.0],
    "C": [1.0],
    "levy": {"brownian_variance": 1.0},
}

# a(t) = 1.5 + 0.5 tanh(t); the state matrix is -a(t)
TVCAR1 = {
    "p": 1,
    "A": [[{"family": "logistic", "params": [-1.0, -1.0, 2.0, 0.0]}]],
    "B": [1.0],
    "C": [1.0],
    "levy": {"brownian_variance": 1.0},
}

UNSTABLE = {
    "p": 1,
    "A": [[0.5]],
    "B": [1.0],
    "C": [1.0],
    "levy": {"brownian_variance": 1.0},
}

DIAG = {
    "p": 2,
    "A": [[-2.0, 0.0], [0.0, -3.0]],
    "B": [1.0, 1.0],
    "C": [1.0, 1.0],
    "levy": {"brownian_variance": 1.0},
}

# same transfer function (2z + 5)/(z^2 + 5z + 6) as DIAG, in CARMA form
CARMA21 = {
    "p": 2,
    "q": 1,
    "ar": [5.0, 6.0],
    "ma": [5.0, 2.0],
    "levy": {"brownian_variance": 1.0},
}


def write_model(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def car1_file(tmp_path):
    return write_model(tmp_path, "car1.json", CAR1)


@pytest.fixture
def tvcar1_file(tmp_path):
    return write_model(tmp_path, "tvcar1.json", TVCAR1)


@pytest.fixture
def diag_file(tmp_path):
    return write_model(tmp_path, "diag.json", DIAG)


def test_spectrum_row_count_and_manifest_file(tmp_path, car1_file):
    out = tmp_path / "spec.csv"
    code = dispatch(["spectrum", "--model", car1_file, "--t", "0",
                     "--lmax", "5", "--dl", "0.01", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1001
    lam = np.array([float(line.split(",")[0]) for line in lines])
    val = np.array([float(line.split(",")[1]) for line in lines])
    assert lam[0] == -5.0
    assert abs(lam[-1] - 5.0) < 1e-12
    assert abs(lam[500]) < 1e-12
    # constant model: f(0) = 1/(2 pi) up to lag truncation
    assert abs(val[500] - 1.0 / (2.0 * np.pi)) < 2e-4
    manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "spectrum"
    assert manifest["parameters"]["lmax"] == 5.0
    assert isinstance(manifest["version"], str)
    assert "argv_resolved" in manifest and manifest["argv_resolved"][0] == "spectrum"


def test_spectrum_stdout_with_stderr_manifest(capsys, car1_file):
    code = dispatch(["spectrum", "--model", car1_file, "--t", "0",
                     "--lmax", "1", "--dl", "0.5"])
    assert code == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert len(rows) == 5
    assert [float(r.split(",")[0]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    manifest_line = json.loads(captured.err.strip())
    assert manifest_line["manifest"]["subcommand"] == "spectrum"


def test_spectrum_manifest_resolved_block_is_deterministic(tmp_path, car1_file):
    out = tmp_path / "spec.csv"
    argv = ["spectrum", "--model", car1_file, "--t", "0.5",
            "--lmax", "3", "--dl", "0.05", "--out", str(out)]
    manifest_path = tmp_path / "spec.csv.manifest.json"
    assert dispatch(argv) == 0
    first = manifest_path.read_bytes()
    assert dispatch(argv) == 0
    assert manifest_path.read_bytes() == first
    manifest = json.loads(first)
    assert manifest["parameters"]["umax"] is None  # derived, not passed
    resolved = manifest["resolved"]
    cert = resolved["certificate"]
    assert cert["route"] == "lambda_max"
    assert cert["gamma"] == 1.0 and cert["lam"] == 1.0
    assert cert["window"] == [-0.5, 0.5]
    # the derived lag horizon is the certificate's default
    assert resolved["umax"] == lambda_max_check(
        model_from_json(CAR1).A, (-0.5, 0.5)).default_u_max()
    assert resolved["transform"] == "chirp_z"


def test_spectrum_manifest_records_explicit_umax(tmp_path, car1_file, capsys):
    code = dispatch(["spectrum", "--model", car1_file, "--t", "0",
                     "--lmax", "1", "--dl", "0.5", "--umax", "12"])
    assert code == 0
    resolved = json.loads(capsys.readouterr().err.strip())["manifest"]["resolved"]
    assert resolved == {"umax": 12.0, "certificate": None, "transform": "chirp_z"}


def test_spectrum_grid_budget_exits_2(car1_file, capsys):
    # 1e12 lags would need 7 TiB; the budget refuses before allocating.
    code = dispatch(["spectrum", "--model", car1_file, "--t", "0",
                     "--lmax", "1", "--dl", "0.5", "--umax", "1e3", "--du", "1e-9"])
    assert code == 2
    code = dispatch(["spectrum", "--model", car1_file, "--t", "0",
                     "--lmax", "1e3", "--dl", "1e-9", "--umax", "2"])
    assert code == 2


DRIFTING = {
    "p": 2,
    "A": [[0.0, 1.0], [{"family": "affine", "params": [-6.0, -1.0]}, -5.0]],
    "B": [5.0, 2.0],
    "C": [0.0, 1.0],
    "levy": {"brownian_variance": 1.0, "jump_intensity": 2.0, "jump_std": 0.5},
}


@pytest.mark.parametrize("model, args, what", [
    (CAR1, ["transition", "--s0", "0", "--s", "1", "--method", "ode", "--steps", "3000"],
     "ode_transition steps"),
    # 24 alpha (hi - lo) / 16 = 4000+ RK4 steps per anchor interval
    (DRIFTING, ["stability", "--window", "0,50", "--route", "eigen"], "ode_transition steps"),
    (DRIFTING, ["stability", "--window", "0,50", "--route", "auto"], "ode_transition steps"),
    # the step count overflows to inf
    pytest.param(DRIFTING, ["stability", "--window", "0,1e300", "--route", "eigen"],
                 "ode_transition steps",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
    (CAR1, ["transition", "--s0", "0", "--s", "100", "--method", "comm"], "quadrature nodes"),
    (CAR1, ["transition", "--s0", "0", "--s", "100", "--method", "pb"], "quadrature nodes"),
    # (1000 + 1) driving-time units at a 0.1 / ||A|| step
    (DRIFTING, ["simulate", "--N", "1000", "--t0", "0", "--t1", "1", "--dt", "0.5",
                "--burn-in", "1"], "simulate_paths substeps"),
    # 600 paths x 3 times x 2 states
    (DRIFTING, ["simulate", "--N", "1", "--t0", "0", "--t1", "1", "--dt", "0.5",
                "--burn-in", "1", "--paths", "600"], "simulate_paths outputs"),
])
def test_step_node_and_path_budgets_exit_2(tmp_path, monkeypatch, capsys, model, args, what):
    # A small budget keeps both this test and a regression of it cheap.
    monkeypatch.setattr("tvls.quadrature.MAX_GRID_POINTS", 1000)
    path = write_model(tmp_path, "model.json", model)
    code = dispatch(args + ["--model", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip()
    assert code == 2
    err = json.loads(err)
    assert err["type"] == "PreconditionError"
    assert err["error"].startswith(what + ":")
    assert "grid budget of 1000 points" in err["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, args", [
    (CAR1, ["transition", "--s0", "0", "--s", "1", "--method", "ode", "--steps", "900"]),
    (DRIFTING, ["stability", "--window", "0,1", "--route", "eigen"]),
    (CAR1, ["transition", "--s0", "0", "--s", "20", "--method", "comm"]),
    (DRIFTING, ["simulate", "--N", "4", "--t0", "0", "--t1", "1", "--dt", "0.5",
                "--burn-in", "1", "--paths", "100"]),
])
def test_runs_within_a_small_budget_pass(tmp_path, monkeypatch, model, args):
    monkeypatch.setattr("tvls.quadrature.MAX_GRID_POINTS", 1000)
    path = write_model(tmp_path, "model.json", model)
    assert dispatch(args + ["--model", path, "--out", str(tmp_path / "out")]) == 0


def test_wigner_zero_n_exits_2(car1_file, capsys):
    code = dispatch(["wigner", "--model", car1_file, "--N", "0", "--t", "0",
                     "--lmax", "1", "--dl", "0.5", "--umax", "4", "--smax", "4"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "PreconditionError"
    assert "N" in err["error"]


def test_wvconv_zero_n_exits_2(tvcar1_file, capsys):
    code = dispatch(["wvconv", "--model", tvcar1_file, "--t", "0", "--Ns", "0,4",
                     "--lmax", "1", "--dl", "0.5", "--umax", "4", "--smax", "4"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "PreconditionError"
    assert "N" in err["error"]


def test_stability_lambda_max_route_on_unstable_model(tmp_path, capsys):
    path = write_model(tmp_path, "unstable.json", UNSTABLE)
    code = dispatch(["stability", "--model", path, "--window", "0,1",
                     "--route", "lambda_max"])
    assert code == 0  # an honest negative report is a successful run
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert report["route"] == "lambda_max"
    # largest eigenvalue of A + A' on the window: 2 * 0.5
    assert abs(report["sup_lambda_max"] - 1.0) < 1e-12
    assert report["hint"]
    manifest_line = json.loads(captured.err.strip())
    assert manifest_line["manifest"]["parameters"]["route"] == "lambda_max"


def test_stability_auto_passes_constant_model(car1_file, capsys):
    code = dispatch(["stability", "--model", car1_file, "--window", "0,1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["route"] == "lambda_max"
    assert report["gamma"] == 1.0
    assert abs(report["lam"] - 1.0) < 1e-12
    assert report["window"] == [0.0, 1.0]


def test_stability_auto_reports_the_lambda_max_failure(tmp_path, capsys):
    path = write_model(tmp_path, "unstable.json", UNSTABLE)
    assert dispatch(["stability", "--model", path, "--window", "0,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["route"] == "lambda_max"


def test_stability_empty_window_exits_2(car1_file, capsys):
    code = dispatch(["stability", "--model", car1_file, "--window", "1,0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "PreconditionError"
    assert err["error"] == "stability window must have positive length"


def test_transition_matches_hand_integral(tvcar1_file, capsys):
    code = dispatch(["transition", "--model", tvcar1_file,
                     "--s0", "0", "--s", "1"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    # exp(-int_0^1 (1.5 + 0.5 tanh s) ds) = exp(-1 - (log(1+e^2) - log 2)/2)
    expected = math.exp(-1.0 - 0.5 * (math.log(1.0 + math.e**2) - math.log(2.0)))
    assert abs(obj["matrix"][0][0] - expected) < 1e-9
    assert obj["method"] == "commutative_exp"  # scalar families commute
    assert obj["error_estimate"] >= 0.0
    assert obj["terms_or_steps"] > 0


def test_transition_routes_agree(tvcar1_file, capsys):
    values = {}
    for method in ["pb", "ode", "comm"]:
        assert dispatch(["transition", "--model", tvcar1_file, "--s0", "0",
                         "--s", "1", "--method", method]) == 0
        out = capsys.readouterr().out
        values[method] = json.loads(out)["matrix"][0][0]
    assert abs(values["pb"] - values["comm"]) < 1e-8
    assert abs(values["ode"] - values["comm"]) < 1e-8


def test_transition_series_zero_tol_exits_2(tvcar1_file, capsys):
    code = dispatch(["transition", "--model", tvcar1_file, "--s0", "0", "--s", "1",
                     "--method", "pb", "--tol", "0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "PreconditionError"
    assert "tol" in err["error"]


def test_converge_matches_library_bit_for_bit(tmp_path, tvcar1_file):
    out = tmp_path / "conv.csv"
    code = dispatch(["converge", "--model", tvcar1_file, "--t", "0",
                     "--Ns", "1,2,4,8,16", "--out", str(out)])
    assert code == 0
    text = out.read_text()

    m = model_from_json(json.loads(Path(tvcar1_file).read_text()))
    cert = lambda_max_check(m.A, (-1.0, 0.0))
    assert cert.passed
    report = convergence_diagnostic(m, 0.0, [1, 2, 4, 8, 16],
                                    cert.default_u_max(), du=0.005)
    expected = "".join("%d,%s\n" % (n, "%.17g" % d) for n, d in report.rows)
    assert text == expected

    dists = report.distances
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.15 * dists[0]


def test_kernel_rows_and_limit_values(tmp_path, car1_file):
    out = tmp_path / "kern.csv"
    code = dispatch(["kernel", "--model", car1_file, "--t", "0.3",
                     "--N", "limit", "--umax", "2", "--du", "0.5",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0] == "0,1"
    for line in lines:
        u, v = (float(x) for x in line.split(","))
        assert abs(v - math.exp(-u)) < 1e-12
    manifest = json.loads((tmp_path / "kern.csv.manifest.json").read_text())
    assert manifest["resolved"] == {"route": None}  # the limit kernel needs no transition


def test_manifest_replay_is_byte_identical(tmp_path, tvcar1_file):
    out1 = tmp_path / "k1.csv"
    code = dispatch(["kernel", "--model", tvcar1_file, "--t", "0.5",
                     "--N", "4", "--du", "0.01", "--out", str(out1)])
    assert code == 0
    manifest = json.loads((tmp_path / "k1.csv.manifest.json").read_text())
    argv = list(manifest["argv_resolved"])
    assert argv[0] == "kernel"
    assert "--umax" in argv  # the derived default is recorded explicitly
    assert manifest["resolved"] == {"route": "comm"}  # scalar families commute
    out2 = tmp_path / "k2.csv"
    argv[argv.index("--out") + 1] = str(out2)
    assert dispatch(argv) == 0
    assert out2.read_bytes() == out1.read_bytes()


# One small run of each subcommand; the certificate-derived --umax, --smax
# and --burn-in are left out wherever a subcommand takes them.
REPLAY_RUNS = [
    ["simulate", "--model", "{car1}", "--N", "4", "--t0", "0", "--t1", "0.5", "--dt", "0.25",
     "--paths", "2", "--seed", "3"],
    ["kernel", "--model", "{tvcar1}", "--t", "0.5", "--N", "4", "--du", "0.01"],
    ["converge", "--model", "{tvcar1}", "--t", "0", "--Ns", "1,2", "--du", "0.05"],
    ["spectrum", "--model", "{car1}", "--t", "0.5", "--lmax", "2", "--dl", "0.5"],
    ["wigner", "--model", "{tvcar1}", "--t", "0", "--N", "4", "--lmax", "1", "--dl", "0.5",
     "--du", "0.02", "--ds", "0.2"],
    ["wvconv", "--model", "{tvcar1}", "--t", "0", "--Ns", "2,4", "--lmax", "1", "--dl", "0.5",
     "--du", "0.02", "--ds", "0.2"],
    ["transition", "--model", "{tvcar1}", "--s0", "0", "--s", "1"],
    ["stability", "--model", "{car1}", "--window", "0,1"],
    ["control", "--model", "{diag}", "--t0", "0", "--t1", "1", "--dt", "0.5"],
    ["equiv", "--model1", "{diag}", "--model2", "{carma}", "--t", "0.3"],
]


@pytest.mark.parametrize("argv", REPLAY_RUNS, ids=[run[0] for run in REPLAY_RUNS])
def test_every_subcommand_replays_its_manifest(tmp_path, argv):
    models = {name: write_model(tmp_path, f"{name}.json", obj)
              for name, obj in [("car1", CAR1), ("tvcar1", TVCAR1), ("diag", DIAG),
                                ("carma", CARMA21)]}
    first, second = tmp_path / "first.out", tmp_path / "second.out"
    assert dispatch([a.format(**models) for a in argv] + ["--out", str(first)]) == 0
    manifest = Path(str(first) + ".manifest.json").read_text()
    replay = json.loads(manifest)["argv_resolved"]
    assert replay[0] == argv[0] and replay[-2:] == ["--out", str(first)]
    assert dispatch(replay[:-1] + [str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    again = Path(str(second) + ".manifest.json").read_text()
    assert again.replace(str(second), str(first)) == manifest


def test_simulate_csv_layout(tmp_path, car1_file):
    before = Path(car1_file).read_bytes()
    out = tmp_path / "paths.csv"
    code = dispatch(["simulate", "--model", car1_file, "--N", "4",
                     "--t0", "0", "--t1", "0.5", "--dt", "0.25",
                     "--paths", "3", "--seed", "5", "--burn-in", "2",
                     "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == 9  # 3 paths x 3 grid times
    assert all(len(r) == 4 for r in rows)  # path, t, X, Y
    assert [r[0] for r in rows] == ["0"] * 3 + ["1"] * 3 + ["2"] * 3
    assert [float(r[1]) for r in rows[:3]] == [0.0, 0.25, 0.5]
    for r in rows:
        assert r[2] == r[3]  # B = (1) so the observation equals the state
    assert Path(car1_file).read_bytes() == before  # inputs never mutated


def test_simulate_seed_determinism(tmp_path, car1_file):
    args = ["simulate", "--model", car1_file, "--N", "2", "--t0", "0",
            "--t1", "1", "--dt", "0.5", "--paths", "2", "--burn-in", "3"]
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert dispatch(args + ["--seed", "5", "--out", str(a)]) == 0
    assert dispatch(args + ["--seed", "5", "--out", str(b)]) == 0
    assert dispatch(args + ["--seed", "6", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_burn_in_derived_from_certificate(car1_file, capsys):
    code = dispatch(["simulate", "--model", car1_file, "--N", "4",
                     "--t0", "0", "--t1", "0.5", "--dt", "0.25",
                     "--paths", "1", "--seed", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    manifest_line = json.loads(captured.err.strip())
    assert manifest_line["manifest"]["parameters"]["burn_in"] == 12.0


def test_simulate_manifest_resolves_burn_in_and_substeps(car1_file, capsys):
    argv = ["simulate", "--model", car1_file, "--N", "4", "--t0", "0", "--t1", "0.5",
            "--dt", "0.25", "--paths", "1", "--seed", "1"]
    assert dispatch(argv) == 0
    manifest = json.loads(capsys.readouterr().err.strip())["manifest"]
    # ||A|| h <= 0.1: 120 substeps over the burn-in of 12 decay times, and
    # 10 over each unit of driving time between the three grid times
    cert = {"route": "lambda_max", "gamma": 1.0, "lam": 1.0, "window": [-3.0, 0.5]}
    assert manifest["resolved"] == {"certificate": cert, "burn_in": 12.0,
                                    "burn_in_substeps": 120, "substeps": 140}
    # a replay derives the burn-in from the same certificate again
    assert "--burn-in" not in manifest["argv_resolved"]
    assert dispatch(argv + ["--burn-in", "2"]) == 0
    manifest = json.loads(capsys.readouterr().err.strip())["manifest"]
    assert manifest["resolved"] == {"certificate": None, "burn_in": 2.0,
                                    "burn_in_substeps": 20, "substeps": 40}
    assert manifest["argv_resolved"][-2:] == ["--burn-in", "2"]


def test_simulate_rejects_bad_time_range(car1_file, capsys):
    code = dispatch(["simulate", "--model", car1_file, "--N", "2",
                     "--t0", "1", "--t1", "1", "--dt", "0.5"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "PreconditionError"
    assert "t1" in err["error"]


def test_control_tgrid_json(diag_file, capsys):
    code = dispatch(["control", "--model", diag_file, "--tgrid", "0,0.5"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["t"] == [0.0, 0.5]
    assert obj["ranks"] == [2, 2]
    assert obj["full_rank"] is True
    assert obj["p"] == 2
    assert all(s > 0.0 for s in obj["min_singular"])


def test_control_requires_some_time_spec(diag_file, capsys):
    code = dispatch(["control", "--model", diag_file])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "PreconditionError"
    assert "tgrid" in err["error"]


def test_control_bad_time_range_exits_2(diag_file, capsys):
    # dt = 0 used to divide by zero; t1 < t0 used to report an empty grid
    # as full rank.
    for t0, t1, dt in [("0", "1", "0"), ("1", "0", "0.1")]:
        code = dispatch(["control", "--model", diag_file, "--t0", t0, "--t1", t1,
                         "--dt", dt])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "PreconditionError"


def test_equiv_accepts_model1_alias(tmp_path, diag_file, capsys):
    carma_path = write_model(tmp_path, "carma.json", CARMA21)
    code = dispatch(["equiv", "--model1", diag_file,
                     "--model2", carma_path, "--t", "0.3"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["equivalent"] is True
    assert obj["max_rel_error"] < 1e-8
    assert obj["n_used"] >= 10
    assert obj["n_skipped"] == 0


def test_equiv_dimension_mismatch(tmp_path, diag_file, car1_file, capsys):
    code = dispatch(["equiv", "--model", diag_file, "--model2", car1_file,
                     "--t", "0.0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "dimension" in err["error"] or "p" in err["error"]


def test_wigner_rows_match_constant_density(tmp_path, car1_file):
    out = tmp_path / "wv.csv"
    code = dispatch(["wigner", "--model", car1_file, "--N", "4",
                     "--t", "0", "--lmax", "2", "--dl", "0.5",
                     "--umax", "8", "--smax", "8", "--out", str(out)])
    assert code == 0
    manifest = json.loads((tmp_path / "wv.csv.manifest.json").read_text())
    # s_max=8 clips the lag window: the manifest records the warning
    assert [w["category"] for w in manifest["warnings"]] == ["TruncationWarning"]
    assert "s_max=8" in manifest["warnings"][0]["message"]
    resolved = manifest["resolved"]
    assert resolved == {"umax": 8.0, "smax": 8.0, "certificate": None,
                        "transform": "chirp_z"}
    lines = out.read_text().splitlines()
    assert len(lines) == 9
    mid = lines[4].split(",")
    assert abs(float(mid[0])) < 1e-12
    # constant coefficients: the finite-N spectrum equals the limit density
    assert abs(float(mid[1]) - 1.0 / (2.0 * np.pi)) < 5e-3


def test_wigner_stderr_holds_json_lines_only(tmp_path, car1_file):
    # s_max=8 makes wigner_ville raise a TruncationWarning; it belongs in the
    # manifest, not in raw warning text on stderr
    argv = ["wigner", "--model", car1_file, "--N", "4", "--t", "0", "--lmax", "2",
            "--dl", "0.5", "--umax", "8", "--smax", "8"]
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "tvls.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    manifest = records[-1]["manifest"]
    assert [w["category"] for w in manifest["warnings"]] == ["TruncationWarning"]
    # the list is the same on a repeated in-process run
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            assert dispatch(argv + ["--out", str(tmp_path / "wv.csv")]) == 0
        again = json.loads((tmp_path / "wv.csv.manifest.json").read_text())
        assert again["warnings"] == manifest["warnings"]


def test_failing_run_keeps_its_warnings(monkeypatch, capsys):
    # a command that warns and then fails: the tvls warning goes into the
    # error line, any other warning is still shown
    def warn_then_fail(args):
        warnings.warn("window truncated", TruncationWarning)
        warnings.warn("overflow in exp", RuntimeWarning)
        raise PreconditionError("bad window")

    monkeypatch.setattr(cli_mod, "_cmd_transition", warn_then_fail)
    capsys.readouterr()
    with pytest.warns(RuntimeWarning, match="overflow in exp"):
        code = dispatch(["transition", "--model", "unused.json", "--s0", "0", "--s", "1"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    err = json.loads(lines[-1])
    assert err["type"] == "PreconditionError"
    assert err["warnings"] == [{"category": "TruncationWarning",
                                "message": "window truncated"}]


def _value_by_value_csv(columns):
    """The CSV of ``columns`` formatted one value at a time: ints ``%d``, floats ``%.17g``."""
    def fmt(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else "%.17g" % float(v)

    return "".join(",".join(map(fmt, row)) + "\n" for row in zip(*columns))


def test_write_csv_matches_value_by_value_writer(tmp_path):
    u = np.linspace(-20.0, 20.0, 801)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 1e300, 5e-324, 2.0**-1074, 0.1,
                        np.float32(0.1), 1.0])
    v = np.concatenate([np.exp(-u**2) * np.pi, special])
    w = np.concatenate([u, special[::-1]])
    n = len(w)
    column_sets = [
        # float columns, as the spectrum, wigner and kernel tables pass them
        (w, v), (u.astype(np.float32), v[:len(u)]), (v[::2], w[::2]),
        (w, v, np.column_stack([v, w])[:, 1]), (np.zeros(0), np.zeros(0)),
        # an int column first, as the simulate table (path index) passes it
        (np.repeat(np.arange(3), n // 3), w[:n // 3 * 3], v[:n // 3 * 3]),
        # int tuples, as the converge and wvconv tables pass their N values
        ((1, 2, 4, 2**60 + 1, 2**70), (0.5, -0.0, np.nan, 5e-324, 1e-17)),
        (np.array([-7, 255, 4], dtype=np.int64), np.array([255, 0, 1], dtype=np.uint8),
         np.array([0.25, np.float32(0.1), -np.inf])),
        (w, np.arange(n)),
    ]
    for columns in column_sets:
        out = tmp_path / "columns.csv"
        cli_mod._write_columns(columns, str(out))
        assert out.read_text() == _value_by_value_csv(columns)
    cli_mod._write_columns(((3, 2**70), (0.1, -0.0), (np.nan, -np.inf)), str(out))
    assert out.read_text() == "3,0.10000000000000001,nan\n1180591620717411303424,-0,-inf\n"


def test_wvconv_distances_shrink(tmp_path, tvcar1_file):
    out = tmp_path / "wvconv.csv"
    code = dispatch(["wvconv", "--model", tvcar1_file, "--t", "0",
                     "--Ns", "2,8", "--lmax", "2", "--dl", "0.25",
                     "--umax", "8", "--smax", "8", "--ds", "0.1",
                     "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert [r[0] for r in rows] == ["2", "8"]
    assert float(rows[1][1]) < float(rows[0][1])


def test_missing_model_file_exits_2(tmp_path, capsys):
    code = dispatch(["kernel", "--model", str(tmp_path / "nope.json"),
                     "--t", "0", "--N", "1", "--umax", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "PreconditionError"
    assert "nope.json" in err["error"]


def test_malformed_model_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = dispatch(["kernel", "--model", str(path), "--t", "0",
                     "--N", "1", "--umax", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "invalid JSON" in err["error"]


def _piecewise_a(breakpoints, coefficients):
    return [[{"family": "piecewise_polynomial", "breakpoints": breakpoints,
              "coefficients": coefficients}]]


# Each malformed model file, with the field that its error must name.
MALFORMED_MODELS = {
    "B_not_a_list": ({**CAR1, "B": 5}, "B"),
    "ar_not_a_list": ({**CARMA21, "ar": 1}, "ar"),
    "breakpoints_a_number": ({**CAR1, "A": _piecewise_a(0.5, [[-1.0], [-1.0]])}, "breakpoints"),
    "coefficients_flat": ({**CAR1, "A": _piecewise_a([], [1.0, 2.0])}, "coefficients"),
    "brownian_variance_a_string": ({**CAR1, "levy": {"brownian_variance": "x"}}, "brownian_variance"),
    "brownian_variance_null": ({**CAR1, "levy": {"brownian_variance": None}}, "brownian_variance"),
    "p_a_string": ({**CAR1, "p": "x"}, "p"),
    "q_a_string": ({**CARMA21, "q": "x"}, "q"),
    "p_not_an_integer": ({**CAR1, "p": 1.5}, "p"),
    "params_holds_true": ({**CAR1, "A": [[{"family": "affine", "params": [-1.0, True]}]]}, "params[1]"),
    "params_holds_a_string": ({**CAR1, "A": [[{"family": "constant", "params": ["-6"]}]]}, "params[0]"),
}


@pytest.mark.parametrize("model, field", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
def test_malformed_model_field_exits_2(tmp_path, capsys, model, field):
    code = dispatch(["stability", "--model", write_model(tmp_path, "bad.json", model),
                     "--window", "0,1"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["type"] == "PreconditionError"
    assert field in err["error"]


def test_bad_n_value_names_the_field(car1_file, capsys):
    code = dispatch(["kernel", "--model", car1_file, "--t", "0",
                     "--N", "soon", "--umax", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "PreconditionError"
    assert "N" in err["error"] and "soon" in err["error"]


def test_unknown_flag_is_usage_error(car1_file, capsys):
    code = dispatch(["kernel", "--model", car1_file, "--t", "0",
                     "--N", "1", "--umax", "2", "--bogus", "1"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "usage"


def test_missing_required_flag_is_usage_error(car1_file, capsys):
    code = dispatch(["spectrum", "--model", car1_file])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "usage"


def test_unknown_subcommand_is_usage_error(capsys):
    code = dispatch(["frobnicate"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "usage"


def test_internal_error_exits_1(monkeypatch, car1_file, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "kernel_grid", boom)
    code = dispatch(["kernel", "--model", car1_file, "--t", "0",
                     "--N", "1", "--umax", "2"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "internal"
    assert "boom" in err["error"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["kernel", "--N", "4", "--t={}", "--umax", "2"],
    ["spectrum", "--t={}", "--lmax", "1", "--dl", "0.5", "--umax", "2"],
    ["wigner", "--N", "4", "--t", "0", "--lmax", "1", "--dl", "0.5", "--umax={}",
     "--smax", "4"],
    ["simulate", "--N", "2", "--t0", "0", "--t1", "1", "--dt={}", "--burn-in", "1"],
    ["transition", "--s0", "0", "--s", "1", "--method", "pb", "--tol={}"],
    ["control", "--t={}"],
    ["equiv", "--model2", "{model}", "--t={}"],
])
def test_non_finite_float_flags_are_usage_errors(car1_file, capsys, argv, value):
    # "--flag=value"; a bare "-inf" is read as the value too
    argv = [a.format(value, model=car1_file) for a in argv]
    code = dispatch([argv[0], "--model", car1_file, *argv[1:]])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip())
    assert err["type"] == "usage"
    assert "finite" in err["error"]


@pytest.mark.parametrize("argv", [
    ["control", "--t", "-1e-5"],
    ["stability", "--window", "-1,0"],
    ["control", "--tgrid", "-0.5,0,0.5"],
])
def test_negative_numbers_are_flag_values(diag_file, capsys, argv):
    subcommand, flag, value = argv
    outputs = []
    for form in ([flag, value], [f"{flag}={value}"]):
        assert dispatch([subcommand, "--model", diag_file, *form]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]  # the table on stdout, the manifest on stderr


def test_negative_exponent_time_replays_its_manifest(tmp_path, tvcar1_file):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert dispatch(["kernel", "--model", tvcar1_file, "--t=-1e-5", "--N", "4",
                     "--du", "0.01", "--out", str(first)]) == 0
    replay = json.loads(Path(str(first) + ".manifest.json").read_text())["argv_resolved"]
    assert replay[replay.index("--t") + 1] == "-1.0000000000000001e-05"
    assert dispatch(replay[:-1] + [str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("argv", [
    ["stability", "--window", "0,inf"],
    ["stability", "--window", "nan,1"],
    ["stability", "--window", "0,1,2"],
    ["control", "--tgrid", "nan,1"],
    ["simulate", "--seed", "-1", "--N", "2", "--t0", "0", "--t1", "1", "--dt", "0.5",
     "--burn-in", "1"],
])
def test_bad_number_lists_exit_2(car1_file, capsys, argv):
    assert dispatch([argv[0], "--model", car1_file, *argv[1:]]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "PreconditionError"
    assert argv[1][2:] in err["error"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--N", "4", "--t", "0", "--umax", "2", "--method", "pb"],
    ["converge", "--Ns", "1,2", "--t", "0", "--umax", "2", "--method", "pb"],
    ["wigner", "--N", "4", "--t", "0", "--lmax", "1", "--dl", "0.5", "--method", "pb"],
    ["wvconv", "--Ns", "1,2", "--t", "0", "--lmax", "1", "--dl", "0.5", "--method", "pb"],
    ["spectrum", "--t", "0", "--lmax", "1", "--dl", "0.5", "--method", "auto"],
    ["kernel", "--N", "4", "--t", "0", "--umax", "2", "--method", "auto"],
    ["kernel", "--N", "4", "--t", "0", "--umax", "2", "--method", "ode"],
    ["kernel", "--N", "4", "--t", "0", "--umax", "2", "--method", "comm"],
    ["wigner", "--N", "4", "--t", "0", "--lmax", "1", "--dl", "0.5", "--method", "auto"],
    ["wigner", "--N", "4", "--t", "0", "--lmax", "1", "--dl", "0.5", "--method", "ode"],
    ["stability", "--window", "0,1", "--route", "a"],
    ["stability", "--window", "0,1", "--route", "b"],
])
def test_removed_method_choices_are_usage_errors(car1_file, capsys, argv):
    assert dispatch([argv[0], "--model", car1_file, *argv[1:]]) == 2
    assert json.loads(capsys.readouterr().err.strip())["type"] == "usage"


def test_version_flag(capsys):
    assert dispatch(["--version"]) == 0
    assert "tvls" in capsys.readouterr().out
