"""Checks of the benchmark's own code: oracles against closed forms, the
tracer's self-time accounting, and the metric lists in BENCHMARK.json.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402

SIGMA = 1.5  # Brownian variance 1 plus jump rate 2 times jump variance 0.25
LEVY = {"brownian_variance": 1.0, "jump_intensity": 2.0, "jump_std": 0.5}
OU = oracle.AffineModel({"p": 1, "A": [[-1.0]], "B": [1.0], "C": [1.0], "levy": LEVY})
COMPANION = oracle.AffineModel({"p": 2, "A": [[0.0, 1.0], [-6.0, -5.0]], "B": [5.0, 2.0],
                                "C": [0.0, 1.0], "levy": LEVY})


def test_affine_model_reads_benchmark_model():
    m = oracle.AffineModel.from_file(BENCH / "model.json")
    assert m.sigma_l == pytest.approx(SIGMA)
    np.testing.assert_allclose(m.A(0.5), [[0.0, 1.0], [-6.5, -5.0]])
    np.testing.assert_allclose(m.B(0.5), [5.0, 2.0])
    np.testing.assert_allclose(m.C(0.5), [0.0, 1.0])


def test_ou_covariance_closed_form():
    s = np.linspace(0.0, 6.0, 13)
    c = oracle.symmetric_covariance(OU, 4, 0.3, s)
    np.testing.assert_allclose(c, SIGMA * np.exp(-s) / 2.0, rtol=1e-9)


def test_ou_spectral_density_closed_form():
    mu = np.linspace(-20.0, 20.0, 401)
    f = oracle.limit_spectral_density(OU, 0.0, mu)
    np.testing.assert_allclose(f, SIGMA / (2.0 * np.pi * (1.0 + mu**2)), rtol=1e-13)


def test_constant_covariance_matches_lyapunov():
    a, b, c = COMPANION.A(0.0), COMPANION.B(0.0), COMPANION.C(0.0)
    P = solve_continuous_lyapunov(a, -SIGMA * np.outer(c, c))
    s = np.linspace(0.0, 5.0, 11)
    expected = [b @ expm(a * x) @ P @ b for x in s]
    np.testing.assert_allclose(oracle.symmetric_covariance(COMPANION, 16, 0.5, s), expected, rtol=1e-9)
    # The simulation oracle: from P = 0 long before, the lagged covariance is stationary.
    N, t1, t2 = 16, 0.52, 0.5
    P2 = oracle.state_variance(COMPANION, N, N * t2 - 40.0, [N * t2])[0]
    np.testing.assert_allclose(P2, P, rtol=1e-9, atol=1e-13)
    assert oracle.output_covariance(COMPANION, N, t1, t2, P2) == pytest.approx(
        b @ expm(a * N * (t1 - t2)) @ P @ b, rel=1e-9)


def test_trapezoid_spectrum_matches_resolvent():
    mu = np.linspace(-5.0, 5.0, 41)
    ref = oracle.limit_spectral_density(COMPANION, 0.0, mu)
    errors = []
    for ds in (0.01, 0.005):
        s = np.arange(int(round(20.0 / ds)) + 1) * ds
        c = oracle.symmetric_covariance(COMPANION, 16, 0.0, s)
        errors.append(oracle.relative_error(oracle.trapezoid_spectrum(c, ds, mu), ref))
    # Only the O(ds^2) trapezoid error at the kink of c(s) at s = 0 remains.
    assert errors[1] < 2e-5
    assert 3.5 < errors[0] / errors[1] < 4.5


def test_oracle_does_not_import_tvls():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import oracle; "
            "print([m for m in sys.modules if m.split('.')[0] == 'tvls'])")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_tail_has_ten_jobs_beyond():
    value, pct, beyond = run.tail([float(x) for x in range(40, 0, -1)])
    assert (value, pct, beyond) == (30.0, 75, 10)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert {w["name"] for w in spec["workloads"]} == {"wv_drift", "spectrum_cli", "simulate_ensemble"}


TRACER_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from workloads import import_tvls, _load_model
from spans import Tracer
tvls = import_tvls()
m = _load_model(tvls)
tracer = Tracer()
replaced = tracer.install()
sid = tracer.begin("bench.job")
cert = tvls.eigen_bound_check(m.A, (-1.0, 0.0))
tvls.spectral_density(m, 0.0, np.linspace(-2, 2, 5), tvls.GridConfig(certificate=cert, du=0.05))
tvls.spectral.kernel_grid(m, 4, 0.0, 1.0, 0.05)
tracer.end(sid)
durations, table = tracer.summarize("bench.job")
print(json.dumps({"replaced": replaced, "duration": durations[0],
                  "self_sum": sum(row["self_s"] for row in table.values()),
                  "calls": {k: v["calls"] for k, v in table.items()},
                  "points": table["kernels.kernel_grid_finite"]["stats"]["points"],
                  "terms": table["spectral.transfer_function"]["stats"]["terms"]}))
"""


def test_tracer_self_times_add_up():
    out = subprocess.run([sys.executable, "-c", TRACER_SCRIPT, str(BENCH)], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["replaced"] > 50
    assert math.isclose(res["self_sum"], res["duration"], rel_tol=1e-9)
    calls = res["calls"]
    # Reached through tvls.eigen_bound_check, tvls.spectral_density and tvls.spectral.kernel_grid.
    assert calls["stability.eigen_bound_check"] == 1
    assert calls["transition.ode_transition"] == 16
    assert calls["kernels.kernel_grid_limit"] == 1
    assert calls["kernels.kernel_grid_finite"] == 1
    assert res["points"] == 21
    assert res["terms"] % 5 == 0 and res["terms"] > 0
