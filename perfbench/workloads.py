"""The three benchmark workloads.

Each workload has the same shape:

* ``setup()`` imports tvls, loads the shared model JSON and makes whatever
  the workload reuses across jobs; a fresh interpreter running only this is
  what ``setup_s`` times;
* ``inputs(seed)`` yields the job inputs, drawn from the workload seed so
  that no two jobs share work;
* ``run(state, job)`` is one timed job and calls public tvls functions only;
* ``check(state, job, output)`` compares the output with ``oracle`` after the
  timed loop and returns (ok, digits, message).  ``oracle`` is imported
  only there, so scipy is never loaded during setup or the timed loop.

All three use the drifting, non-commuting, non-normal p = 2 model in
``model.json``: A(t) = [[0, 1], [-6 - t, -5]], B = (5, 2)', C = (0, 1)',
Brownian noise (variance 1) plus compound-Poisson jumps (rate 2, std 0.5).
"""

import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODEL_PATH = HERE / "model.json"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def import_tvls():
    """Import tvls from the checkout's ``src`` directory, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tvls" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tvls sources under {src}")
    sys.path.insert(0, str(src))
    import tvls
    import tvls.cli  # noqa: F401  (the CLI workload and the tracer need it loaded)

    if Path(tvls.__file__).resolve().parent != (src / "tvls").resolve():
        raise ImportError(f"tvls was imported from {tvls.__file__}, not from {src}")
    return tvls


def spread_times(seed):
    """Distinct times in [0, 1): a golden-ratio sequence with a seeded offset.

    Consecutive jobs cover [0, 1) evenly, so a run's median does not hinge
    on which times a seed happens to draw.
    """
    offset = np.random.default_rng(seed).random()
    k = 0
    while True:
        yield (offset + k * _GOLDEN) % 1.0
        k += 1


def _load_model(tvls):
    with open(MODEL_PATH) as fh:
        return tvls.model_from_json(json.load(fh))


class WvDrift:
    """Finite-N time-frequency spectrum with explicit grids.

    Nearly all the time goes to ``spectral.covariance`` (two finite-N
    ``kernel_grid`` RK4 panel loops per lag); the final Fourier transform
    is small.  ``s_max`` is large enough that c(s_max) / c(0) stays below
    the 1e-4 truncation threshold for every t in [0, 1].
    """

    name = "wv_drift"
    N = 16
    U_MAX, DU, S_MAX, DS = 5.0, 0.01, 4.5, 0.3
    LAMBDA = np.linspace(-5.0, 5.0, 201)
    TOL = 1e-3

    def setup(self, work=None):
        tvls = import_tvls()
        config = tvls.GridConfig(u_max=self.U_MAX, du=self.DU, s_max=self.S_MAX, ds=self.DS)
        return SimpleNamespace(tvls=tvls, m=_load_model(tvls), config=config)

    def inputs(self, seed):
        return spread_times(seed)

    def run(self, st, t):
        return st.tvls.wigner_ville(st.m, self.N, t, self.LAMBDA, st.config).values

    def prepare_checks(self, st, jobs):
        from oracle import AffineModel

        st.oracle_model = AffineModel.from_file(MODEL_PATH)

    def check(self, st, t, values):
        import oracle

        n_s = int(round(self.S_MAX / self.DS))
        c_vals = oracle.symmetric_covariance(st.oracle_model, self.N, t, np.arange(n_s + 1) * self.DS)
        ref = oracle.trapezoid_spectrum(c_vals, self.DS, self.LAMBDA)
        if values.shape != ref.shape:
            return False, None, f"t={t}: {values.shape} values, expected {ref.shape}"
        err = oracle.relative_error(values, ref)
        return err <= self.TOL, -math.log10(err), f"t={t}: relative error {err:.3e}"


class SpectrumCli:
    """``tvls spectrum`` run in-process, deriving its own certificate and u_max.

    Every call loads the model JSON, fails ``lambda_max`` and passes
    ``eigen`` on (t - 1, t), derives u_max (9 to 14) from the certificate,
    runs the dense ``transfer_function`` over about 2.8k lags x 4001
    frequencies and writes the CSV and its manifest.
    """

    name = "spectrum_cli"
    LMAX, DL = 20.0, 0.01
    TOL = 1e-3

    def setup(self, work=None):
        tvls = import_tvls()
        _load_model(tvls)  # the jobs load the file themselves; fail early if it is bad
        return SimpleNamespace(tvls=tvls, work=work, count=0)

    def inputs(self, seed):
        return spread_times(seed)

    def run(self, st, t):
        st.count += 1
        out = st.work / f"job{st.count}.csv"
        code = st.tvls.cli.dispatch(["spectrum", "--model", str(MODEL_PATH), "--t", repr(float(t)),
                                     "--lmax", repr(self.LMAX), "--dl", repr(self.DL), "--out", str(out)])
        return code, out

    def prepare_checks(self, st, jobs):
        from oracle import AffineModel

        st.oracle_model = AffineModel.from_file(MODEL_PATH)
        st.output_bytes = []

    def check(self, st, t, output):
        import oracle

        code, out = output
        if code != 0:
            return False, None, f"t={t}: exit code {code}"
        manifest = Path(str(out) + ".manifest.json")
        if not out.is_file() or not manifest.is_file():
            return False, None, f"t={t}: missing CSV or manifest"
        st.output_bytes.append(out.stat().st_size + manifest.stat().st_size)
        try:
            meta = json.loads(manifest.read_text())
            table = np.loadtxt(out, delimiter=",", ndmin=2)
        except ValueError as exc:
            return False, None, f"t={t}: unreadable output ({exc})"
        n = int(round(2.0 * self.LMAX / self.DL)) + 1
        if meta.get("subcommand") != "spectrum" or table.shape != (n, 2):
            return False, None, f"t={t}: short output ({table.shape[0]} rows, expected {n})"
        grid = -self.LMAX + self.DL * np.arange(n)
        if np.abs(table[:, 0] - grid).max() > 1e-9:
            return False, None, f"t={t}: wrong frequency grid"
        ref = oracle.limit_spectral_density(st.oracle_model, t, table[:, 0])
        err = oracle.relative_error(table[:, 1], ref)
        return err <= self.TOL, -math.log10(err), f"t={t}: relative error {err:.3e}"


class SimulateEnsemble:
    """Monte-Carlo ensembles on a certificate made once in setup.

    All the time goes to ``simulate_paths``: one matrix exponential and
    one model evaluation per step, a Philox stream per path, and a state
    update per step.  ``spectral`` and ``kernels`` are bypassed.  The
    certificate covers the burn-in: 12 / lam = 18.8 driving-time units is
    1.18 < 1.25 in rescaled time at N = 16.
    """

    name = "simulate_ensemble"
    N = 16
    T_GRID = np.linspace(0.0, 1.0, 101)
    N_PATHS = 1000
    WINDOW = (-1.25, 1.0)
    LAG = 5  # grid steps between the two times of the lagged check
    N_SE = 4.0

    def setup(self, work=None):
        tvls = import_tvls()
        m = _load_model(tvls)
        cert = tvls.lambda_max_check(m.A, self.WINDOW)
        if not cert.passed:
            cert = tvls.eigen_bound_check(m.A, self.WINDOW)
        if not cert.passed:
            raise RuntimeError(f"no stability certificate on {self.WINDOW}: {cert.reason}")
        return SimpleNamespace(tvls=tvls, m=m, cert=cert)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        used = set()
        while True:
            job_seed = int(rng.integers(0, 2**63 - 1))
            i = int(rng.integers(10, len(self.T_GRID) - self.LAG - 10))
            if job_seed not in used:
                used.add(job_seed)
                yield job_seed, i

    def run(self, st, job):
        ens = st.tvls.simulate_paths(st.m, self.N, self.T_GRID, n_paths=self.N_PATHS,
                                     seed=job[0], certificate=st.cert)
        # Keep only the two checked times, so that the outputs held for the
        # checks do not make peak RSS grow with the number of jobs.
        cols = [job[1], job[1] + self.LAG]
        return dataclasses.replace(ens, t_grid=ens.t_grid[cols], observations=ens.observations[:, cols])

    def prepare_checks(self, st, jobs):
        import oracle

        om = oracle.AffineModel.from_file(MODEL_PATH)
        burn_in = 12.0 / st.cert.lam
        idx = sorted({i for _, i in jobs})
        P = oracle.state_variance(om, self.N, self.N * self.T_GRID[0] - burn_in,
                                  self.N * self.T_GRID[idx])
        st.oracle_model, st.P = om, dict(zip(idx, P))
        st.lagged = {}

    def check(self, st, job, ens):
        import oracle

        _, i = job
        t, u = self.T_GRID[i], self.T_GRID[i + self.LAG]
        if i not in st.lagged:
            st.lagged[i] = oracle.output_covariance(st.oracle_model, self.N, u, t, st.P[i])
        var_ref = float(st.oracle_model.B(t) @ st.P[i] @ st.oracle_model.B(t))
        msgs = []
        ok = True
        for (a, b), ref in (((t, t), var_ref), ((u, t), st.lagged[i])):
            est = st.tvls.empirical_covariance(ens, a, b)
            z = (est.estimate - ref) / est.stderr
            ok &= abs(z) <= self.N_SE
            msgs.append(f"Cov(Y({a:.2f}), Y({b:.2f})) = {est.estimate:.5g}, oracle {ref:.5g}, z = {z:+.2f}")
            if a == b:
                # Digits certified by the check: the variance lies within N_SE standard errors.
                digits = -math.log10(self.N_SE * est.stderr / abs(var_ref))
        return bool(ok), digits, "; ".join(msgs)


WORKLOADS = {w.name: w for w in (WvDrift(), SpectrumCli(), SimulateEnsemble())}
