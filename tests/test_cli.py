import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpelab
from gpelab import cli, experiments
from gpelab import groundstate as gs
from gpelab.cli import ConfigError, load_config, main, run
from gpelab.core import ModelParams, RadialField, RadialGrid, mass
from gpelab.groundstate import load_profile, solve_bound_state


BASE = """
[model]
dim = 3
b = 0.5
p = 2.0
gamma = 1.0
omega = 0.0

[grid]
h = 0.004
rmax = 8.0
"""

# every verify check passes at h = 0.005 (the oscillator ones fail at 0.01)
COARSE = BASE.replace("h = 0.004", "h = 0.005")

SMALL_RUNS = """
[sweep]
c_values = 0.9, 1.1
lambda_values = 1.65
dt = 5e-4
t_end = 0.5
record_every = 40

[lens]
dt = 2e-3
n_check = 2
free_rmax = 20.0
"""

SHORT_EVOLVE = """
[evolve]
dt = 1e-3
t_end = 0.05
record_every = 10
"""


@pytest.fixture()
def base_config(tmp_path):
    path = tmp_path / "base.ini"
    path.write_text(BASE)
    return path


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_defaults_filled(self, base_config):
        cfg = load_config(base_config)
        assert cfg["run"]["seed"] == 12345
        assert cfg["evolve"]["dt"] == 1e-3

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, "[model]\nbexp = 0.5\n")
        with pytest.raises(ConfigError, match="bexp"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = write_config(tmp_path, "[modle]\nb = 0.5\n")
        with pytest.raises(ConfigError, match="modle"):
            load_config(path)
        # no command reads a [stability] section
        path = write_config(tmp_path, "[stability]\nq = 1.0\n")
        with pytest.raises(ConfigError, match=r"\[stability\]"):
            load_config(path)

    def test_bad_value_named(self, tmp_path):
        path = write_config(tmp_path, "[model]\nb = not_a_number\n")
        with pytest.raises(ConfigError, match=r"\[model\] b"):
            load_config(path)

    def test_float_list(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\nc_values = 0.8, 0.9,1.0\n")
        cfg = load_config(path)
        assert cfg["sweep"]["c_values"] == [0.8, 0.9, 1.0]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        path = write_config(tmp_path, f"[run]\nworkers = {workers}\n")
        with pytest.raises(ConfigError, match=r"\[run\] workers"):
            load_config(path)
        assert run("uniqueness", path, tmp_path / "out") == 2

    @pytest.mark.parametrize("key", ["tol", "q", "ball_radius"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
    def test_groundstate_value_not_positive_finite_rejected(self, tmp_path,
                                                            key, bad):
        path = write_config(tmp_path, f"[groundstate]\n{key} = {bad}\n")
        with pytest.raises(ConfigError, match=rf"\[groundstate\] {key}"):
            load_config(path)

    def test_empty_file_resolves_to_defaults(self, tmp_path):
        expected = {
            "model": {"dim": 3, "b": 0.5, "p": 2.0, "gamma": 1.0,
                      "omega": 0.0},
            "grid": {"h": 2e-3, "rmax": 8.0},
            "run": {"seed": 12345, "workers": 1},
            "groundstate": {"method": "shoot", "tol": 1e-8},
            "evolve": {"dt": 1e-3, "t_end": 1.0, "free_equation": False,
                       "blowup_gradient_factor": 1e3, "record_every": 10,
                       "coupling": 1.0, "initial": "oscillator_mode",
                       "amplitude": 1.0, "dilation": 1.0, "width": 1.0},
            "sweep": {"c_values": [0.8, 0.9, 0.95, 1.0, 1.05, 1.1],
                      "lambda_values": [1.65], "dt": 2e-4,
                      "t_end": math.pi, "record_every": 20,
                      "blowup_gradient_factor": 1e3, "criterion_tol": 1e-3},
            "levels": {"n_random": 20},
            "lens": {"dt": 1e-3, "t_max_frac": 0.8, "n_check": 5,
                     "amplitude": 0.4, "width": 1.0, "free_rmax": 40.0},
            "uniqueness": {"r_max": 10.0, "n_samples": 200},
        }
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg == expected
        # json tells 3 from 3.0, so the embedded configs keep their bytes
        assert json.dumps(cfg) == json.dumps(expected)

    @pytest.mark.parametrize("raw, value", [
        ("yes", True), ("On", True), ("1", True), ("true", True),
        ("no", False), ("OFF", False), ("0", False), ("False", False)])
    def test_bool_values(self, tmp_path, raw, value):
        path = write_config(tmp_path, f"[evolve]\nfree_equation = {raw}\n")
        assert load_config(path)["evolve"]["free_equation"] is value

    def test_bad_bool_named(self, tmp_path):
        path = write_config(tmp_path, "[evolve]\nfree_equation = maybe\n")
        with pytest.raises(ConfigError, match=r"\[evolve\] free_equation"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        path = write_config(tmp_path, "[model]\nbexp = 0.5\n")
        assert run("groundstate", path, tmp_path / "out") == 2

    def test_unknown_command_is_2(self, base_config, tmp_path):
        assert run("frobnicate", base_config, tmp_path / "out") == 2

    def test_invalid_model_is_2(self, tmp_path):
        path = write_config(tmp_path, "[model]\ndim = 2\nb = 2.5\np = 1.5\n")
        assert run("uniqueness", path, tmp_path / "out") == 2

    def test_bad_groundstate_tol_is_2_without_marker(self, tmp_path):
        path = write_config(tmp_path, BASE + "[groundstate]\ntol = nan\n")
        out = tmp_path / "out"
        assert run("groundstate", path, out) == 2
        assert not (out / "groundstate.failed").exists()

    # named: the "[section] key" the one-line message must contain, or None
    # where no single key is at fault
    @pytest.mark.parametrize("command, text, named", [
        ("groundstate", BASE.replace("h = 0.004", "h = nan"), "[grid] h"),
        ("groundstate", BASE.replace("h = 0.004", "h = 0.003"), None),
        ("groundstate", BASE + "[groundstate]\nmethod = soliton\nrmax = nan\n",
         "[groundstate] rmax"),
        ("evolve", BASE + "[evolve]\ndt = nan\n", "[evolve] dt"),
        ("evolve", BASE + "[evolve]\nrecord_every = 0\n", None),
        ("evolve", BASE + "[evolve]\ninitial = gaussian\nwidth = 0\n",
         "[evolve] width"),
        ("sweep", BASE + "[sweep]\ndt = -1\n", "[sweep] dt"),
        ("sweep", BASE.replace("p = 2.0", "p = 2.5"), None),
        ("lens", BASE.replace("p = 2.0", "p = 2.5"), None),
        ("lens", BASE + "[lens]\nn_check = 0\n", "[lens] n_check"),
        ("lens", BASE + "[lens]\nwidth = 0\n", "[lens] width"),
        ("uniqueness", BASE + "[uniqueness]\nn_samples = -1\n",
         "[uniqueness] n_samples"),
        ("evolve", BASE + "[evolve]\ndt = 0.1\n", None),
        ("sweep", BASE + "[sweep]\ndt = 0.1\n", None),
        ("uniqueness", BASE.replace("dim = 3", "dim = 2"), None),
        ("levels", BASE.replace("p = 2.0", "p = 1.5"), None),
        ("lens", BASE + "[lens]\ndt = 0.1\n", None),
        ("lens", BASE + "[lens]\ndt = nan\n", "[lens] dt"),
        ("lens", BASE.replace("h = 0.004", "h = 0.02")
         + "[lens]\nfree_rmax = 39.9999\n", None),
        ("lens", BASE + "[lens]\nfree_rmax = -1\n", "[lens] free_rmax"),
        ("lens", BASE + "[lens]\nt_max_frac = 0\n", None),
        ("lens", BASE + "[lens]\nt_max_frac = 1.2\n", None),
        ("evolve", BASE + "[evolve]\ninitial = soliton_scaled\ndilation = 0\n",
         "[evolve] dilation"),
        ("evolve",
         BASE + "[evolve]\ninitial = soliton_scaled\ndilation = -1\n",
         "[evolve] dilation"),
        ("sweep", BASE + "[sweep]\nlambda_values = 0\n",
         "[sweep] lambda_values"),
        ("sweep", BASE + "[sweep]\nc_values = 1, 0\n", "[sweep] c_values"),
        ("sweep", BASE + "[sweep]\nc_values =\n", "[sweep] c_values"),
        ("sweep", BASE + "[sweep]\nlambda_values =\n",
         "[sweep] lambda_values"),
        ("groundstate", BASE.replace("rmax = 8.0", "rmax = 0"), "[grid] rmax"),
        ("evolve", BASE + "[evolve]\nt_end = -1\n", "[evolve] t_end"),
        ("sweep", BASE + "[sweep]\nt_end = inf\n", "[sweep] t_end"),
        ("evolve", BASE + "[evolve]\namplitude = nan\n", "[evolve] amplitude"),
        ("evolve", BASE + "[evolve]\ninitial = gaussian\namplitude = -inf\n",
         "[evolve] amplitude"),
        ("lens", BASE + "[lens]\namplitude = nan\n", "[lens] amplitude"),
        ("sweep", BASE + "[sweep]\ncriterion_tol = nan\n",
         "[sweep] criterion_tol"),
        ("uniqueness", BASE + "[uniqueness]\nr_max = -1\n",
         "[uniqueness] r_max"),
        ("uniqueness", BASE + "[uniqueness]\nr_max = 0.01\n",
         "[uniqueness] r_max"),
        ("uniqueness", BASE + "[uniqueness]\nr_max = 0.05\n",
         "[uniqueness] r_max"),
        ("levels", BASE + "[levels]\nn_random = -3\n", "[levels] n_random"),
        ("groundstate", BASE + "[groundstate]\nmethod = flow\n",
         "[groundstate] q"),
        ("groundstate", BASE + "[groundstate]\nmethod = newton\n",
         "[groundstate] method"),
        ("evolve", BASE + "[evolve]\ninitial = plane_wave\n",
         "[evolve] initial"),
        ("groundstate", BASE.replace("p = 2.0", "p = 2.5")
         + "[groundstate]\nmethod = soliton\n", None),
        # h = 8/801 divides [grid] rmax = 8 but not the soliton mesh's
        # default [groundstate] rmax = 20
        ("sweep", BASE.replace("h = 0.004", f"h = {8 / 801!r}"),
         "[groundstate] rmax"),
        ("verify", BASE.replace("h = 0.004", f"h = {8 / 801!r}"),
         "[groundstate] rmax"),
        ("evolve", BASE.replace("h = 0.004", f"h = {8 / 801!r}")
         + "[evolve]\ninitial = soliton_scaled\n", "[groundstate] rmax"),
        # verify's own dt = 1e-3 exceeds (pi / (2 gamma)) / 200 at gamma = 8
        ("verify", BASE.replace("gamma = 1.0", "gamma = 8"), None),
    ], ids=["grid_h_nan", "grid_h_not_dividing", "soliton_rmax_nan",
            "evolve_dt_nan", "evolve_record_every_0", "evolve_width_0",
            "sweep_dt_negative", "sweep_supercritical", "lens_supercritical",
            "lens_n_check_0", "lens_width_0", "uniqueness_n_samples_negative",
            "evolve_dt_above_trap_period", "sweep_dt_above_trap_period",
            "uniqueness_dim_2", "levels_subcritical",
            "lens_dt_above_trap_period", "lens_dt_nan",
            "lens_free_rmax_not_dividing", "lens_free_rmax_negative",
            "lens_t_max_frac_0", "lens_t_max_frac_past_caustic",
            "evolve_dilation_0", "evolve_dilation_negative",
            "sweep_lambda_0", "sweep_c_0", "sweep_c_values_empty",
            "sweep_lambda_values_empty", "grid_rmax_0",
            "evolve_t_end_negative", "sweep_t_end_inf",
            "evolve_amplitude_nan", "evolve_amplitude_inf",
            "lens_amplitude_nan", "sweep_criterion_tol_nan",
            "uniqueness_r_max_negative",
            "uniqueness_r_max_below_first_sample",
            "uniqueness_r_max_at_first_sample", "levels_n_random_negative",
            "flow_without_q", "groundstate_method_unknown",
            "evolve_initial_unknown", "soliton_supercritical",
            "sweep_h_not_dividing_soliton_mesh",
            "verify_h_not_dividing_soliton_mesh",
            "evolve_soliton_h_not_dividing_soliton_mesh",
            "verify_trap_period_unresolved"])
    def test_bad_value_is_2_without_marker(self, tmp_path, capsys, command,
                                           text, named):
        out = tmp_path / "out"
        assert run(command, write_config(tmp_path, text), out) == 2
        assert not (out / f"{command}.failed").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert named is None or named in err[0]

    @pytest.mark.parametrize("text", [
        BASE + "[model]\np = 2.0\n",                  # duplicate section
        "[model]\np = 2.0\np = 2.5\n",                 # duplicate key
        "p = 2.0\n",                                   # no section header
    ], ids=["duplicate_section", "duplicate_key", "no_section_header"])
    def test_malformed_ini_is_2(self, tmp_path, capsys, text):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=str(path)):
            load_config(path)
        out = tmp_path / "out"
        assert run("uniqueness", path, out) == 2
        assert not (out / "uniqueness.failed").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    def test_solver_error_is_1_with_marker(self, tmp_path):
        # constraint set empty: q > ball_radius / (gamma N)
        path = write_config(tmp_path, BASE + """
[groundstate]
method = flow
q = 1.0
ball_radius = 1.0
""")
        out = tmp_path / "out"
        assert run("groundstate", path, out) == 1
        marker = out / "groundstate.failed"
        assert marker.exists()
        assert "constraint set empty" in marker.read_text()

    def test_success_is_0(self, base_config, tmp_path):
        assert run("uniqueness", base_config, tmp_path / "out") == 0


class TestCommands:
    def test_groundstate_shoot_outputs(self, base_config, tmp_path):
        out = tmp_path / "out"
        assert run("groundstate", base_config, out) == 0
        payload = json.loads((out / "groundstate.json").read_text())
        assert payload["residual_sup"] < 1e-8
        assert payload["converged"] is True
        assert payload["config"]["model.b"] == 0.5
        field, header = load_profile(out / "profile.txt")
        assert header["dim"] == 3
        assert np.all(field.values.real > 0)

    def test_groundstate_flow(self, tmp_path):
        path = write_config(tmp_path, BASE + """
[groundstate]
method = flow
q = 1.0
""")
        out = tmp_path / "out"
        assert run("groundstate", path, out) == 0
        payload = json.loads((out / "groundstate.json").read_text())
        assert payload["omega"] > -3.0
        assert abs(payload["mass"] - 1.0) < 1e-9
        assert payload["converged"] is True
        assert payload["status"] == "converged"
        # the functionals are those of the equation solved, at its omega
        assert payload["functionals"]["nehari"] == payload["pohozaev_1"]
        assert payload["functionals"]["energy"] == payload["energy"]
        field, header = load_profile(out / "profile.txt")
        assert header["stationary_omega"] == payload["omega"]
        assert np.all(field.values.real > 0)

    def test_groundstate_flow_above_critical_mass_fails(self, tmp_path):
        # p = p_c and q = 70 above the soliton mass 59.95: no minimizer, so
        # no profile is written
        path = write_config(tmp_path, BASE.replace("h = 0.004", "h = 0.01")
                            + """
[groundstate]
method = flow
q = 70.0
""")
        out = tmp_path / "out"
        assert run("groundstate", path, out) == 1
        marker = (out / "groundstate.failed").read_text()
        assert marker.startswith("EnergyUnboundedError: ")
        assert not (out / "profile.txt").exists()
        assert not (out / "groundstate.json").exists()

    def test_evolve_outputs(self, tmp_path):
        path = write_config(tmp_path, BASE + """
[evolve]
dt = 1e-3
t_end = 0.2
record_every = 50
initial = oscillator_mode
coupling = 0.0
""")
        out = tmp_path / "out"
        assert run("evolve", path, out) == 0
        lines = (out / "diagnostics.csv").read_text().strip().split("\n")
        header_lines = [ln for ln in lines if ln.startswith("#")]
        assert any("model.b = 0.5" in ln for ln in header_lines)
        cols = [ln for ln in lines if not ln.startswith("#")][0]
        assert cols == "t,mass,energy,grad_sq,f,f_prime"

    def test_uniqueness_output(self, base_config, tmp_path):
        out = tmp_path / "out"
        assert run("uniqueness", base_config, out) == 0
        payload = json.loads((out / "uniqueness.json").read_text())
        assert payload["A"] < 0
        assert payload["C"] >= 0
        assert payload["conditions_hold"] is True
        assert payload["k"] == pytest.approx(
            np.sqrt(-payload["C"] / payload["A"]))

    def test_sweep_small(self, tmp_path):
        path = write_config(tmp_path, BASE + """
[sweep]
c_values = 1.1
lambda_values = 1.0
dt = 5e-4
t_end = 1.0
record_every = 40
""")
        out = tmp_path / "out"
        assert run("sweep", path, out) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["rows"][0]["outcome"] == "blowup"
        csv_lines = (out / "sweep.csv").read_text().strip().split("\n")
        body = [ln for ln in csv_lines if not ln.startswith("#")]
        assert body[0] == "c,lambda,outcome,t_blow,t_pred,max_grad_ratio"

    def test_lens_report(self, tmp_path):
        # coarse meshes: the free mesh of radius 20 holds the dispersing bump
        path = write_config(tmp_path, BASE.replace("h = 0.004", "h = 0.01")
                            + """
[lens]
dt = 2e-3
n_check = 3
free_rmax = 20.0
""")
        out = tmp_path / "out"
        assert run("lens", path, out) == 0
        payload = json.loads((out / "lens_report.json").read_text())
        assert len(payload["check_times"]) == 3
        assert payload["check_times"][-1] == pytest.approx(0.2 * np.pi)
        assert payload["max_l2_mismatch"] == max(payload["l2_mismatch"])
        assert payload["max_l2_mismatch"] < 1e-3
        assert payload["roundtrip_sup_error"] < 1e-4

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, BASE + """
[levels]
n_random = 2
""")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("levels", path, out_a) == 0
        assert run("levels", path, out_b) == 0
        assert (out_a / "levels.json").read_bytes() == \
            (out_b / "levels.json").read_bytes()
        assert (out_a / "levels.csv").read_bytes() == \
            (out_b / "levels.csv").read_bytes()
        body = [ln for ln in (out_a / "levels.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert body[0] == "d_omega,d_n_upper,d,trial_count,d_n_upper_lam"
        payload = json.loads((out_a / "levels.json").read_text())
        assert {"d_omega", "d_n_upper", "d", "trial_count",
                "d_n_upper_lam"} <= set(payload)

    def test_files_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits its dot products across threads only above 10000
        # entries, which moves their last bits; core.dot sums such products
        # in fixed blocks of 10000, so one and two threads must write the
        # same bytes on the default mesh (4000 nodes) and at 16000 nodes
        path = write_config(tmp_path, "[levels]\nn_random = 4\n")
        fine = write_config(tmp_path, "[grid]\nh = 5e-4\n", "fine.ini")
        src = str(Path(gpelab.__file__).resolve().parents[1])
        files = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            out = tmp_path / f"threads{threads}"
            runs = (("groundstate", path, out), ("levels", path, out),
                    ("groundstate", fine, out / "fine"))
            for command, config, where in runs:
                proc = subprocess.run(
                    [sys.executable, "-m", "gpelab.cli", command, str(config),
                     "--out", str(where)],
                    env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            files.append({f.relative_to(out).as_posix(): f.read_bytes()
                          for f in out.rglob("*") if f.is_file()})
        assert set(files[0]) == {"groundstate.json", "profile.txt",
                                 "levels.json", "levels.csv",
                                 "fine/groundstate.json", "fine/profile.txt"}
        assert files[0] == files[1]

    def test_main_entry(self, base_config, tmp_path, capsys):
        code = main(["uniqueness", str(base_config),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_verify_passes_on_defaults(self, tmp_path, capsys):
        # default model/grid: the whole invariant table must pass
        path = write_config(tmp_path, BASE.replace("h = 0.004", "h = 0.002"))
        out = tmp_path / "out"
        assert run("verify", path, out) == 0
        captured = capsys.readouterr().out
        assert "FAIL" not in captured
        payload = json.loads((out / "verify_report.json").read_text())
        assert payload["failed"] == 0

    @staticmethod
    def verify_rows(tmp_path, text):
        out = tmp_path / "out"
        code = run("verify", write_config(tmp_path, text), out)
        rows = json.loads((out / "verify_report.json").read_text())["checks"]
        return code, [row["check"] for row in rows]

    def test_verify_subcritical_skips_cross_points(self, tmp_path, capsys):
        # the cross points need p >= p_c = 2; d_omega holds below it too
        code, checks = self.verify_rows(
            tmp_path, COARSE.replace("p = 2.0", "p = 1.5"))
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out
        assert "levels: least action matches minimizer" in checks
        assert not any(name.startswith("levels: cross points")
                       for name in checks)

    def test_verify_dim_2_skips_uniqueness(self, tmp_path):
        # the uniqueness criterion claims nothing below N = 3; the exit
        # status is not pinned here (two N = 2 tolerance rows fail)
        _, checks = self.verify_rows(tmp_path,
                                     COARSE.replace("dim = 3", "dim = 2"))
        assert "bound state: nehari zero" in checks
        assert not any(name.startswith("uniqueness") for name in checks)

    @pytest.mark.parametrize("command, extra", [
        ("groundstate", ""),
        ("groundstate", "[groundstate]\nmethod = soliton\nrmax = 15.0\n"),
        ("groundstate", "[groundstate]\nmethod = flow\nq = 1.0\n"),
        ("evolve", SHORT_EVOLVE + "initial = bound_state\n"),
        ("sweep", ""),
        ("lens", ""),
        ("uniqueness", ""),
        ("verify", ""),
    ], ids=["shoot", "soliton", "flow", "evolve", "sweep", "lens",
            "uniqueness", "verify"])
    def test_every_command_byte_identical(self, tmp_path, command, extra):
        path = write_config(tmp_path, COARSE + SMALL_RUNS + extra)
        assert run(command, path, tmp_path / "a") == 0
        assert run(command, path, tmp_path / "b") == 0
        names = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_groundstate_soliton_rmax(self, tmp_path):
        path = write_config(tmp_path, COARSE + """
[groundstate]
method = soliton
rmax = 15.0
""")
        out = tmp_path / "out"
        assert run("groundstate", path, out) == 0
        payload = json.loads((out / "groundstate.json").read_text())
        assert payload["omega"] == 1.0
        assert payload["residual_sup"] < 1e-8
        assert payload["config"]["groundstate.rmax"] == 15.0
        # the functionals are those of the free equation the soliton
        # solves, not of the trap in [model] gamma
        assert payload["functionals"]["nehari"] == payload["pohozaev_1"]
        assert payload["functionals"]["energy"] == payload["energy"]
        field, header = load_profile(out / "profile.txt")
        assert header["grid_rmax"] == pytest.approx(15.0)
        assert field.grid.n == round(15.0 / 0.005)
        assert np.all(np.diff(field.values.real) < 0)


def _diagnostics(out):
    """Columns of diagnostics.csv by name."""
    lines = [ln for ln in (out / "diagnostics.csv").read_text().splitlines()
             if not ln.startswith("#")]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return dict(zip(lines[0].split(","), rows.T))


class TestEvolveInitialStates:
    grid = RadialGrid(h=0.005, rmax=8.0, dim=3)
    params = ModelParams(dim=3, b=0.5, p=2.0, gamma=1.0, omega=0.0)

    def run_evolve(self, tmp_path, lines, name="out"):
        path = write_config(tmp_path, COARSE + SHORT_EVOLVE + lines,
                            name=f"{name}.ini")
        assert run("evolve", path, tmp_path / name) == 0
        return _diagnostics(tmp_path / name)

    def test_gaussian(self, tmp_path):
        diag = self.run_evolve(tmp_path, "initial = gaussian\n"
                               "amplitude = 0.8\nwidth = 1.3\n")
        r = self.grid.r
        u0 = RadialField(self.grid, 0.8 * np.exp(-r ** 2 / (2.0 * 1.3 ** 2)))
        assert diag["mass"][0] == pytest.approx(mass(u0), rel=1e-13)

    def test_bound_state(self, tmp_path):
        diag = self.run_evolve(tmp_path, "initial = bound_state\n"
                               "amplitude = 1.05\n")
        phi = solve_bound_state(self.params, self.grid)
        assert diag["mass"][0] == pytest.approx(1.05 ** 2 * phi.mass,
                                                rel=1e-13)

    def test_soliton_scaled_keeps_scaled_mass(self, tmp_path):
        # mass(c lam^(N/2) Q(lam x)) = c^2 mass(Q), up to interpolation
        diag = self.run_evolve(tmp_path, "initial = soliton_scaled\n"
                               "amplitude = 0.95\ndilation = 1.65\n")
        q_mass = 59.95388554159379      # frozen soliton mass of the suite
        assert diag["mass"][0] == pytest.approx(0.95 ** 2 * q_mass, rel=1e-5)

    def test_soliton_scaled_is_the_sweep_row_state(self, tmp_path,
                                                   monkeypatch):
        seen = {}

        def capture(name):
            def fake_evolve(u0, params, cfg):
                seen[name] = u0.values
                raise RuntimeError("captured")
            return fake_evolve

        monkeypatch.setattr(cli, "run_evolution", capture("evolve"))
        monkeypatch.setattr(experiments, "evolve", capture("sweep"))
        path = write_config(tmp_path, COARSE + """
[evolve]
initial = soliton_scaled
amplitude = 0.95
dilation = 1.65

[sweep]
c_values = 0.95
lambda_values = 1.65
""")
        run("evolve", path, tmp_path / "evolve")
        run("sweep", path, tmp_path / "sweep")
        assert seen["evolve"].tobytes() == seen["sweep"].tobytes()

    def test_soliton_scaled_reads_groundstate_rmax(self, tmp_path,
                                                  monkeypatch):
        # h = 8/801 divides [groundstate] rmax = 8, so the soliton is solved
        # on (0, 8], where the default rmax = 20 is a config error
        meshes, solve = [], gs.solve_soliton

        def solve_soliton(params, grid, **kwargs):
            meshes.append((grid.h, grid.rmax))
            return solve(params, grid, **kwargs)

        monkeypatch.setattr(gs, "solve_soliton", solve_soliton)
        path = write_config(tmp_path, BASE.replace("h = 0.004",
                                                   f"h = {8 / 801!r}")
                            + SHORT_EVOLVE + "initial = soliton_scaled\n"
                            "\n[groundstate]\nrmax = 8.0\n")
        assert run("evolve", path, tmp_path / "out") == 0
        assert meshes == [(8 / 801, 8.0)]
        q_mass = 59.95388554159379      # frozen soliton mass of the suite
        diag = _diagnostics(tmp_path / "out")
        assert diag["mass"][0] == pytest.approx(q_mass, rel=1e-3)

    def test_free_equation_flag(self, tmp_path):
        gauss = "initial = gaussian\n"
        trapped = self.run_evolve(tmp_path, gauss, name="trapped")
        free = self.run_evolve(tmp_path, gauss + "free_equation = yes\n",
                               name="free")
        payload = json.loads((tmp_path / "free" / "evolve.json").read_text())
        assert payload["config"]["evolve.free_equation"] is True
        # the free energy drops the trap term gamma^2 ||x u||^2 / 2
        assert free["energy"][0] == pytest.approx(
            trapped["energy"][0] - 0.5 * free["f"][0], rel=1e-12)
