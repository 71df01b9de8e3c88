"""Config parsing, CLI contract, CSV artifacts and determinism."""

import itertools
import os
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from lmm_adjoint import cli, experiments
from lmm_adjoint import relaxation as rx
from lmm_adjoint.experiments import run_relax_adjoint
from lmm_adjoint.config import (CONFIG_REFERENCE, ConfigError,
                                config_reference_text, parse_config,
                                serialize_config, settings)


class TestConfigFormat:
    def test_round_trip_identity(self):
        text = ("[ode-converge]\n"
                "study = const-fy\n"
                "schemes = AM4, AB3\n"
                "n_list = 40, 80\n")
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again.kind == cfg.kind and again.values == cfg.values
        # serialization is a fixed point
        assert serialize_config(again) == serialize_config(cfg)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nstudy = const-fy  # trailing\n")
        assert cfg.values["study"] == "const-fy"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a = 1\na = 2\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[no-such-experiment]\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")

    @pytest.mark.parametrize("kind, text, key", [
        ("relax-forward", "flux = linear\nnx = x\n", "nx"),
        ("relax-adjoint", "nx_list = 1,2,oops\n", "nx_list"),
        ("relax-adjoint", "nx_list = 40, 40, 80\n", "nx_list"),
        ("relax-forward", "flux = cubic\n", "flux"),
        ("relax-forward", "nx = 40\n", "flux"),
    ], ids=["bad-int", "bad-list-item", "not-increasing", "bad-choice",
            "missing-required"])
    def test_settings_names_key(self, kind, text, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            settings(parse_config(text), kind)

    def test_reference_covers_all_kinds(self):
        text = config_reference_text()
        for kind, keys in CONFIG_REFERENCE.items():
            assert kind in text
            for name, key in keys.items():
                assert name in text and key.doc in text
                if key.default is not None:
                    assert f"(default {key.default})" in text

    def test_flux_choices_are_the_flux_table(self):
        key = CONFIG_REFERENCE["relax-forward"]["flux"]
        assert key.doc == " | ".join(rx.JIN_XIN_FLUXES)
        for name in rx.JIN_XIN_FLUXES:
            assert key.parse(name) == name
        with pytest.raises(ValueError) as err:
            key.parse("cubic")
        assert str(err.value) == f"'cubic' not in {list(rx.JIN_XIN_FLUXES)}"


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def _run_quietly(self, tmp_path, kind, body):
        """Run ``kind`` on ``body`` with every warning an error; the exit."""
        conf = self._write(tmp_path, "c.conf", f"[{kind}]\n{body}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cli.main([kind, "--config", conf, "--out", str(tmp_path)])

    def test_config_reference_exit_zero(self, capsys):
        assert cli.main(["config-reference"]) == 0
        assert "ode-converge" in capsys.readouterr().out

    def test_small_table_run(self, tmp_path, capsys):
        conf = self._write(tmp_path, "c.conf",
                           "[ode-converge]\nstudy = const-fy\n"
                           "schemes = ImplicitEuler\nn_list = 10,20\n")
        rc = cli.main(["ode-converge", "--config", conf,
                       "--out", str(tmp_path)])
        assert rc == 0
        out = tmp_path / "table_const-fy_ImplicitEuler.csv"
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("N,err_dto,rate_dto,err_otd,rate_otd")

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["ode-converge", "--config",
                         str(tmp_path / "nope.conf")]) == 2

    def test_unreadable_config_file(self, tmp_path, capsys):
        path = tmp_path / "c.conf"
        path.write_bytes(b"[ode-converge]\nstudy = \xff\n")
        assert cli.main(["ode-converge", "--config", str(path)]) == 2
        assert "can't decode" in capsys.readouterr().err

    def test_plain_value_error_is_a_bug(self, tmp_path, monkeypatch):
        # only a ConfigError exits 2; any other ValueError propagates
        def broken(cfg, out_dir):
            raise ValueError("not a config error")

        monkeypatch.setattr(cli, "run_relax_forward", broken)
        conf = self._write(tmp_path, "c.conf",
                           "[relax-forward]\nflux = linear\n")
        with pytest.raises(ValueError, match="not a config error"):
            cli.main(["relax-forward", "--config", conf])

    def test_kind_mismatch(self, tmp_path):
        conf = self._write(tmp_path, "c.conf", "[relax-forward]\nflux = linear\n")
        assert cli.main(["ode-converge", "--config", conf]) == 2

    def test_unknown_key_config_error(self, tmp_path, capsys):
        # an undocumented key is rejected before any run, naming the key
        conf = self._write(tmp_path, "c.conf",
                           "[ode-converge]\nstudy = const-fy\nschemes = AM4\n"
                           "n_list = 20,40\nam_denominator = 270\nrate = 2\n")
        assert cli.main(["ode-converge", "--config", conf,
                         "--out", str(tmp_path)]) == 2
        assert "['am_denominator', 'rate']" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_split_keys_accepted(self, tmp_path):
        # the domain ends are keys of their own
        conf = self._write(tmp_path, "c.conf",
                           "[relax-adjoint]\nnx_list = 20,40\neps_list = 1e-4\n"
                           "x_left = 0\nx_right = 6\n")
        assert cli.main(["relax-adjoint", "--config", conf,
                         "--out", str(tmp_path)]) == 0

    def test_invalid_scheme_config_error(self, tmp_path):
        conf = self._write(tmp_path, "c.conf",
                           "[ode-converge]\nstudy = const-fy\n"
                           "schemes = BDF9\nn_list = 10,20\n")
        assert cli.main(["ode-converge", "--config", conf,
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("study, schemes, key", [
        ("const-fy", "BDF2,BDF9", "schemes"),
        ("full-system", "BDF2,AB2", "AB2"),
    ], ids=["unknown-scheme", "full-system-adams"])
    def test_late_bad_scheme_writes_no_csv(self, tmp_path, capsys, study,
                                           schemes, key):
        # every scheme is checked before the first table is written
        conf = self._write(tmp_path, "c.conf",
                           f"[ode-converge]\nstudy = {study}\n"
                           f"schemes = {schemes}\nn_list = 10,20\n")
        assert cli.main(["ode-converge", "--config", conf,
                         "--out", str(tmp_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.conf"]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["T", "a", "dt"])
    def test_non_finite_value_config_error(self, tmp_path, capsys, key,
                                           value):
        # a time, a speed and a step key: rejected before any run
        conf = self._write(tmp_path, "c.conf",
                           "[relax-forward]\nflux = linear\nnx = 40\n"
                           f"{key} = {value}\n")
        assert cli.main(["relax-forward", "--config", conf,
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err and "not a finite number" in err
        assert os.listdir(tmp_path) == ["c.conf"]

    def test_adams_rejected_for_full_system(self, tmp_path):
        conf = self._write(tmp_path, "c.conf",
                           "[ode-converge]\nstudy = full-system\n"
                           "schemes = AM4\nn_list = 10,20\n")
        assert cli.main(["ode-converge", "--config", conf,
                         "--out", str(tmp_path)]) == 2

    def test_full_system_rejects_horizon_at_blow_up(self, tmp_path, capsys):
        # the exact state 1/(1-t) is infinite at t = 1
        for T in ("1.0", "1.5"):
            conf = self._write(tmp_path, "c.conf",
                               "[ode-converge]\nstudy = full-system\n"
                               f"schemes = BDF2\nn_list = 10,20\nT = {T}\n")
            assert cli.main(["ode-converge", "--config", conf,
                             "--out", str(tmp_path)]) == 2
            assert "needs T < 1" in capsys.readouterr().err
            assert os.listdir(tmp_path) == ["c.conf"]

    def test_solver_failure_exit_code(self, tmp_path):
        # 10 steps to T = 0.9 on the blow-up problem: the implicit equation
        # loses its real root and the Newton iteration cannot converge
        conf = self._write(tmp_path, "c.conf",
                           "[ode-converge]\nstudy = full-system\n"
                           "schemes = BDF2\nn_list = 10,20\n")
        assert cli.main(["ode-converge", "--config", conf,
                         "--out", str(tmp_path)]) == 3

    def test_cfl_violation_config_error(self, tmp_path):
        conf = self._write(tmp_path, "c.conf",
                           "[relax-forward]\nflux = linear\nnx = 40\n"
                           "dt = 1.0\nT = 1.0\n")
        assert cli.main(["relax-forward", "--config", conf,
                         "--out", str(tmp_path)]) == 2

    def test_subcharacteristic_config_error(self, tmp_path):
        conf = self._write(tmp_path, "c.conf",
                           "[relax-forward]\nflux = burgers\nnx = 40\n"
                           "a = 0.5\nT = 0.1\n")
        assert cli.main(["relax-forward", "--config", conf,
                         "--out", str(tmp_path)]) == 2

    def test_am270_variant_runs_but_inconsistent(self, tmp_path, capsys):
        # the printed-table coefficient variant is exposed for fidelity runs;
        # it is not a consistent integrator and the errors stay O(1)
        conf = self._write(tmp_path, "c.conf",
                           "[ode-converge]\nstudy = const-fy\n"
                           "schemes = AM4-270\nn_list = 20,40\n")
        rc = cli.main(["ode-converge", "--config", conf, "--out",
                       str(tmp_path), "--route", "otd"])
        assert rc == 0
        rows = (tmp_path / "table_const-fy_AM4-270.csv").read_text().splitlines()
        err = float(rows[1].split(",")[1])
        assert err > 0.05

    def test_csv_determinism(self, tmp_path):
        # byte-identical artifacts across repeated runs of the same config
        conf = self._write(tmp_path, "c.conf",
                           "[ode-converge]\nstudy = quadratic-fy\n"
                           "schemes = AM4,BDF3\nn_list = 20,40,80\n")
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            out.mkdir()
            assert cli.main(["ode-converge", "--config", conf,
                             "--out", str(out)]) == 0
            blobs.append(b"".join(
                (out / f).read_bytes()
                for f in sorted(os.listdir(out))))
        assert blobs[0] == blobs[1]

    def test_relax_forward_snapshots(self, tmp_path):
        conf = self._write(tmp_path, "c.conf",
                           "[relax-forward]\nflux = linear\nnx = 80\n"
                           "T = 0.25\noutput_times = 0, 0.25\n")
        assert cli.main(["relax-forward", "--config", conf,
                         "--out", str(tmp_path)]) == 0
        snaps = [f for f in os.listdir(tmp_path) if f.startswith("forward_t")]
        assert len(snaps) == 2
        mass = (tmp_path / "forward_mass.csv").read_text().splitlines()
        assert mass[0] == "step,t,mass"

    def test_control_jinxin_artifacts(self, tmp_path):
        conf = self._write(tmp_path, "c.conf",
                           "[control-jinxin]\nnx = 40\niterations = 3\n"
                           "save_every = 2\n")
        assert cli.main(["control-jinxin", "--config", conf,
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "control-jinxin_iterations.csv").exists()
        assert (tmp_path / "control-jinxin_control_final.csv").exists()
        assert (tmp_path / "control-jinxin_control_k2.csv").exists()
        log = (tmp_path / "control-jinxin_iterations.csv").read_text()
        assert log.splitlines()[0] == "k,J,sigma,grad_inf_norm"

    def test_relax_adjoint_small(self, tmp_path):
        conf = self._write(tmp_path, "c.conf",
                           "[relax-adjoint]\nnx_list = 20,40\n"
                           "eps_list = 1.0, 1e-4\n")
        assert cli.main(["relax-adjoint", "--config", conf,
                         "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "adjoint_eps_study.csv").read_text().splitlines()
        assert rows[0] == "eps,dt_min,l2_err_p0,mean_rate,reference"
        assert "self-reference" in rows[1] and "transport-oracle" in rows[2]

    def test_relax_adjoint_one_grid_leaves_rate_blank(self, tmp_path):
        # one grid gives no rate: the mean_rate cells are blank, and no
        # mean of an empty list warns on the way
        assert self._run_quietly(tmp_path, "relax-adjoint",
                                 "nx_list = 40\n") == 0
        rows = (tmp_path / "adjoint_eps_study.csv").read_text().splitlines()
        assert len(rows) == 6
        assert all(row.split(",")[3] == "" for row in rows[1:])

    @pytest.mark.parametrize("center", ["1e3", "1e308"])
    def test_relax_adjoint_vanishing_errors_leave_rate_blank(self, tmp_path,
                                                             center):
        # terminal data centred far off the domain vanish on every grid
        # (at 1e308 the Gaussian's square overflows to its limit), so each
        # deviation is 0 and no rate exists: the cells are blank
        assert self._run_quietly(tmp_path, "relax-adjoint",
                                 f"nx_list = 20,40\nterminal_center = "
                                 f"{center}\n") == 0
        rows = (tmp_path / "adjoint_eps_study.csv").read_text().splitlines()
        assert len(rows) == 6
        assert all(row.split(",")[2:4] == ["0", ""] for row in rows[1:])

    def test_relax_forward_far_gaussian_is_zero(self, tmp_path):
        # a centre whose distance squares past the float range gives the
        # Gaussian's limit, 0, without an overflow warning
        assert self._run_quietly(tmp_path, "relax-forward",
                                 "flux = linear\nnx = 41\n"
                                 "u0_center = 1e308\n") == 0
        u = np.loadtxt(tmp_path / "forward_t14.csv", delimiter=",",
                       skiprows=1)[:, 1]
        assert u.shape == (40,) and not u.any()

    @pytest.mark.parametrize("kind", ["control-jinxin", "control-broadwell"])
    def test_descent_on_its_target_prints_no_ratio(self, tmp_path, capsys,
                                                   kind):
        # on three points the guess equals the true data at every node, so
        # J(0) = 0: the descent stops at once and reports no J ratio
        assert self._run_quietly(tmp_path, kind, "nx = 3\n") == 0
        out = capsys.readouterr().out
        assert "J(0) = 0.000000e+00   J(end) = 0.000000e+00\n" in out
        assert "ratio =" not in out
        log = (tmp_path / f"{kind}_iterations.csv").read_text().splitlines()
        assert len(log) == 2 and log[1].startswith("0,0,")

    def test_relax_adjoint_rejects_nonpositive_eps(self, tmp_path, capsys):
        # the whole eps list is checked before any sweep or CSV
        for eps in ("1.0, 0.1, 0", "1.0, -1e-3, 1e-4"):
            conf = self._write(tmp_path, "c.conf",
                               "[relax-adjoint]\nnx_list = 20,40\n"
                               f"eps_list = {eps}\n")
            assert cli.main(["relax-adjoint", "--config", conf,
                             "--out", str(tmp_path)]) == 2
            assert "eps must be positive" in capsys.readouterr().err
            assert os.listdir(tmp_path) == ["c.conf"]

    def test_nan_eps_config_error(self, tmp_path, capsys):
        # NaN <= 0 is False: the config parser rejects it, naming the key
        for kind, key, body in (("relax-adjoint", "eps_list",
                                 "nx_list = 20,40\neps_list = 1.0 nan\n"),
                                ("relax-forward", "eps",
                                 "flux = linear\nnx = 40\neps = nan\n")):
            conf = self._write(tmp_path, "c.conf", f"[{kind}]\n{body}")
            assert cli.main([kind, "--config", conf,
                             "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert f"key {key!r}" in err and "not a finite number" in err
            assert os.listdir(tmp_path) == ["c.conf"]

    def test_relax_adjoint_empty_nx_list_config_error(self, tmp_path, capsys):
        conf = self._write(tmp_path, "c.conf",
                           "[relax-adjoint]\nnx_list = \n")
        assert cli.main(["relax-adjoint", "--config", conf,
                         "--out", str(tmp_path)]) == 2
        assert "'nx_list'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.conf"]

    @pytest.mark.parametrize("kind, body, key", [
        ("ode-converge", "study = const-fy\nschemes = \n", "schemes"),
        ("ode-converge", "study = const-fy\nschemes = AM4\nn_list = \n",
         "n_list"),
        ("relax-adjoint", "eps_list = \n", "eps_list"),
        ("relax-forward", "flux = linear\nnx = 40\noutput_times = \n",
         "output_times"),
    ], ids=["schemes", "n_list", "eps_list", "output_times"])
    def test_empty_list_config_error(self, tmp_path, capsys, kind, body, key):
        conf = self._write(tmp_path, "c.conf", f"[{kind}]\n{body}")
        assert cli.main([kind, "--config", conf, "--out", str(tmp_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.conf"]

    @pytest.mark.parametrize("kind, body", [
        ("relax-forward", "flux = linear\nnx = 40\n"),
        ("relax-adjoint", "nx_list = 20,40\n"),
        ("control-jinxin", "nx = 40\niterations = 1\n"),
        ("control-broadwell", "nx = 41\niterations = 1\n"),
        ("ode-converge", "study = full-system\nschemes = BDF2\n"
                         "n_list = 40,80\n"),
    ], ids=["relax-forward", "relax-adjoint", "control-jinxin",
            "control-broadwell", "full-system"])
    def test_route_rejected_where_ignored(self, tmp_path, capsys, kind, body):
        # only the prescribed ode-converge studies have route columns
        conf = self._write(tmp_path, "c.conf", f"[{kind}]\n{body}")
        assert cli.main([kind, "--config", conf, "--out", str(tmp_path),
                         "--route", "dto"]) == 2
        assert "--route" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.conf"]

    def test_broadwell_negative_density_solver_failure(self, tmp_path, capsys):
        # a large first step drives rho below 0 inside the descent loop
        conf = self._write(tmp_path, "c.conf",
                           "[control-broadwell]\nnx = 81\niterations = 3\n"
                           "sigma0 = 10\n")
        assert cli.main(["control-broadwell", "--config", conf,
                         "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "rho <= 0" in err
        # the forward step names itself, the descent loop its iteration
        assert "at step 1 in descent iteration 1" in err

    @pytest.mark.parametrize("kind, body, key", [
        ("relax-forward", "flux = linear\nnx = 40\ndt = 0\n", "dt"),
        ("relax-forward", "flux = linear\nnx = 40\na = 0\n", "a"),
        ("relax-forward", "flux = linear\nnx = 40\nT = -1\n", "T"),
        ("relax-forward", "flux = linear\nnx = 40\neps = 0\n", "eps"),
        ("relax-forward", "flux = linear\nnx = 2\n", "nx"),
        ("ode-converge", "study = const-fy\nschemes = BDF2\nT = 0\n", "T"),
        ("ode-converge", "study = const-fy\nschemes = BDF2\nn_list = 0,10\n",
         "n_list"),
        ("relax-adjoint", "nx_list = 2,40\n", "nx_list"),
        ("relax-adjoint", "nx_list = 20,40\neps_list = 1e-2 -1\n",
         "eps_list"),
        ("control-jinxin", "nx = 40\niterations = -1\n", "iterations"),
        ("control-jinxin", "nx = 40\nsigma0 = 0\n", "sigma0"),
        ("control-jinxin", "nx = 40\nsave_every = -2\n", "save_every"),
        ("control-broadwell", "nx = 41\nc = -1\n", "c"),
        ("control-broadwell", "nx = 41\nfilter_every = -1\n",
         "filter_every"),
        ("relax-forward", "flux = linear\nnx = 40\nx_right = -6\n",
         "x_right"),
        ("relax-forward", "flux = linear\nnx = 40\nx_right = 0\n",
         "x_right"),
        ("relax-adjoint", "nx_list = 20,40\nx_right = -6\n", "x_right"),
        ("ode-converge", "study = const-fy\nschemes = BDF2,BDF6\n"
                         "n_list = 4,8\n", "n_list"),
        ("relax-forward", "flux = linear\nnx = 40\nu0_width = 0\n",
         "u0_width"),
        ("relax-adjoint", "nx_list = 20,40\nterminal_width = 0\n",
         "terminal_width"),
        ("relax-forward", "flux = linear\nnx = 40\nT = 0.001\n", "T"),
        ("relax-adjoint", "nx_list = 20,40\nT = 0.001\n", "T"),
        ("control-jinxin", "nx = 40\nT = 0.001\niterations = 2\n", "T"),
        ("control-broadwell", "nx = 41\nT = 0.001\niterations = 2\n", "T"),
        ("relax-forward", "flux = linear\nnx = 40\nx_left = -1e308\n"
                          "x_right = 1e308\n", "x_right"),
    ], ids=["dt", "a", "T", "eps", "nx", "study-T", "n_list", "nx_list",
            "eps_list", "iterations", "sigma0", "save_every", "c",
            "filter_every", "x_right-below", "x_right-equal",
            "adjoint-x_right", "n_list-below-s", "u0_width",
            "terminal_width", "T-below-one-step", "adjoint-T-below-one-step",
            "jinxin-T-below-one-step", "broadwell-T-below-one-step",
            "x_right-overflow"])
    def test_out_of_range_value_config_error(self, tmp_path, capsys, kind,
                                             body, key):
        # a zero, negative or too small size is rejected before any run
        conf = self._write(tmp_path, "c.conf", f"[{kind}]\n{body}")
        assert cli.main([kind, "--config", conf, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err and "must be" in err
        assert os.listdir(tmp_path) == ["c.conf"]

    def test_unallocatable_forward_store_config_error(self, tmp_path, capsys,
                                                      monkeypatch):
        # the work bound rejects these settings first and is lifted here;
        # 1e15 steps then size a 277 PiB store, which exceeds any address
        # space, so its allocation fails at once
        monkeypatch.setattr(experiments, "_MAX_NODE_STEPS", float("inf"))
        conf = self._write(tmp_path, "c.conf", "[relax-forward]\n"
                           "flux = linear\nnx = 40\ndt = 1e-15\n")
        assert cli.main(["relax-forward", "--config", conf,
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "key 'dt'" in err and "(3.12e+17 bytes)" in err
        assert os.listdir(tmp_path) == ["c.conf"]

    @pytest.mark.parametrize("kind, body", [
        ("relax-adjoint", "nx_list = 20,40\nT = 1e15\n"),
        ("relax-forward", "flux = linear\nnx = 40\ndt = 1e-15\n"),
        ("control-jinxin", "nx = 40\nT = 3e9\n"),
        ("control-broadwell", "nx = 41\niterations = 1000000000\n"),
        ("relax-forward", "flux = linear\nnx = 40\ndt = 1e-300\n"),
        ("control-jinxin", "nx = 40\ndt = 1e-300\niterations = 2\n"),
        ("control-broadwell", "nx = 41\ndt = 1e-300\niterations = 2\n"),
        ("relax-adjoint", "nx_list = 20,40\nT = 1e300\n"),
        ("relax-adjoint", "nx_list = 20,40\nT = 1e305\nx_right = 1e-6\n"),
        ("relax-adjoint", "nx_list = 20,40\nT = 1e307\n"),
        ("relax-forward", "flux = linear\nnx = 1000000000000000\n"),
        ("control-jinxin", "nx = 1000000000000000\n"),
        ("control-broadwell", "nx = 1000000000000000\n"),
    ], ids=["relax-adjoint", "relax-forward", "control-jinxin",
            "control-broadwell", "dt-store-overflow",
            "jinxin-dt-store-overflow", "broadwell-dt-store-overflow",
            "adjoint-steps-finite", "adjoint-steps-infinite",
            "adjoint-past-float-range", "huge-nx", "jinxin-huge-nx",
            "broadwell-huge-nx"])
    def test_work_bound_config_error(self, tmp_path, capsys, monkeypatch,
                                     kind, body):
        # settings that ask for years of node-steps, as many as the float
        # range holds (T/dt = inf) or more, or more nodes than memory holds,
        # are rejected after the grid is laid out but before any node array,
        # allocation or sweep
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept past the work bound")

        monkeypatch.setattr(rx.LagrangianGrid, "nodes", no_sweep)
        monkeypatch.setattr(rx, "solve_forward", no_sweep)
        monkeypatch.setattr(rx, "viscous_limit_check", no_sweep)
        conf = self._write(tmp_path, "c.conf", f"[{kind}]\n{body}")
        assert cli.main([kind, "--config", conf, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "key 'T'" in err and "node-steps" in err
        assert os.listdir(tmp_path) == ["c.conf"]

    def test_work_bound_covers_the_fine_grid(self, tmp_path, capsys,
                                             monkeypatch):
        # at T = 3e9 one coarse sweep of 19 nodes takes 3.8e11 node-steps,
        # under the bound: with an oracle eps the run reaches its sweep.  A
        # self-reference eps adds a nested fine sweep (twice the nodes and
        # twice the steps) that pushes the run over before any sweep
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept")

        monkeypatch.setattr(rx, "viscous_limit_check", no_sweep)
        body = "[relax-adjoint]\nnx_list = 20\nT = 3e9\neps_list = "
        conf = self._write(tmp_path, "c.conf", body + "1e-3\n")
        with pytest.raises(AssertionError, match="swept"):
            cli.main(["relax-adjoint", "--config", conf,
                      "--out", str(tmp_path)])
        conf = self._write(tmp_path, "c.conf", body + "1\n")
        assert cli.main(["relax-adjoint", "--config", conf,
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "key 'T'" in err and "node-steps" in err
        assert os.listdir(tmp_path) == ["c.conf"]

    def test_shipped_configs_far_under_the_work_bound(self, tmp_path,
                                                      monkeypatch):
        # every bench workload and every relaxation kind's defaults stay
        # 1000x under the bound; each run stops at its admission check
        counted = []

        def admit(node_steps):
            counted.append(node_steps)
            raise ConfigError("counted")

        monkeypatch.setattr(experiments, "_admit", admit)
        workloads = pathlib.Path(__file__).parent.parent / "bench" / "workloads"
        texts = [path.read_text() for path in workloads.glob("relax-*/*.conf")]
        texts += ["[relax-forward]\nflux = burgers\n", "[relax-adjoint]\n",
                  "[control-jinxin]\n", "[control-broadwell]\n"]
        for text in texts:
            conf = self._write(tmp_path, "c.conf", text)
            kind = parse_config(text).kind
            assert cli.main([kind, "--config", conf,
                             "--out", str(tmp_path)]) == 2
        assert len(counted) == len(texts) == 10
        assert max(counted) * 1000 <= experiments._MAX_NODE_STEPS, counted

    @pytest.mark.parametrize("kind, body", [
        ("relax-forward", "flux = linear\nnx = 40\nscheme = AB2\n"),
        ("relax-adjoint", "nx_list = 20,40\nscheme = AM4\n"),
        ("control-jinxin", "nx = 40\niterations = 1\nscheme = AB3\n"),
    ], ids=["relax-forward", "relax-adjoint", "control-jinxin"])
    def test_non_bdf_relaxation_scheme_config_error(self, tmp_path, capsys,
                                                    kind, body):
        conf = self._write(tmp_path, "c.conf", f"[{kind}]\n{body}")
        assert cli.main([kind, "--config", conf, "--out", str(tmp_path)]) == 2
        assert "requires a BDF tableau" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.conf"]


def reference_column(cells) -> list[str]:
    """``experiments._column`` as it was before numeric blocks got their
    one-operation path, kept verbatim as the reference writer."""
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()
    blank = [isinstance(c, str) or c is None or c != c for c in cells]
    nums = [c for c, b in zip(cells, blank) if not b]
    text = iter(("%.17g\n" * len(nums) % tuple(nums)).split("\n"))
    return [(c if isinstance(c, str) else "") if b else next(text)
            for c, b in zip(cells, blank)]


def reference_write_csv(path, header, rows):
    """``experiments.write_csv`` as it was, every block through the
    column-at-a-time path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), experiments._CSV_BLOCK):
            block = rows[start:start + experiments._CSV_BLOCK]
            columns = (block.T if isinstance(block, np.ndarray)
                       else itertools.zip_longest(*block))
            fh.writelines(",".join(row) + "\n"
                          for row in zip(*map(reference_column, columns)))


def assert_writes_like_reference(tmp_path, rows):
    ncols = (rows.shape[1] if isinstance(rows, np.ndarray)
             else max(map(len, rows)))
    header = [f"c{j}" for j in range(ncols)]
    experiments.write_csv(tmp_path / "new.csv", header, rows)
    reference_write_csv(tmp_path / "ref.csv", header, rows)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    return new


EXTREME_FLOATS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                  2.225073858507201e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308,
                  1e-5, 9.9999999999999e-5, 1e16, 1e17, 0.1, -1.0,
                  123456789012345680.0]


def scattered_array(rows, cols, seed, specials):
    """Random float64 bit patterns (NaN patterns replaced by -0.0) with
    ``specials`` and the extreme floats scattered over the cells."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-2 ** 63, 2 ** 63, size=(rows, cols),
                     dtype=np.int64).view(np.float64)
    a[np.isnan(a)] = -0.0
    pool = np.array(EXTREME_FLOATS + specials)
    if a.size:
        picks = rng.random(a.shape) < 0.5
        a[picks] = rng.choice(pool, size=int(picks.sum()))
    return a


class TestCsvWriter:
    """``write_csv`` formats a block of a numeric array without NaN in one
    operation and every other block a column at a time; both give the
    bytes of the column-at-a-time reference writer."""

    @pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
    @hyp_settings(max_examples=8, deadline=None, derandomize=True)
    @given(cols=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           specials=st.lists(st.floats(allow_nan=False), max_size=8))
    def test_float_arrays_match_reference(self, tmp_path_factory, rows, cols,
                                          seed, specials):
        tmp_path = tmp_path_factory.mktemp("csv")
        a = scattered_array(rows, cols, seed, specials)
        text = assert_writes_like_reference(tmp_path, a)
        assert text.count(b"\n") == rows + 1

    def test_nan_cells_stay_empty(self, tmp_path):
        # the NaN sits in the second block only: the first block takes the
        # one-operation path, the second the column path
        a = scattered_array(4097, 3, 7, [])
        a[4096, 1] = np.nan
        text = assert_writes_like_reference(tmp_path, a).decode()
        last = text.splitlines()[-1].split(",")
        assert last[1] == "" and "" not in last[::2]
        a[:, 0] = np.nan
        text = assert_writes_like_reference(tmp_path, a).decode()
        assert all(line.startswith(",") for line in text.splitlines()[1:])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8,
                                       np.uint64])
    def test_int_arrays_match_reference(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        a = np.array([[info.min, info.max, 0], [1, 7, 255]], dtype=dtype)
        assert_writes_like_reference(tmp_path, np.repeat(a, 2049, axis=0))

    def test_rows_and_other_arrays_match_reference(self, tmp_path):
        rows = [[1, 0.5, "tag"], [2, None, float("nan")], [3, -0.0]]
        assert_writes_like_reference(tmp_path, rows)
        assert_writes_like_reference(tmp_path, np.array([[True, False]]))
        assert_writes_like_reference(tmp_path, np.empty((3, 0)))
        assert_writes_like_reference(
            tmp_path, np.array([[1.5, -0.0]], dtype=np.float32))

    def test_snapshot_arrays_skip_the_column_path(self, tmp_path,
                                                  monkeypatch):
        x = np.linspace(-3.0, 3.0, 9000)
        snapshot = np.column_stack([x, np.sin(x), -np.cos(x)])
        expected = tmp_path / "ref.csv"
        reference_write_csv(expected, ["x", "rho", "m"], snapshot)

        def refuse(cells):
            raise AssertionError("numeric block went through _column")

        monkeypatch.setattr(experiments, "_column", refuse)
        experiments.write_csv(tmp_path / "new.csv", ["x", "rho", "m"],
                              snapshot)
        assert (tmp_path / "new.csv").read_bytes() == expected.read_bytes()
        with pytest.raises(AssertionError, match="_column"):
            experiments.write_csv(tmp_path / "log.csv", ["k", "J"],
                                  [[0, 1.5]])


class TestRelaxAdjointSweeps:
    """The eps study runs one sweep per grid batched over the eps values,
    plus one nested fine sweep batched over the self-reference values."""

    def sweeps(self, monkeypatch, tmp_path, text):
        solved = []
        solve = rx.solve_adjoint

        def counting(model, grid, tab, u_store, lam_T, n_steps, dt):
            solved.append((grid.n_points, tuple(np.ravel(model.eps))))
            return solve(model, grid, tab, u_store, lam_T, n_steps, dt)

        monkeypatch.setattr(rx, "solve_adjoint", counting)
        run_relax_adjoint(parse_config(text), str(tmp_path))
        members = [(nx, eps) for nx, batch in solved for eps in batch]
        assert len(members) == len(set(members))  # nothing solved twice
        return solved

    def test_default_study(self, monkeypatch, tmp_path, capsys):
        solved = self.sweeps(monkeypatch, tmp_path, "[relax-adjoint]\n")
        eps = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
        coarse = [(nx, eps) for nx in (40, 80, 160, 320, 640)]
        fine = [(2 * nx - 1, eps[:3]) for nx in (40, 80, 160, 320, 640)]
        assert len(solved) == 10
        assert sorted(solved) == sorted(coarse + fine)

    def test_oracle_only_study(self, monkeypatch, tmp_path, capsys):
        solved = self.sweeps(monkeypatch, tmp_path,
                             "[relax-adjoint]\noracle_eps_max = 2.0\n")
        assert len(solved) == 5
        assert {nx for nx, _ in solved} == {40, 80, 160, 320, 640}
