import hashlib
import json
import os

import numpy as np
import pytest

from delaycontrol.cli import main, write_path_table

LQ_INI = """
[instance]
family = linear_quadratic
lambda = 0.5
s = 0.0
T = 1.0
dt = 0.01
delay_steps = 10
history = constant:0.6
u_min = -1.0
u_max = 1.0

[instance.params]
a = 0.1
bu = 0.5
sigma0 = 0.2
q = 0.15
r = 1.0
phi_quad = -0.15

[driver]
fbar = 0.0
gbar = 0.0

[numerics]
n_paths = 400
basis_degree = 2
n_u = 21
nx = 61
nx1 = 31
n_t_pde = 60
dump_paths = 5

[control]
type = constant
value = 0.1

[run]
seed = 42
"""

CMP_INI = """
[instance]
family = linear
lambda = 0.0
s = 0.0
T = 0.1
dt = 0.001
delay_steps = 10
history = constant:1.0

[instance.params]
b0 = 1.0
bx2 = 1.0
sx = 0.2

[instance2]
family = linear
lambda = 0.0
s = 0.0
T = 0.1
dt = 0.001
delay_steps = 10
history = constant:1.0

[instance2.params]
bx2 = 1.0
sx = 0.2

[numerics]
n_paths = 300

[run]
seed = 3
"""


@pytest.fixture()
def lq_config(tmp_path):
    path = tmp_path / "lq.ini"
    path.write_text(LQ_INI)
    return str(path)


@pytest.fixture()
def cmp_config(tmp_path):
    path = tmp_path / "cmp.ini"
    path.write_text(CMP_INI)
    return str(path)


def file_hashes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_kv(path):
    out = {}
    for line in open(path):
        key, _, value = line.strip().partition("=")
        out[key] = value
    return out


class TestConfigValidation:
    def test_missing_seed_is_field_error(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[instance]\nfamily = constant\nT = 1.0\ndt = 0.01\n"
                     "delay_steps = 5\n")
        rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "run.seed" in capsys.readouterr().err

    def test_unknown_family_is_field_error(self, lq_config, tmp_path, capsys):
        rc = main(["simulate", "--config", lq_config, "--seed", "1",
                   "--out", str(tmp_path / "o"), "--set", "instance.family=woble"])
        assert rc == 2
        assert "instance.family" in capsys.readouterr().err

    def test_malformed_override(self, lq_config, tmp_path, capsys):
        rc = main(["simulate", "--config", lq_config, "--out", str(tmp_path / "o"),
                   "--set", "nonsense"])
        assert rc == 2

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.ini"),
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("text,diagnostic", [
        (b"family = linear\n", "config: no [section] header before line 1"),
        (b"[instance]\nfamily = linear\nfamily = constant\n", "instance.family: duplicate key"),
        (b"\xff\xfe[instance]\n", "config: cannot read"),
    ])
    def test_unreadable_config_file_exits_2(self, text, diagnostic, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_bytes(text)
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(p), "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert f"config error: {diagnostic}" in capsys.readouterr().err
        assert not out.exists()

    def test_default_section_override_exits_2(self, lq_config, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["simulate", "--config", lq_config, "--out", str(out),
                   "--set", "DEFAULT.x=1"])
        assert rc == 2
        assert "config error: --set 'DEFAULT.x=1':" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["check-mp", "simulate"])
    def test_unknown_control_type_is_field_error(self, subcommand, lq_config, tmp_path,
                                                 capsys):
        out = tmp_path / "o"
        rc = main([subcommand, "--config", lq_config, "--out", str(out),
                   "--set", "control.type=bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "control.type: unknown control type 'bogus'" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand,override,field", [
        ("check-scaling", "scaling.offsets=0.1,x", "scaling.offsets"),
        ("check-scaling", "scaling.offsets=0.2,0.15,0.1", "scaling.offsets"),
        ("check-scaling", "scaling.t_indices=20,y", "scaling.t_indices"),
        ("check-scaling", "scaling.t_indices=100", "scaling.t_indices"),
        ("check-scaling", "scaling.p=0", "scaling.p"),
        ("check-scaling", "numerics.n_paths=-1", "numerics.n_paths"),
        ("simulate", "numerics.n_paths=-1", "numerics.n_paths"),
        ("simulate", "control.value=abc", "control.value"),
        ("simulate", "numerics.dump_paths=abc", "numerics.dump_paths"),
        ("simulate", "numerics.dump_paths=-1", "numerics.dump_paths"),
        ("simulate", "control.perturb=abc", "control.perturb"),
        ("solve-bsde", "numerics.basis_degree=abc", "numerics.basis_degree"),
        ("solve-hjb", "numerics.svg=abc", "numerics.svg"),
        ("solve-hjb", "numerics.hjb_variant=bogus", "numerics.hjb_variant"),
        ("simulate", "instance.lambda=abc", "instance.lambda"),
        ("simulate", "instance.u_min=abc", "instance.u_min"),
        ("check-comparison", "comparison.tol=abc", "comparison.tol"),
        ("check-comparison", "comparison.tol=-1", "comparison.tol"),
        ("check-moments", "moments.p=abc", "moments.p"),
        ("check-duality", "numerics.nx=abc", "numerics.nx"),
        ("verify", "numerics.grid_budget=abc", "numerics.grid_budget"),
    ])
    def test_bad_value_exits_2_before_any_output(self, subcommand, override, field,
                                                 lq_config, cmp_config, tmp_path, capsys):
        out = tmp_path / "o"
        config = cmp_config if subcommand == "check-comparison" else lq_config
        rc = main([subcommand, "--config", config, "--out", str(out),
                   "--set", override])
        assert rc == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,field", [
        (["--seed", "-1"], "--seed"),
        (["--seed", str(2 ** 64)], "--seed"),
        (["--set", "run.seed=-1"], "run.seed"),
    ])
    def test_seed_outside_64_bits_exits_2(self, args, field, lq_config, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["solve-hjb", "--config", lq_config, "--out", str(out), *args])
        assert rc == 2
        assert f"config error: {field}: seed must fit in 64 bits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,field", [
        (["--seed", str(2 ** 64 - 1)], "--seed"),
        (["--set", f"run.seed={2 ** 64 - 1}"], "run.seed"),
    ])
    def test_girsanov_seed_plus_1_outside_64_bits_exits_2(self, args, field, lq_config,
                                                          tmp_path, capsys):
        # girsanov's second noise source draws from seed + 1
        out = tmp_path / "o"
        rc = main(["girsanov", "--config", lq_config, "--out", str(out), *args])
        assert rc == 2
        assert f"config error: {field}: girsanov also draws noise from seed + 1" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["verify", "girsanov"])
    def test_missing_driver_exits_2(self, subcommand, tmp_path, capsys):
        p = tmp_path / "nodriver.ini"
        p.write_text(LQ_INI.replace("[driver]\nfbar = 0.0\ngbar = 0.0\n", ""))
        out = tmp_path / "o"
        rc = main([subcommand, "--config", str(p), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: driver: {subcommand} requires a [driver] section" in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_bad_thread_count_exits_2_before_any_output(self, threads, lq_config, tmp_path,
                                                        capsys):
        out = tmp_path / "o"
        rc = main(["simulate", "--config", lq_config, "--out", str(out),
                   "--threads", threads])
        assert rc == 2
        assert "config error: --threads: must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "500", "0,-1"])
    def test_bad_dump_slices_is_field_error(self, value, lq_config, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["solve-hjb", "--config", lq_config, "--out", str(out),
                   "--set", f"numerics.dump_slices={value}"])
        assert rc == 2
        assert "numerics.dump_slices" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_dump_slices_accepts_both_ends(self, lq_config, tmp_path):
        out = tmp_path / "o"
        rc = main(["solve-hjb", "--config", lq_config, "--out", str(out),
                   "--set", "numerics.dump_slices=0,60"])
        assert rc == 0
        rows = (out / "value_function.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 61 * 31


class TestSimulate:
    def test_outputs_and_manifest(self, lq_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", lq_config, "--out", out]) == 0
        header = open(os.path.join(out, "trajectories.csv")).readline().strip()
        assert header == "path,step,t,X,X1,X2"
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["seed"] == 42
        assert manifest["subcommand"] == "simulate"
        assert "config_hash" in manifest and "versions" in manifest

    def test_reruns_and_thread_counts_byte_identical(self, lq_config, tmp_path):
        outs = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "8")):
            out = str(tmp_path / tag)
            assert main(["simulate", "--config", lq_config, "--out", out,
                         "--threads", threads]) == 0
            outs.append(file_hashes(out))
        assert outs[0] == outs[1] == outs[2]

    def test_seed_changes_data(self, lq_config, tmp_path):
        h = []
        for seed in ("1", "2"):
            out = str(tmp_path / f"s{seed}")
            main(["simulate", "--config", lq_config, "--seed", seed, "--out", out])
            h.append(file_hashes(out)["trajectories.csv"])
        assert h[0] != h[1]


class TestOutputFormat:
    def test_path_table_bytes(self, tmp_path):
        # header, %.17g cells (rounding, signed zero, tiny, nan), CRLF row ends,
        # and only the first ``keep`` paths
        a = np.array([[0.1, 1 / 3, -0.0], [1e-300, np.nan, 2.5], [7.0, 7.0, 7.0]])
        path = tmp_path / "table.csv"
        write_path_table(str(path), np.array([0.0, 0.1, 1 / 3]), 2, ["A", "B"], [a, -a])
        assert path.read_bytes() == (
            b"path,step,t,A,B\r\n"
            b"0,0,0,0.10000000000000001,-0.10000000000000001\r\n"
            b"0,1,0.10000000000000001,0.33333333333333331,-0.33333333333333331\r\n"
            b"0,2,0.33333333333333331,-0,0\r\n"
            b"1,0,0,1e-300,-1e-300\r\n"
            b"1,1,0.10000000000000001,nan,nan\r\n"
            b"1,2,0.33333333333333331,2.5,-2.5\r\n")


class TestSolvers:
    def test_solve_bsde_report(self, lq_config, tmp_path):
        out = str(tmp_path / "bsde")
        assert main(["solve-bsde", "--config", lq_config, "--out", out]) == 0
        kv = read_kv(os.path.join(out, "report.txt"))
        assert float(kv["J"]) == pytest.approx(-float(kv["y_s"]), abs=1e-12)
        header = open(os.path.join(out, "bsde.csv")).readline().strip()
        assert header == "path,step,t,Y,Z"
        combined = open(os.path.join(out, "trajectories.csv")).readline().strip()
        assert combined == "path,step,t,X,X1,X2,Y,Z"

    def test_solve_hjb_zero_instance_csv(self, tmp_path):
        cfg = tmp_path / "zero.ini"
        cfg.write_text("""
[instance]
family = constant
lambda = 0.5
s = 0.0
T = 1.0
dt = 0.01
delay_steps = 10
history = constant:0.0

[instance.params]
phi0 = 2.0

[numerics]
nx = 61
nx1 = 31
n_t_pde = 60

[run]
seed = 1
""")
        out = str(tmp_path / "hjb")
        rc = main(["solve-hjb", "--config", str(cfg), "--out", out,
                   "--set", "numerics.svg=true"])
        assert rc == 0
        rows = open(os.path.join(out, "value_function.csv")).read().splitlines()
        assert rows[0] == "t,x,x1,V,u_star"
        vals = {float(r.split(",")[3]) for r in rows[1:]}
        assert vals == {-2.0}
        svg = open(os.path.join(out, "value_t0.svg")).read()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_verify_exit_codes(self, lq_config, tmp_path):
        out = str(tmp_path / "v1")
        rc = main(["verify", "--config", lq_config, "--out", out,
                   "--set", "control.type=hjb"])
        assert rc == 0
        kv = read_kv(os.path.join(out, "report.txt"))
        assert kv["verdict"] == "true"
        out2 = str(tmp_path / "v2")
        rc = main(["verify", "--config", lq_config, "--out", out2,
                   "--set", "control.type=constant", "--set", "control.value=1.0"])
        assert rc == 1
        kv = read_kv(os.path.join(out2, "report.txt"))
        assert kv["verdict"] == "false" and float(kv["gap"]) > 0

    def test_verify_requires_driver(self, lq_config, tmp_path, capsys):
        rc = main(["verify", "--config", lq_config, "--out", str(tmp_path / "x"),
                   "--set", "control.type=hjb", "--set", "driver.fbar=remove"])
        assert rc == 2  # unparsable driver entry -> config error


class TestCheckers:
    def test_comparison_ok(self, cmp_config, tmp_path):
        out = str(tmp_path / "cmp")
        assert main(["check-comparison", "--config", cmp_config, "--out", out]) == 0
        kv = read_kv(os.path.join(out, "report.txt"))
        assert kv["hypothesis_ok"] == "true"
        assert float(kv["max_violation_fraction"]) == 0.0
        header = open(os.path.join(out, "violations.csv")).readline().strip()
        assert header == "step,t,violation_fraction"

    def test_comparison_hypothesis_gate_exit_3(self, cmp_config, tmp_path):
        out = str(tmp_path / "cmp3")
        rc = main(["check-comparison", "--config", cmp_config, "--out", out,
                   "--set", "instance.params.b0=0.0",
                   "--set", "instance2.params.b0=1.0"])
        assert rc == 3
        kv = read_kv(os.path.join(out, "report.txt"))
        assert kv["hypothesis_ok"] == "false"

    def test_moments(self, cmp_config, tmp_path):
        out = str(tmp_path / "mom")
        assert main(["check-moments", "--config", cmp_config, "--out", out,
                     "--set", "moments.p=2"]) == 0
        kv = read_kv(os.path.join(out, "report.txt"))
        assert float(kv["ratio"]) > 0.0 and np.isfinite(float(kv["ratio"]))

    def test_check_mp_writes_report(self, lq_config, tmp_path):
        out = str(tmp_path / "mp")
        assert main(["check-mp", "--config", lq_config, "--out", out,
                     "--set", "numerics.n_paths=300"]) == 0
        kv = read_kv(os.path.join(out, "mp_report.txt"))
        assert kv["phi_linear_ok"] == "false"  # quadratic terminal here
        assert os.path.exists(os.path.join(out, "adjoints.csv"))

    @pytest.mark.parametrize("subcommand,overrides,message", [
        # a z-loading of 60 drives the gamma multiplier 1 + f_z dW below zero
        ("check-mp", ["instance.params.fz=60.0"], "gamma crossed zero at step"),
        # growth 1.1 per step overflows a 1e308 bump
        ("check-scaling", ["instance.params.bx=10.0", "scaling.offsets=1e308,1e307,1e306"],
         "perturbed path became non-finite at step"),
    ])
    def test_numerical_abort_exits_3_without_output(self, subcommand, overrides, message,
                                                    tmp_path, capsys):
        p = tmp_path / "lin.ini"
        p.write_text("[instance]\nfamily = linear\nlambda = 0.0\ns = 0.0\nT = 0.2\n"
                     "dt = 0.01\ndelay_steps = 10\nhistory = constant:1.0\n\n"
                     "[instance.params]\nsx = 0.3\nphix = 1.0\n\n"
                     "[numerics]\nn_paths = 500\n\n[run]\nseed = 7\n")
        out = tmp_path / "o"
        argv = [subcommand, "--config", str(p), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"hypothesis gate: {message}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_check_duality_exit_codes(self, lq_config, tmp_path):
        out = str(tmp_path / "dual")
        assert main(["check-duality", "--config", lq_config, "--out", out,
                     "--set", "numerics.n_paths=500"]) == 0
        kv = read_kv(os.path.join(out, "report.txt"))
        assert kv["applicable"] == "true"
        # x1-dependent terminal breaks the reduction hypothesis -> exit 3
        out2 = str(tmp_path / "dual3")
        rc = main(["check-duality", "--config", lq_config, "--out", out2,
                   "--set", "instance.family=linear",
                   "--set", "instance.params=",
                   "--set", "numerics.n_paths=300"])
        # replacing the family leaves stale LQ params -> config error
        assert rc == 2

    def test_check_scaling_outputs(self, lq_config, tmp_path):
        out = str(tmp_path / "sc")
        assert main(["check-scaling", "--config", lq_config, "--out", out,
                     "--set", "scaling.t_indices=20",
                     "--set", "numerics.n_paths=400"]) == 0
        lines = open(os.path.join(out, "duality_t20.csv")).read().splitlines()
        assert lines[0] == "quantity,offset,estimate,std_error"
        assert any(",slope," in ln for ln in lines)

    def test_girsanov_report(self, tmp_path):
        p = tmp_path / "g.ini"
        p.write_text("""
[instance]
family = linear
lambda = 0.3
s = 0.0
T = 0.5
dt = 0.01
delay_steps = 5
history = constant:1.0

[instance.params]
bx = 0.2
s0 = 0.3
fy = -0.1
fz = 0.3

[driver]
fbar = -0.1
gbar = 0.3

[numerics]
n_paths = 2000

[run]
seed = 4
""")
        out = str(tmp_path / "gir")
        assert main(["girsanov", "--config", str(p), "--out", out]) == 0
        kv = read_kv(os.path.join(out, "report.txt"))
        assert float(kv["mean_weight"]) == pytest.approx(
            1.0, abs=4 * float(kv["weight_se"]))
        gap = float(kv["route_gap"])
        assert gap <= 3 * (float(kv["y_s_original_se"]) + float(kv["y_s_shifted_se"]))
