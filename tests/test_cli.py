import hashlib
import json
import os

import numpy as np
import pytest

from delaycontrol.cli import main

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
