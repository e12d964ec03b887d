import configparser
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import delaycontrol
from delaycontrol import cli
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

    @pytest.mark.parametrize("subcommand,config,override,line", [
        # one per column of FIELD_KEYS: a required key, an int and a float
        # bound, a bool, and [instance2] read through the [instance] declaration
        ("simulate", "lq-nodt", None, "instance.dt: required key missing"),
        ("simulate", "lq", "numerics.n_paths=0",
         "numerics.n_paths: must be a positive integer, got 0"),
        ("check-comparison", "cmp", "comparison.tol=-1",
         "comparison.tol: must be >= 0.0, got -1.0"),
        ("solve-hjb", "lq", "numerics.svg=abc", "numerics.svg: cannot parse 'abc' as bool"),
        ("check-comparison", "cmp", "instance2.dt=q", "instance2.dt: cannot parse 'q' as float"),
        # the pair runs on one grid
        ("check-comparison", "cmp", "instance2.dt=0.002",
         "instance2: TimeGrid(s=0.0, T=0.1, dt=0.002, delay_steps=10) differs from "
         "[instance]'s TimeGrid(s=0.0, T=0.1, dt=0.001, delay_steps=10); "
         "both instances share one grid"),
        ("check-scaling", "lq", "scaling.offsets=0.2,0.1",
         "scaling.offsets: need >= 3 positive offsets spanning a factor >= 4, got '0.2,0.1'"),
        # non-finite floats, in RunConfig.get and in the params sections
        ("simulate", "lq", "instance.dt=nan", "instance.dt: must be finite, got nan"),
        ("simulate", "lq", "instance.T=inf", "instance.T: must be finite, got inf"),
        ("solve-hjb", "lq", "numerics.x_max=nan", "numerics.x_max: must be finite, got nan"),
        ("check-comparison", "cmp", "comparison.tol=nan",
         "comparison.tol: must be finite, got nan"),
        ("verify", "lq", "numerics.grid_budget=nan",
         "numerics.grid_budget: must be finite, got nan"),
        ("solve-hjb", "lq", "driver.fbar=nan", "driver.fbar: must be finite, got nan"),
        ("check-comparison", "cmp", "instance2.params.sx=-inf",
         "instance2.params.sx: must be finite, got -inf"),
        # numerics.n_u serves both instances and is reported once
        ("check-comparison", "cmp", "numerics.n_u=abc",
         "numerics.n_u: cannot parse 'abc' as int"),
        ("check-comparison", "cmp", "numerics.n_u=0",
         "numerics.n_u: must be a positive integer, got 0"),
        # moments.p is checked in the parse pass
        ("check-moments", "cmp", "moments.p=3", "moments.p: must be an even integer >= 2, got 3"),
        ("check-moments", "cmp", "moments.p=0", "moments.p: must be an even integer >= 2, got 0"),
    ])
    def test_bad_field_is_one_exact_line(self, subcommand, config, override, line, tmp_path,
                                         capsys):
        p = tmp_path / "cfg.ini"
        p.write_text({"lq": LQ_INI, "cmp": CMP_INI,
                      "lq-nodt": LQ_INI.replace("dt = 0.01\n", "")}[config])
        out = tmp_path / "o"
        rc = main([subcommand, "--config", str(p), "--out", str(out),
                   *(["--set", override] if override else [])])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]
        assert not out.exists()

    def test_readme_example_shows_every_field_key(self):
        # the README's Configuration example sets or comments every key that
        # FIELD_KEYS declares, in its section; [instance2] shares the
        # [instance] declaration
        with open(README) as fh:
            example = re.search(r"### Configuration\n.*?```ini\n(.*?)```", fh.read(),
                                re.S).group(1)
        shown, section = set(), None
        for row in example.splitlines():
            header, key = re.match(r"\[([\w.]+)\]", row), re.match(r";?\s*(\w+)\s*=", row)
            if header:
                section = header.group(1)
            elif key:
                shown.add((section, key.group(1)))
        assert cli.FIELD_KEYS["comparison"]["instance2"] is cli.FIELD_KEYS["instance"]["instance"]
        declared = {(section, key) for group in cli.FIELD_KEYS.values()
                    for section, keys in group.items() if section != "instance2"
                    for key in keys}
        assert declared <= shown

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

    @pytest.mark.parametrize("overrides,lines", [
        (["numerics.npaths=5"], ["numerics.npaths: unknown key (no subcommand reads it)"]),
        (["numerics.npaths=5", "numerc.n_paths=3"],
         ["numerics.npaths: unknown key (no subcommand reads it)",
          "numerc.n_paths: unknown section [numerc]"]),
        (["control.typ=hjb"], ["control.typ: unknown key (no subcommand reads it)"]),
        (["run.threads=2"], ["run.threads: unknown key (no subcommand reads it)"]),
    ])
    def test_unknown_key_exits_2(self, overrides, lines, lq_config, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["simulate", "--config", lq_config, "--out", str(out),
                   *(arg for item in overrides for arg in ("--set", item))])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {line}"
                                                        for line in lines]
        assert not out.exists()

    @pytest.mark.parametrize("text,line", [
        (LQ_INI.replace("[numerics]\n", "[numerics]\nn_pahts = 5\n"),
         "numerics.n_pahts: unknown key (no subcommand reads it)"),
        (LQ_INI + "\n[extra]\n", "extra: unknown section [extra]"),
        ("[DEFAULT]\nn_paths = 5\n" + LQ_INI, "DEFAULT.n_paths: unknown section [DEFAULT]"),
    ])
    def test_unknown_key_in_file_exits_2(self, text, line, tmp_path, capsys):
        p = tmp_path / "extra.ini"
        p.write_text(text)
        out = tmp_path / "o"
        rc = main(["solve-hjb", "--config", str(p), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]
        assert not out.exists()

    def test_keys_of_other_subcommands_allowed(self, lq_config, tmp_path):
        # one file serves every subcommand: simulate ignores what it does not read
        out = tmp_path / "o"
        sets = ["instance2.family=linear", "instance2.params.bx=1.0", "comparison.tol=0.1",
                "scaling.p=3", "moments.p=2", "numerics.hjb_variant=G", "numerics.x2_ref=0",
                "numerics.grid_budget=0.1", "numerics.eps_reg=1e-8", "instance.params.a=0.2"]
        rc = main(["simulate", "--config", lq_config, "--out", str(out),
                   *(arg for item in sets for arg in ("--set", item))])
        assert rc == 0

    def test_field_keys_are_the_keys_read(self, lq_config, cmp_config, tmp_path,
                                          monkeypatch):
        # every key the parse pass of any subcommand reads, under both control
        # types, is in FIELD_KEYS, and FIELD_KEYS lists no key that none reads
        assert {g for _, needs in cli.COMMANDS.values() for g in needs} | {"instance"} \
            == set(cli.FIELD_KEYS)
        read = set()
        get = configparser.ConfigParser.get

        def recording(self, section, option, **kw):
            read.add((section, self.optionxform(option)))
            return get(self, section, option, **kw)

        monkeypatch.setattr(configparser.ConfigParser, "get", recording)
        for name, (_, needs) in cli.COMMANDS.items():
            config = cmp_config if name == "check-comparison" else lq_config
            for ctype in ("constant", "hjb"):
                cfg = cli.load_config(config, [f"control.type={ctype}"], None, 1,
                                      str(tmp_path / "o"))
                cli._inputs(cfg, name, needs)
        known = {(section, key.lower()) for group in cli.FIELD_KEYS.values()
                 for section, keys in group.items() for key in keys}
        assert read == known

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

    @pytest.mark.parametrize("keep", [0, 1, 299, 300, 1000])
    def test_path_table_matches_csv_writer(self, keep, tmp_path):
        # every cell of a csv.writer table of f-string cells, on 300 paths
        # (more than one block of paths) with nan, +-inf, -0.0 and subnormals
        rng = np.random.default_rng(5)
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -5e-324, 1.7976931348623157e308]
        arrays = []
        for _ in range(8):
            a = rng.normal(0.0, 10.0, (300, 7)) * 10.0 ** rng.integers(-200, 200, (300, 7))
            a.flat[rng.choice(a.size, 60, replace=False)] = rng.choice(specials, 60)
            arrays.append(np.asfortranarray(a))
        times = np.linspace(0.0, 0.6, 7)
        names = [f"A{j}" for j in range(8)]
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["path", "step", "t", *names])
            out.writerows([pth, i, f"{t:.17g}"] + [f"{arr[pth, i]:.17g}" for arr in arrays]
                          for pth in range(min(keep, 300)) for i, t in enumerate(times))
        got = tmp_path / "got.csv"
        write_path_table(str(got), times, keep, names, arrays)
        assert got.read_bytes() == want.read_bytes()

    def test_table_matches_csv_writer(self, tmp_path):
        # %d, %s, %.17g, %.6f and %.6e columns with nan, +-inf, -0.0,
        # subnormals and the largest float, a slope-style part with a literal
        # field and an empty last one, and parts with no rows
        rng = np.random.default_rng(11)
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                    1.7976931348623157e308, -1.7976931348623157e308]
        floats = []
        for _ in range(3):
            a = rng.normal(0.0, 10.0, 200) * 10.0 ** rng.integers(-300, 300, 200)
            a[rng.choice(200, 40, replace=False)] = rng.choice(specials, 40)
            floats.append(a.tolist())
        ints = rng.integers(-10**12, 10**12, 200).tolist()
        words = [f"q{i % 7}_x" for i in range(200)]
        keys, slopes = words[:9], specials
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["n", "quantity", "a", "b", "c"])
            out.writerows([n, w, f"{a:.17g}", f"{b:.6f}", f"{c:.6e}"]
                          for n, w, a, b, c in zip(ints, words, *floats))
            out.writerows([k, "slope", f"{v:.17g}", ""] for k, v in zip(keys, slopes))
        got = tmp_path / "got.csv"
        cli.write_table(str(got), ["n", "quantity", "a", "b", "c"],
                        [("%d,%s,%.17g,%.6f,%.6e", [ints, words, *floats]),
                         ("%d,%s", [[], []]), ("%s,slope,%.17g,", [keys, slopes]),
                         ("%.17g", [])])
        assert got.read_bytes() == want.read_bytes()

    def test_table_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_table(str(path), ["t", "mean_integrand"], [])
        assert path.read_bytes() == b"t,mean_integrand\r\n"
        cli.write_table(str(path), ["t"], [("%.17g", [[]])])
        assert path.read_bytes() == b"t\r\n"

    def test_table_columns_of_one_length(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_table(str(tmp_path / "t.csv"), ["step", "t"],
                            [("%d,%.17g", [range(3), [0.0, 0.5]])])

    @pytest.mark.parametrize("bad", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_table_refuses_fields_that_need_quoting(self, bad, tmp_path):
        # csv.writer would quote these; the table writer writes nothing quoted
        path = str(tmp_path / "t.csv")
        with pytest.raises(ValueError, match="quoting"):
            cli.write_table(path, ["t", bad], [])
        with pytest.raises(ValueError, match="quoting"):
            cli.write_table(path, ["quantity", "offset"],
                            [("%s,%.17g", [["x", "y", bad], [0.1, 0.2, 0.3]])])
        cli.write_table(path, ["quantity", "offset"], [("%s,%.17g", [["x", "y"], [0.1, 0.2]])])
        assert open(path, newline="").read() == "quantity,offset\r\nx,0.10000000000000001\r\n" \
            "y,0.20000000000000001\r\n"

    def test_value_function_slices_in_given_order(self, lq_config, tmp_path):
        # dump_slices=all writes (n_t_pde + 1) * nx * nx1 rows; a list writes
        # its slices in the order given, a repeat included
        grid = ["--set", "numerics.nx=11", "--set", "numerics.nx1=6"]
        tables = {}
        for value in ("all", "60,0,60"):
            out = tmp_path / value.replace(",", "_")
            assert main(["solve-hjb", "--config", lq_config, "--out", str(out), *grid,
                         "--set", f"numerics.dump_slices={value}"]) == 0
            tables[value] = (out / "value_function.csv").read_bytes().split(b"\r\n")
        every, picked = tables["all"], tables["60,0,60"]
        assert every[0] == picked[0] == b"t,x,x1,V,u_star" and every[-1] == picked[-1] == b""
        rows = every[1:-1]
        assert len(rows) == 61 * 11 * 6
        cells = [[float(v) for v in r.split(b",")] for r in rows]
        assert [c[0] for c in cells[::66]] == list(np.linspace(0.0, 1.0, 61))
        assert [c[1:3] for c in cells[:66]] == [[x, x1] for x in np.linspace(-3.0, 3.0, 11)
                                                for x1 in np.linspace(-3.0, 3.0, 6)]
        first, last = rows[:66], rows[-66:]
        assert picked[1:-1] == last + first + last


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

    @pytest.mark.parametrize("subcommand,overrides", [
        ("solve-hjb", ["driver.fbar=0.1"]),
        ("solve-hjb", ["numerics.hjb_variant=Gbar", "driver.gbar=0.3"]),
        ("check-mp", ["control.type=hjb", "driver.fbar=0.1"]),
        ("check-duality", ["driver.fbar=0.1"]),
        ("verify", ["control.type=hjb", "driver.fbar=0.1"]),
    ])
    def test_driver_that_f_lacks_exits_2(self, subcommand, overrides, lq_config, tmp_path,
                                         capsys):
        # the LQ f reads neither y nor z; every subcommand that solves a
        # variant reading the declared driver rejects it, verify with the
        # same text it printed before the value grid was gated
        out = tmp_path / "o"
        argv = [subcommand, "--config", lq_config, "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: oracle inapplicable: driver deviates from the "
                              "linear form by ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_driver_that_f_has_solves(self, lq_config, tmp_path):
        out = str(tmp_path / "o")
        assert main(["solve-hjb", "--config", lq_config, "--out", out,
                     "--set", "instance.params.fy=0.1", "--set", "driver.fbar=0.1"]) == 0


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

    @pytest.mark.parametrize("subcommand,kept", [("check-mp", 5), ("check-duality", 0),
                                                  ("check-scaling", 0)])
    def test_adjoint_rows_kept_are_the_written_ones(self, subcommand, kept, lq_config,
                                                    tmp_path, monkeypatch):
        # q2 and p3 are stored on the dump_paths rows adjoints.csv writes,
        # and on none where nothing writes them
        solved = []
        solve = cli.solve_adjoints

        def recording(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(cli, "solve_adjoints", recording)
        main([subcommand, "--config", lq_config, "--out", str(tmp_path / "o"),
              "--set", "numerics.n_paths=100", "--set", "scaling.offsets=0.2,0.1,0.05"])
        (adj,) = solved
        assert adj.q2.shape[0] == adj.p3.shape[0] == kept
        assert adj.p1.shape[0] == adj.q1.shape[0] == 100

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

    @pytest.mark.parametrize("subcommand,overrides", [
        ("check-comparison", ["instance.params.b0=0", "instance.params.bx=3000",
                              "instance2.params.bx=3000", "instance.params.sx=50",
                              "instance2.params.sx=50"]),
        ("check-moments", ["instance.params.bx=3000", "instance.params.sx=50"]),
    ])
    def test_every_path_diverged_exits_3(self, subcommand, overrides, cmp_config,
                                         tmp_path, capsys):
        out = tmp_path / "o"
        argv = [subcommand, "--config", cmp_config, "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("hypothesis gate: no valid path left to check")
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


SRC = os.path.dirname(os.path.dirname(os.path.abspath(delaycontrol.__file__)))
README = os.path.join(os.path.dirname(SRC), "README.md")
DP_MODULES = {"delaycontrol.hjb", "delaycontrol.connect", "delaycontrol.variational"}


def loaded_after(code):
    """The delaycontrol modules a fresh interpreter holds after running ``code``."""
    code += "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('delaycontrol')))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


class TestImports:
    """Each subcommand loads only the modules it runs; the package namespace
    loads a module on first access of one of its names."""

    @pytest.mark.parametrize("sub", ["check-mp", "simulate"])
    def test_constant_control_run_loads_no_value_grid_or_variation(self, sub, lq_config,
                                                                   tmp_path):
        argv = [sub, "--config", lq_config, "--out", str(tmp_path / "o")]
        loaded = loaded_after(f"from delaycontrol import cli\nassert cli.main({argv!r}) == 0")
        assert "delaycontrol.adjoint" in loaded
        assert not loaded & DP_MODULES

    def test_check_scaling_loads_no_value_grid(self, lq_config, tmp_path):
        argv = ["check-scaling", "--config", lq_config, "--out", str(tmp_path / "o"),
                "--set", "numerics.n_paths=100", "--set", "scaling.offsets=0.2,0.1,0.05"]
        loaded = loaded_after(f"from delaycontrol import cli\nassert cli.main({argv!r}) == 0")
        assert "delaycontrol.variational" in loaded
        assert not loaded & {"delaycontrol.hjb", "delaycontrol.connect"}

    def test_bare_import_loads_no_submodule(self):
        assert loaded_after("import delaycontrol") == {"delaycontrol"}

    def test_public_names_are_their_home_objects(self):
        for name in delaycontrol.__all__:
            home = getattr(delaycontrol, delaycontrol._HOME[name])
            expected = home if home.__name__ == f"delaycontrol.{name}" else getattr(home, name)
            assert getattr(delaycontrol, name) is expected, name
        assert set(delaycontrol.__all__) <= set(dir(delaycontrol))

    def test_readme_sketch_import_loads_only_its_modules(self):
        with open(README) as fh:
            line = re.search(r"from delaycontrol import \([^)]*\)", fh.read()).group(0)
        loaded = loaded_after(line + "\nassert solve_hjb.__module__ == 'delaycontrol.hjb'")
        assert "delaycontrol.connect" in loaded
        assert not loaded & {"delaycontrol.variational", "delaycontrol.cli"}

    def test_unknown_attribute_raises_and_loads_nothing(self):
        loaded = loaded_after("import delaycontrol, pytest\n"
                              "with pytest.raises(AttributeError, match='solve_everything'):\n"
                              "    delaycontrol.solve_everything")
        assert loaded == {"delaycontrol"}
