import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import amalgam
from amalgam.cli import RunConfig, _emit, main, run

BASE = ["--dim", "1", "--L", "8", "--n", "512", "--tmin", "0.01", "--tmax", "8", "--tcount", "12"]


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in a report")


def read_report(path):
    """Parse a report as strict JSON: NaN and Infinity are refused."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


class TestNormCommand:
    def test_two_cube_value(self, tmp_path):
        out = tmp_path / "norm.json"
        code = run(["norm", "--dim", "1", "--L", "32", "--n", "4096",
                    "--p", "1", "--q", "2", "--function", "indicator:lo=0,hi=2",
                    "--out", str(out)])
        assert code == 0
        doc = read_report(out)
        assert abs(doc["results"]["amalgam_discrete"] - 1.41421356237) <= 1e-9

    def test_prints_to_stdout_without_out(self, capsys):
        assert run(["norm", *BASE, "--function", "gaussian:width=1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "norm"


class TestUsageErrors:
    def test_bad_grid(self):
        assert run(["norm", "--L", "0"]) == 1

    def test_bad_command(self):
        assert run(["frobnicate"]) == 1

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"waffles": 3}')
        assert run(["norm", "--config", str(cfg)]) == 1

    def test_bad_pq(self):
        assert run(["report", "--pq", "one,two"]) == 1

    def test_unknown_method(self):
        assert run(["report", "--methods", "sorcery"]) == 1

    @pytest.mark.parametrize("bound", [["--tmin", "nan"], ["--tmax", "inf"]])
    def test_nonfinite_time_bound(self, bound, capsys):
        code = run(["norm", "--L", "8", "--n", "512", *bound, "--function", "gaussian:width=1"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and "finite" in err

    @pytest.mark.parametrize("function", [
        "gaussian:width=abc",
        "sinc:width=1",
        "from_file:path={missing}",
        "from_file",
        "gaussian:width=-1",
    ])
    def test_malformed_function_spec(self, function, tmp_path, capsys):
        function = function.format(missing=tmp_path / "missing.grid")
        assert run(["norm", *BASE, "--function", function]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("flag, value", [("--orders", "x"), ("--orders", "0,1.5"),
                                             ("--sides", "1,y")])
    def test_malformed_atom_list(self, flag, value, capsys):
        assert run(["atoms", *BASE, flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and flag in err

    def test_hardy_order_below_one(self, capsys):
        assert run(["hardy", *BASE, "--order", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and "--order" in err

    def test_riesz_axis_beyond_dim(self, capsys):
        assert run(["transform", *BASE, "--op", "riesz", "--axis", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and "--axis" in err

    def test_symbol_dimension_mismatch(self, tmp_path, capsys):
        from amalgam.spectral import SphereSymbol, write_symbol

        path = tmp_path / "d2.json"
        write_symbol(SphereSymbol.from_samples(np.cos(2 * np.pi * np.arange(64) / 64)), path)
        assert run(["transform", *BASE, "--op", "multiplier", "--symbol-file", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and "symbol dimension 2" in err

    def test_grid_over_the_size_limit(self, monkeypatch, capsys):
        # refused while parsing the configuration: nothing is sampled or allocated
        monkeypatch.setattr(RunConfig, "sample", lambda self: pytest.fail("over-limit grid sampled"))
        tracemalloc.start()
        try:
            code = run(["norm", "--dim", "2", "--n", "65536"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert peak < 2**20
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and "65536^2" in err

    @pytest.mark.parametrize("content", [None, "not json", '{"d": 1}'])
    def test_unusable_symbol_file(self, content, tmp_path, capsys):
        path = tmp_path / "symbol.json"
        if content is not None:
            path.write_text(content)
        code = run(["transform", *BASE, "--op", "multiplier", "--symbol-file", str(path),
                    "--out", str(tmp_path / "tr.json")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and "--symbol-file" in err
        assert not (tmp_path / "tr.json").exists()


    @pytest.mark.parametrize("content, named", [
        (None, "c.json"),                     # missing file
        ("not json", "c.json"),
        ("[1, 2]", "c.json"),                 # not an object
        ('{"tcount": 2.5}', "tcount"),        # a float for an int field
        ('{"dim": true}', "dim"),             # a bool is not an int
        ('{"function": 5}', "function"),
        ('{"p": "1"}', "p"),
    ])
    def test_unusable_config_file(self, content, named, tmp_path, capsys):
        path = tmp_path / "c.json"
        if content is not None:
            path.write_text(content)
        assert run(["norm", *BASE, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and named in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
    def test_unusable_tolerance(self, tol, capsys):
        assert run(["cr-check", *BASE, "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and "--tol" in err

    @pytest.mark.parametrize("flag, value", [("--sides", "3"), ("--sides", "1,0.3"),
                                             ("--orders", "-1")])
    def test_atom_list_out_of_range(self, flag, value, capsys):
        assert run(["atoms", *BASE, flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and flag in err

    @pytest.mark.parametrize("command", ["hardy", "report", "freeze"])
    def test_one_dimensional_commands_refuse_dim_2(self, command, tmp_path, capsys):
        code = run([command, "--dim", "2", "--L", "4", "--n", "32",
                    "--frozen", str(tmp_path / "store.json")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and "one-dimensional" in err
        assert not (tmp_path / "store.json").exists()

    @pytest.mark.parametrize("command", ["report", "atoms"])
    def test_assert_without_store(self, command, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code = run([command, *BASE, "--assert", "--frozen", str(tmp_path / "missing.json"),
                    "--out", str(out_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith("usage error:") and "missing.json" in err
        assert not out_path.exists()


    @pytest.mark.parametrize("command", ["norm", "transform", "freeze"])
    def test_out_names_a_directory(self, command, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert run([command, *BASE, "--out", str(tmp_path), "--frozen", str(store)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and f"--out {str(tmp_path)!r}" in err
        assert not store.exists()

    @pytest.mark.parametrize("argv, target", [
        (["transform"], "r.grid"),
        (["extend"], "r.stack"),
        (["hardy"], "r_riesz_scale.csv"),
        (["freeze", "--frozen"], "store"),
    ], ids=["grid", "stack", "csv", "store"])
    def test_unwritable_output(self, argv, target, tmp_path, capsys):
        # a directory where the command writes a file
        path = tmp_path / target
        path.mkdir()
        argv = [*argv, str(path)] if argv[-1] == "--frozen" else argv
        assert run([*argv, *BASE, "--out", str(tmp_path / "r.json")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: cannot write {str(path)!r}")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_report_write_fails(self, capsys):
        # every write to /dev/full fails with ENOSPC once the file is open
        assert run(["norm", *BASE, "--out", "/dev/full"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: cannot write '/dev/full'")

    @pytest.mark.parametrize("content", [
        "{bad",                              # not JSON
        '{"version": 9, "entries": {}}',     # an unsupported version
        "[1, 2]",                            # not an object
        '{"version": 1}',                    # no entries
    ], ids=["not-json", "version", "not-object", "no-entries"])
    @pytest.mark.parametrize("argv", [["report"], ["report", "--assert"], ["atoms", "--assert"]],
                             ids=["report", "report-assert", "atoms-assert"])
    def test_unusable_store(self, argv, content, tmp_path, capsys):
        store = tmp_path / "store.json"
        store.write_text(content)
        out_path = tmp_path / "r.json"
        assert run([*argv, *BASE, "--frozen", str(store), "--out", str(out_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and str(store) in err
        assert not out_path.exists()

    @pytest.mark.parametrize("entry", [
        {"value": 1.0},                      # no grid id
        {"grid_id": "g", "value": "x"},      # a value that is not a number
        {"grid_id": "g", "value": True},     # nor is a boolean
        {"grid_id": 3, "value": 1.0},        # a grid id that is not text
        [1.0],                               # not an object
    ], ids=["no-grid-id", "text-value", "bool-value", "number-grid-id", "not-object"])
    @pytest.mark.parametrize("argv", [["report", "--assert"], ["atoms", "--assert"]],
                             ids=["report-assert", "atoms-assert"])
    def test_malformed_store_entry(self, argv, entry, tmp_path, capsys):
        # a malformed entry is bad input, named with its file and key
        key = "atoms-d1|band_low|p=1|q=1"
        store = tmp_path / "store.json"
        store.write_text(json.dumps({"version": 1, "entries": {key: entry}}))
        assert run([*argv, *BASE, "--frozen", str(store)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error:") and str(store) in err and repr(key) in err


class TestOutDirectory:
    # --out may name a directory that does not exist yet: it is created
    # before the command runs, so the report and every sibling land there
    @pytest.mark.parametrize("argv, siblings", [
        (["norm"], []),
        (["transform", "--function", "bandlimited_random:seed=1,lo=0.5,hi=2"], ["r.grid"]),
        (["extend"], ["r.stack", "r_slices.csv"]),
        (["cr-check"], ["r_residuals.csv"]),
        (["hardy"], ["r_riesz_scale.csv"]),
        (["atoms", "--orders", "0", "--sides", "1"], ["r_atoms.csv"]),
        (["report"], ["r_ratios.csv"]),
    ], ids=["norm", "transform", "extend", "cr-check", "hardy", "atoms", "report"])
    def test_writes_into_new_directory(self, argv, siblings, tmp_path):
        out = tmp_path / "a" / "b" / "r.json"
        # report reads no store: the default one holds no constants for this grid
        code = run([*argv, *BASE, "--out", str(out), "--frozen", str(tmp_path / "none.json")])
        assert code == 0
        assert read_report(out)["status"] == "pass"
        for name in siblings:
            assert (out.parent / name).exists(), name


class TestStrictJson:
    def test_nonfinite_result_is_refused(self):
        with pytest.raises(ValueError, match="JSON"):
            _emit(RunConfig(n=512, L=8), "norm", {"lp": float("nan")})


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dim": 1, "L": 8, "n": 512, "p": 2.0, "q": 2.0,
                                   "function": "indicator:lo=0,hi=1"}))
        assert run(["norm", "--config", str(cfg), "--q", "3.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["q"] == 3.0
        assert doc["config"]["p"] == 2.0

    def test_int_for_float_field_and_null_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"L": 8, "n": 512, "p": 2, "tmax": 8, "frozen": None}))
        assert run(["norm", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["p"] == 2


class TestCrCheck:
    def test_caloric_spectral_passes(self, tmp_path):
        out = tmp_path / "cr.json"
        code = run(["cr-check", *BASE, "--lift", "caloric", "--mode", "spectral",
                    "--function", "gaussian:width=1", "--assert", "--out", str(out)])
        assert code == 0
        doc = read_report(out)
        assert doc["status"] == "pass"
        assert max(doc["results"]["max"].values()) <= 1e-6
        assert (tmp_path / "cr_residuals.csv").exists()

    def test_caloric_quadrature_2d_passes(self, tmp_path):
        out = tmp_path / "cr.json"
        code = run(["cr-check", "--dim", "2", "--L", "8", "--n", "64", "--lift", "caloric",
                    "--mode", "quadrature", "--function", "gaussian:width=1", "--assert",
                    "--out", str(out)])
        assert code == 0
        doc = read_report(out)
        assert doc["results"]["tol"] == 1e-2
        assert max(doc["results"]["max"].values()) <= 1e-2

    def test_assert_failure_exits_2(self, tmp_path):
        # an impossible tolerance forces the assertion branch
        code = run(["cr-check", *BASE, "--lift", "caloric", "--mode", "spectral",
                    "--function", "gaussian:width=1", "--assert", "--tol", "1e-30",
                    "--out", str(tmp_path / "cr2.json")])
        assert code == 2


class TestExtendCommand:
    def test_writes_stack_and_csv(self, tmp_path):
        out = tmp_path / "ext.json"
        code = run(["extend", *BASE, "--kernel", "heat",
                    "--function", "gaussian:width=1", "--out", str(out)])
        assert code == 0
        assert (tmp_path / "ext.stack").exists()
        assert (tmp_path / "ext_slices.csv").exists()
        header = (tmp_path / "ext_slices.csv").read_text().splitlines()[0]
        assert header == "t,sup,l2"


class TestTransformCommand:
    def test_riesz_writes_data(self, tmp_path):
        out = tmp_path / "tr.json"
        code = run(["transform", *BASE, "--op", "riesz",
                    "--function", "bandlimited_random:seed=1,lo=0.5,hi=2", "--out", str(out)])
        assert code == 0
        assert (tmp_path / "tr.grid").exists()

    def test_multiplier_needs_symbol_file(self):
        assert run(["transform", *BASE, "--op", "multiplier"]) == 1

    def test_multiplier_with_symbol_file(self, tmp_path):
        from amalgam.grid import read_grid_function
        from amalgam.spectral import SphereSymbol, write_symbol

        sym_path = tmp_path / "hilbert.json"
        write_symbol(SphereSymbol.from_pair(-1j, 1j), sym_path)
        out = tmp_path / "mult.json"
        code = run(["transform", *BASE, "--op", "multiplier", "--symbol-file", str(sym_path),
                    "--function", "bandlimited_random:seed=4,lo=0.5,hi=2", "--out", str(out)])
        assert code == 0
        g = read_grid_function(tmp_path / "mult.grid")
        assert g.spec.n == 512


class TestHardyCommand:
    def test_reports_three_quantities(self, tmp_path):
        out = tmp_path / "h.json"
        code = run(["hardy", *BASE, "--function", "bandlimited_random:seed=2,lo=0.5,hi=2",
                    "--out", str(out)])
        assert code == 0
        res = read_report(out)["results"]
        assert set(res) >= {"maximal", "riesz", "multiplier"}
        assert (tmp_path / "h_riesz_scale.csv").exists()


class TestFreezeReportCycle:
    def test_freeze_then_assert(self, tmp_path, capsys):
        store = tmp_path / "frozen.json"
        base = ["--dim", "1", "--L", "8", "--n", "512",
                "--tmin", "0.01", "--tmax", "8", "--tcount", "10"]
        assert run(["freeze", *base, "--frozen", str(store),
                    "--out", str(tmp_path / "fr.json")]) == 0
        assert store.exists()
        code = run(["report", *base, "--methods", "maximal,riesz1", "--pq", "1,1",
                    "--frozen", str(store), "--assert", "--out", str(tmp_path / "rep.json")])
        assert code == 0
        doc = read_report(tmp_path / "rep.json")
        assert doc["results"]["pairs"]["maximal/riesz1"]["ok"] is True

    def test_report_against_wrong_grid_is_numerical_error(self, tmp_path):
        store = tmp_path / "frozen.json"
        base = ["--dim", "1", "--L", "8", "--n", "512",
                "--tmin", "0.01", "--tmax", "8", "--tcount", "10"]
        assert run(["freeze", *base, "--frozen", str(store)]) == 0
        out = tmp_path / "bad.json"
        code = run(["report", "--dim", "1", "--L", "8", "--n", "256",
                    "--tmin", "0.01", "--tmax", "8", "--tcount", "10",
                    "--methods", "maximal,riesz1", "--pq", "1,1",
                    "--frozen", str(store), "--assert", "--out", str(out)])
        assert code == 3
        doc = read_report(out)
        assert doc["status"] == "error"
        assert "grid" in doc["results"]["error"]

    def test_atoms_probe_with_frozen_band(self, tmp_path):
        store = tmp_path / "frozen.json"
        base = ["--dim", "1", "--L", "8", "--n", "512",
                "--tmin", "0.01", "--tmax", "8", "--tcount", "10"]
        assert run(["freeze", *base, "--frozen", str(store)]) == 0
        code = run(["atoms", *base, "--orders", "0,1", "--sides", "0.25,0.5,1,2,4",
                    "--frozen", str(store), "--assert", "--out", str(tmp_path / "at.json")])
        assert code == 0

    def test_freeze_reproduces_committed_store(self, tmp_path):
        # the reference run (d=1, L=32, n=4096, 48 times) against the committed constants
        committed = json.loads((Path(amalgam.__file__).parent / "data" / "frozen_constants.json")
                               .read_text())
        store = tmp_path / "frozen.json"
        assert run(["freeze", "--frozen", str(store), "--out", str(tmp_path / "fr.json")]) == 0
        doc = read_report(store)
        assert doc["version"] == committed["version"]
        assert doc["entries"].keys() == committed["entries"].keys()
        for key, want in committed["entries"].items():
            got = doc["entries"][key]
            assert got["grid_id"] == want["grid_id"], key
            assert abs(got["value"] - want["value"]) <= 1e-12 * abs(want["value"]), key


class TestDeskScaleReport:
    def test_report_against_committed_store(self, tmp_path):
        # desk-scale run against the committed frozen constants
        out = tmp_path / "rep.json"
        code = run(["report", "--dim", "1", "--L", "32", "--n", "4096",
                    "--tmin", "0.001", "--tmax", "64", "--tcount", "48",
                    "--methods", "maximal,riesz1", "--pq", "1,1",
                    "--assert", "--out", str(out)])
        assert code == 0
        doc = read_report(out)
        assert doc["results"]["pairs"]["maximal/riesz1"]["ok"] is True
        assert (tmp_path / "rep_ratios.csv").exists()


class TestDeterminism:
    def test_reports_byte_identical_modulo_timestamp(self, tmp_path):
        args = ["hardy", *BASE, "--function", "bandlimited_random:seed=3,lo=0.5,hi=2"]
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(args + ["--out", str(out)]) == 0
            doc = read_report(out)
            doc.pop("timestamp")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


class TestEnvironmentOverride:
    def test_frozen_dir_env(self, tmp_path, monkeypatch):
        from amalgam.frozen import default_store_path

        monkeypatch.setenv("AMALGAM_FROZEN_DIR", str(tmp_path))
        assert default_store_path() == tmp_path / "frozen_constants.json"


COMMANDS = {"norm", "transform", "extend", "cr-check", "hardy", "atoms", "report", "freeze"}


def assert_help_lists_commands(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: amalgam ")
    listed = re.search(r"\{([^}]*)\}", proc.stdout).group(1).split(",")
    assert set(listed) == COMMANDS


def uninstalled_env():
    """Environment for a subprocess that imports amalgam from this checkout:
    the absolute src path keeps it independent of its working directory and
    of a relative PYTHONPATH."""
    src = str(Path(amalgam.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestConsoleEntry:
    def test_installed_script(self, tmp_path):
        # `python -m amalgam` reaches the callable the console script names
        # without an install
        proc = subprocess.run([sys.executable, "-m", "amalgam", "--help"],
                              capture_output=True, text=True, cwd=tmp_path, env=uninstalled_env())
        assert_help_lists_commands(proc)

    def test_import_loads_no_scipy_subpackage(self, tmp_path):
        # every CLI command pays for what `import amalgam.cli` loads.  Of
        # scipy it reads only the version, so the subprocess imports bare
        # scipy first, and the check covers what amalgam itself adds: no
        # scipy subpackage at all (a scipy.fft, scipy.special or
        # scipy.ndimage import costs about 0.3 s).  The import starts no
        # thread either: the worker pool of split stack passes is created
        # by the first such pass.
        script = (
            "import json, sys, threading\n"
            "import scipy\n"
            "before, threads = set(sys.modules), threading.enumerate()\n"
            "import amalgam.cli\n"
            "print(json.dumps([sorted(set(sys.modules) - before),\n"
            "                  len(threading.enumerate()) - len(threads)]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, cwd=tmp_path, env=uninstalled_env())
        assert proc.returncode == 0, proc.stderr
        modules, new_threads = json.loads(proc.stdout)
        assert new_threads == 0
        assert [m for m in modules if m.startswith("scipy.")] == []

    def test_script_entry_declared(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["amalgam"]
        assert target == "amalgam.cli:main"
        module, attr = target.split(":")
        assert getattr(importlib.import_module(module), attr) is main

    @pytest.mark.skipif(shutil.which("amalgam") is None,
                        reason="amalgam console script is not on PATH (package not installed)")
    def test_console_script_on_path(self):
        proc = subprocess.run(["amalgam", "--help"], capture_output=True, text=True)
        assert_help_lists_commands(proc)
