import argparse
import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from wavebranch import branch, cli, stream, strip
from wavebranch import lyapunov as ly
from wavebranch import physical as phys
from wavebranch.cli import RunConfig, main
from wavebranch.errors import (
    BranchStallError,
    NoSecondaryBranchError,
    NumericalError,
    PreconditionError,
)
from wavebranch.vorticity import VorticitySpec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(omega=[0.1, -0.3], nq=61, np=17, ds=0.004, out_dir="x")
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        loaded = RunConfig.from_file(str(path))
        assert loaded == cfg
        assert loaded.to_json() == cfg.to_json()

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(ds=-1.0)
        with pytest.raises(ValueError):
            RunConfig(margin_fraction=0.0)
        with pytest.raises(ValueError):
            RunConfig(nq=4)


class TestBasicCommands:
    def test_critical_irrotational(self, capsys):
        code, out, _ = run(capsys, "critical", "--omega", "0")
        assert code == 0
        vals = dict(line.split() for line in out.strip().splitlines())
        assert float(vals["theta_c"]) == pytest.approx(1.0, abs=1e-10)
        assert float(vals["R_c"]) == pytest.approx(1.5, abs=1e-10)
        assert vals["R_0"] == "inf"
        assert float(vals["F(theta_c)"]) == pytest.approx(1.0, abs=1e-10)

    def test_stream_csv(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, _ = run(
            capsys, "stream", "--omega", "0", "--theta-min", "1.1",
            "--theta-max", "2.0", "--n", "5", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "theta,d,R,F,S"
        assert len(lines) == 6
        row = [float(v) for v in lines[1].split(",")]
        assert row[1] == pytest.approx(1.0 / row[0], abs=1e-10)

    def test_spectrum1d(self, capsys):
        code, out, _ = run(capsys, "spectrum1d", "--omega", "0", "--R", "2.0",
                           "--nu0-grid-n", "512")
        assert code == 0
        vals = dict(line.split() for line in out.strip().splitlines())
        assert float(vals["nu0"]) == pytest.approx(5.6767, abs=1e-2)
        assert float(vals["rho0"]) == pytest.approx(0.3564, abs=1e-3)

    def test_solve_writes_checkpoint(self, capsys, tmp_path):
        ck = tmp_path / "w.txt"
        code, out, _ = run(
            capsys, "solve", "--omega", "0", "--R", "1.53",
            "--nq", "61", "--np", "11", "--out", str(ck),
        )
        assert code == 0
        keys = [line.split()[0] for line in out.splitlines()]
        assert keys[:3] == ["iterations", "chord_steps", "residual_sup"]
        fld, omega = strip.read_checkpoint(str(ck))
        assert fld.R == 1.53

    def test_solve_writes_profile_csv(self, capsys, tmp_path):
        ck = tmp_path / "w.txt"
        csvs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in csvs:
            code, out, _ = run(
                capsys, "solve", "--omega", "0", "--R", "1.53", "--nq", "61", "--np", "11",
                "--out", str(ck), "--profile-out", str(path),
            )
            assert code == 0
            assert f"profile {path}" in out.splitlines()
        lines = csvs[0].read_text().splitlines()
        assert lines[0] == "X,xi,psi_y_surface"
        fld, spec = strip.read_checkpoint(str(ck))
        profile = phys.reconstruct(fld, spec)
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert table.shape == (fld.grid.nq, 3)
        for j, column in enumerate((profile.X, profile.xi, profile.psi_y_surface)):
            assert table[:, j].tobytes() == np.asarray(column, dtype=float).tobytes()
        assert csvs[1].read_bytes() == csvs[0].read_bytes()

    def test_model_bifurcate_json(self, capsys):
        code, out, _ = run(capsys, "model-bifurcate", "--case", "pitchfork")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_estimate"] == 1
        assert payload["certified"] is True
        assert len([c for c in payload["curves"] if c["side"] == 1]) == 1

    @pytest.mark.parametrize("case", ["cubic", "even"])
    def test_model_bifurcate_curves_span_the_charts_columns(self, capsys, case):
        # on the gallery's chart every traced curve reaches all 13 columns
        code, out, _ = run(capsys, "model-bifurcate", "--case", case)
        assert code == 0
        curves = json.loads(out)["curves"]
        assert curves
        assert all(len(c["s"]) == 13 for c in curves)


class TestErrors:
    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "critical", "--bogus")
        assert code == 2

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "critical", "--config", str(bad))
        assert code == 2

    def test_numerical_error_exits_1(self, capsys):
        # R below critical: named module error, exit 1
        code, _, err = run(capsys, "solve", "--omega", "0", "--R", "1.2",
                           "--nq", "61", "--np", "11")
        assert code == 1
        assert "BelowCriticalError" in err

    def test_unknown_model_case_exits_1(self, capsys):
        code, _, err = run(capsys, "model-bifurcate", "--case", "nope")
        assert code == 1

    @pytest.mark.parametrize("data", [
        {"nq": 61, "bogus": 1}, {"nq": "61"}, {"ds": None},
        # keys of options that became constants
        {"newton_tol": 1e-10}, {"seed": 0}, {"ds_max_factor": 8.0},
        # the absolute truncation, now L_factor far-field depths
        {"L": 20.0},
    ])
    def test_unknown_or_ill_typed_config_key_exits_2(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "critical", "--config", str(bad))
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("exc", [TypeError, ValueError], ids=lambda e: e.__name__)
    def test_bug_in_a_command_is_not_a_configuration_error(self, capsys, monkeypatch, exc):
        def broken(spec):
            raise exc("a bug, not a bad configuration")

        monkeypatch.setattr(cli.stream_mod, "dispersion_summary", broken)
        with pytest.raises(exc):
            main(["critical", "--omega", "0"])
        assert "configuration error" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--omega", "0", "--R", "1.53", "--L-factor", "-1"],
        ["solve", "--omega", "0", "--R", "1.53", "--L-factor", "0"],
        ["spectrum1d", "--omega", "0", "--R", "2.0", "--nu0-grid-n", "32"],
    ])
    def test_bad_length_or_edge_grid_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "configuration error" in err

    def test_missing_input_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "ls-reduce", "--checkpoint-a", str(tmp_path / "a.txt"),
            "--checkpoint-b", str(tmp_path / "b.txt"),
        )
        assert code == 2
        assert "configuration error" not in err


# flags that some command does not take: the shared option groups, the
# flags of the constants (Newton tolerance, Taylor seed, step cap), the
# absolute truncation and model-bifurcate's chart
_OLD_FLAGS = ("--config", "--omega", "--L-factor", "--nq", "--np", "--newton-tol",
              "--nu0-grid-n", "--seed", "--ds-max-factor", "--L", "--s-max", "--lam-max",
              "--ns", "--nlam")
# each command's required arguments, so that parsing reaches the flag under test
_REQUIRED = {
    "stream": ["--theta-min", "1.1", "--theta-max", "2.0"],
    "critical": [],
    "spectrum1d": ["--R", "2.0"],
    "solve": ["--R", "1.53"],
    "continue": ["--R-start", "1.52"],
    "pairs": ["--branch", "b"],
    "ls-reduce": ["--checkpoint-a", "a", "--checkpoint-b", "b"],
    "model-bifurcate": ["--case", "pitchfork"],
    "verify": ["--dir", "d"],
}


def _subparsers() -> dict:
    ap = cli._build_parser()
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def _reads(fn) -> tuple:
    """Attribute names that fn's source reads off `args` and off `cfg`,
    following the cli functions it hands `cfg` to."""
    args_reads, cfg_reads = set(), set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args":
                args_reads.add(node.attr)
            elif node.value.id == "cfg":
                cfg_reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(isinstance(a, ast.Name) and a.id == "cfg" for a in node.args)):
            more = _reads(getattr(cli, node.func.id))
            args_reads |= more[0]
            cfg_reads |= more[1]
    return args_reads, cfg_reads


class TestOptions:
    def test_every_command_is_covered(self):
        assert set(_subparsers()) == set(_REQUIRED)

    @pytest.mark.parametrize("command", sorted(_REQUIRED))
    def test_parser_holds_the_options_its_command_reads(self, command):
        # an option is held exactly when the command function reads it, off
        # args or off the configuration; --config only where some
        # configuration field is read
        parser = _subparsers()[command]
        args_reads, cfg_reads = _reads(parser.get_default("func"))
        fields = cfg_reads & {f.name for f in dataclasses.fields(RunConfig)}
        # --out is the option of the configuration key out_dir
        fields = {"out" if name == "out_dir" else name for name in fields}
        held = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        assert held == args_reads | fields | ({"config"} if fields else set())

    def test_value_flag_slots(self):
        shared = set(_OLD_FLAGS) - {"--config", "--ds-max-factor"}
        held = [shared & set(p._option_string_actions) for p in _subparsers().values()]
        assert sum(map(len, held)) == 14  # 7 flags on 8 commands before: 56

    @pytest.mark.parametrize("command", sorted(_REQUIRED))
    def test_removed_flags_are_usage_errors(self, capsys, command):
        removed = [f for f in _OLD_FLAGS if f not in _subparsers()[command]._option_string_actions]
        assert removed
        for flag in removed:
            code, out, err = run(capsys, command, *_REQUIRED[command], flag, "1")
            assert code == 2, flag
            assert f"unrecognized arguments: {flag} 1" in err
            assert out == ""

    def test_readme_command_table_lists_each_parsers_options(self):
        # README's CLI table: one row per command, its shared and its own
        # options; a flag deleted from the parser must leave the table too
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            rows = [line.split("|") for line in fh if line.startswith("| `")]
        table = {row[1].strip(" `"): set(re.findall(r"`(--[\w-]+)`", row[2] + row[3]))
                 for row in rows}
        parsers = _subparsers()
        assert set(table) == set(parsers)
        for command, parser in parsers.items():
            held = {s for s in parser._option_string_actions if s.startswith("--")} - {"--help"}
            assert table[command] == held, command


_CONTINUE = ["continue", "--omega", "0", "--R-start", "1.52", "--steps", "4",
             "--ds", "0.004", "--nq", "61", "--np", "11", "--nu0-grid-n", "128"]


@pytest.fixture(scope="module")
def branch_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("branch_run")
    code = main([*_CONTINUE, "--out", str(out)])
    assert code == 0
    return out


def _shifted(lines, row, col, delta, sep):
    """lines with the number at (row, col) moved by delta and written with
    repr, as the writers do, so that the byte round trip still holds."""
    vals = lines[row].split(sep)
    vals[col] = repr(float(vals[col]) + delta)
    lines[row] = sep.join(vals)


def _flat_hp(lines):
    """h[3, 5] = h[3, 4] in a checkpoint: one h_p of zero."""
    vals = lines[7 + 3].split()
    vals[5] = vals[4]
    lines[7 + 3] = " ".join(vals)


def _tied_t(lines):
    """branch.csv row 2 gets row 1's t."""
    vals = lines[3].split(",")
    vals[0] = lines[2].split(",")[0]
    lines[3] = ",".join(vals)


def _garbage(lines):
    lines[:] = ["not a checkpoint"]


# one tampering per rule of the branch directory reader that `pairs` and
# `verify` share (a tampering of None deletes the file), and the start of the
# fault it must report
_DIR_TAMPERINGS = {
    "row-count": ("branch.csv", lambda ls: ls.pop(), "branch.csv: 4 rows vs 5 checkpoints"),
    "t-order": ("branch.csv", _tied_t, "branch.csv: t not strictly increasing"),
    "R": ("branch.csv", lambda ls: _shifted(ls, 3, 1, 1e-9, ","),
          "branch.csv row 2: R mismatch with checkpoint"),
    "last-checkpoint": ("point_0004.txt", None, "branch.csv: 5 rows vs 4 checkpoints"),
    "no-branch-csv": ("branch.csv", None, "branch.csv: missing"),
    "vorticity": ("point_0003.txt", lambda ls: _shifted(ls, 1, 1, 0.1, " "),
                  "point_0003.txt: vorticity [0.1] differs from point_0000.txt's [0.0]"),
    "grid": ("point_0002.txt", lambda ls: _shifted(ls, 2, 1, 1.0, " "),
             "point_0002.txt: grid StripGrid(L="),
    "unreadable": ("point_0001.txt", _garbage,
                   "point_0001.txt: {dir}/point_0001.txt: not a wavebranch checkpoint"),
}

# and one per failure branch of verify's own audit after the replay bound
_TAMPERINGS = {
    "far-column": ("point_0001.txt", lambda ls: _shifted(ls, -1, 3, 1e-6, " "),
                   "point_0001.txt: far-field column mismatch"),
    "theta": ("point_0002.txt", lambda ls: _shifted(ls, 6, 1, 1e-6, " "),
              "point_0002.txt: far-field theta inconsistent with R"),
    "h_p": ("point_0003.txt", _flat_hp, "point_0003.txt: h_p <= 0"),
    **_DIR_TAMPERINGS,
}


def _tampered(branch_dir, tmp_path, case):
    """A copy of branch_dir with the tampering `case` of _TAMPERINGS, and the
    start of the fault it must report, {dir} replaced by the copy's path."""
    name, tamper, expected = _TAMPERINGS[case]
    bad_dir = tmp_path / "tampered"
    shutil.copytree(branch_dir, bad_dir)
    if tamper is None:
        (bad_dir / name).unlink()
    else:
        lines = (bad_dir / name).read_text().splitlines()
        tamper(lines)
        (bad_dir / name).write_text("\n".join(lines) + "\n")
    return bad_dir, expected.format(dir=bad_dir)


class TestContinueAndVerify:
    def test_truncation_is_L_factor_far_field_depths(self, tmp_path):
        assert main([*_CONTINUE, "--steps", "1", "--L-factor", "12", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "config.json").read_text())["L_factor"] == 12.0
        spec = VorticitySpec([0.0])
        d = stream.depth(spec, stream.solve_theta_for_R(spec, 1.52, "supercritical"))
        for name in ("point_0000.txt", "point_0001.txt"):
            assert strip.read_checkpoint(str(tmp_path / name))[0].grid.L == 12.0 * d

    def test_outputs_exist(self, branch_dir):
        names = sorted(os.listdir(branch_dir))
        assert "branch.csv" in names and "config.json" in names
        assert "point_0000.txt" in names and "point_0004.txt" in names

    def test_branch_csv_schema(self, branch_dir):
        lines = (branch_dir / "branch.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["t", "R", "xi0", "mu0", "mu1", "nu0"]
        assert len(lines) == 6  # start + 4 accepted
        Rs = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(np.diff(Rs) > 0)

    def test_deterministic_rerun_byte_identical(self, branch_dir, tmp_path, capsys):
        out2 = tmp_path / "rerun"
        code = main([*_CONTINUE, "--out", str(out2)])
        assert code == 0
        assert (branch_dir / "branch.csv").read_bytes() == (out2 / "branch.csv").read_bytes()
        assert (branch_dir / "point_0003.txt").read_bytes() == (out2 / "point_0003.txt").read_bytes()

    def test_verify_passes_on_fresh_run(self, branch_dir, capsys):
        code, out, _ = run(capsys, "verify", "--dir", str(branch_dir))
        assert code == 0
        assert "verified" in out

    def test_verify_writes_nothing(self, branch_dir, capsys):
        def listing():
            return {e.name: e.stat().st_mtime_ns for e in os.scandir(branch_dir)}

        before, dir_mtime = listing(), os.stat(branch_dir).st_mtime_ns
        code, _, _ = run(capsys, "verify", "--dir", str(branch_dir))
        assert code == 0
        assert listing() == before
        assert os.stat(branch_dir).st_mtime_ns == dir_mtime

    def test_verify_catches_tampering(self, branch_dir, tmp_path, capsys):
        import shutil

        bad_dir = tmp_path / "tampered"
        shutil.copytree(branch_dir, bad_dir)
        path = bad_dir / "point_0001.txt"
        lines = path.read_text().splitlines()
        row = lines[8].split()
        row[3] = repr(float(row[3]) + 1e-6)
        lines[8] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", "--dir", str(bad_dir))
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("case", sorted(_TAMPERINGS))
    def test_verify_reports_each_failure(self, branch_dir, tmp_path, capsys, case):
        bad_dir, expected = _tampered(branch_dir, tmp_path, case)
        code, out, _ = run(capsys, "verify", "--dir", str(bad_dir))
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith(f"FAIL {expected}"), out

    @pytest.mark.parametrize("case", sorted(_DIR_TAMPERINGS))
    def test_pairs_reports_each_fault_verify_reports(self, branch_dir, tmp_path, capsys, case):
        bad_dir, expected = _tampered(branch_dir, tmp_path, case)
        code, out, err = run(capsys, "pairs", "--branch", str(bad_dir))
        assert code == 1 and out == ""
        assert err.startswith(f"error (CheckpointFormatError): {bad_dir}: {expected}"), err
        assert not (bad_dir / cli.PAIRS_JSON).exists()

    @pytest.mark.parametrize("command", ["pairs", "verify"])
    @pytest.mark.parametrize("kind", ["missing", "empty"])
    def test_directory_without_checkpoints_is_a_usage_error(self, tmp_path, capsys,
                                                            command, kind):
        where = tmp_path / "run"
        if kind == "empty":
            where.mkdir()
        flag = {"pairs": "--branch", "verify": "--dir"}[command]
        code, out, err = run(capsys, command, flag, str(where))
        assert code == 2 and out == ""
        assert err == f"usage error: no checkpoints found in {where}\n"

    @pytest.mark.parametrize("n_r", ["0", "-1"])
    def test_pairs_needs_one_R_value_per_side(self, branch_dir, tmp_path, capsys, n_r):
        out = tmp_path / "pairs.json"
        code, _, err = run(capsys, "pairs", "--branch", str(branch_dir), "--n-r", n_r,
                           "--out", str(out))
        assert code == 2
        assert f"argument --n-r: must be at least 1, got {n_r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("error", [BranchStallError, NumericalError],
                             ids=lambda e: e.__name__)
    def test_failed_continue_keeps_its_points(
        self, branch_dir, tmp_path, capsys, monkeypatch, error
    ):
        real = branch.continue_branch

        def fails_after_two_steps(start, spec, steps, ds, **kwargs):
            points, _ = real(start, spec, 2, ds, **kwargs)
            exc = error("injected failure")
            exc.partial_points = points
            raise exc

        monkeypatch.setattr(branch, "continue_branch", fails_after_two_steps)
        out = tmp_path / "failed"
        code, _, err = run(capsys, *_CONTINUE, "--out", str(out))
        assert code == 1
        assert f"({error.__name__}): injected failure" in err
        names = cli._point_names(str(out))
        assert names == [cli.POINT_NAME.format(i) for i in range(3)]
        # the points a completed run of the same settings writes first
        for name in names + ["config.json"]:
            assert (out / name).read_bytes() == (branch_dir / name).read_bytes()
        rows = (branch_dir / cli.BRANCH_CSV).read_text().splitlines()[:4]
        assert (out / cli.BRANCH_CSV).read_text().splitlines() == rows
        code, text, _ = run(capsys, "verify", "--dir", str(out))
        assert code == 0
        assert "verified 3 checkpoints" in text

    def test_rerun_into_a_used_directory_holds_one_run(self, branch_dir, tmp_path, capsys):
        # a shorter continue into a directory holding a longer run and its
        # pairs leaves neither the extra checkpoints nor the stale pairs.json
        out = tmp_path / "reused"
        shutil.copytree(branch_dir, out)
        code, _, _ = run(capsys, "pairs", "--branch", str(out))
        assert code == 0 and (out / cli.PAIRS_JSON).exists()
        shorter = list(_CONTINUE)
        shorter[shorter.index("--steps") + 1] = "2"
        code, _, _ = run(capsys, *shorter, "--out", str(out))
        assert code == 0
        assert cli._point_names(str(out)) == [cli.POINT_NAME.format(i) for i in range(3)]
        assert not (out / cli.POINT_NAME.format(3)).exists()
        assert not (out / cli.PAIRS_JSON).exists()
        code, text, _ = run(capsys, "verify", "--dir", str(out))
        assert code == 0
        assert "verified 3 checkpoints" in text

    def test_verify_reports_unreadable_checkpoint(self, branch_dir, tmp_path, capsys):
        # the branch.csv check must not re-read the checkpoint that failed
        import shutil

        bad_dir = tmp_path / "garbage"
        shutil.copytree(branch_dir, bad_dir)
        (bad_dir / "point_0001.txt").write_text("not a checkpoint\n")
        code, out, err = run(capsys, "verify", "--dir", str(bad_dir))
        assert code == 1
        assert "FAIL point_0001.txt" in out
        for idx in (0, 2, 3, 4):
            assert f"point_{idx:04d}.txt: ok" in out
        assert err == ""

    def test_verify_audits_past_a_library_error(self, branch_dir, tmp_path, capsys):
        # a checkpoint on which a library check raises is its FAIL line, and
        # the other checkpoints and branch.csv are still audited
        bad_dir = tmp_path / "raises"
        shutil.copytree(branch_dir, bad_dir)
        # point 1: forward differences of h stay positive on row 3, but its
        # one-sided surface h_p turns negative
        lines = (bad_dir / "point_0001.txt").read_text().splitlines()
        row = lines[7 + 3].split()
        row[-2] = repr(float(row[-1]) - 1e-9)
        lines[7 + 3] = " ".join(row)
        (bad_dir / "point_0001.txt").write_text("\n".join(lines) + "\n")
        # point 2: a far-field theta below theta0, where the stream is singular
        lines = (bad_dir / "point_0002.txt").read_text().splitlines()
        lines[6] = "theta -1.0"
        (bad_dir / "point_0002.txt").write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", "--dir", str(bad_dir))
        assert code == 1 and err == ""
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 2, out
        assert fails[0].startswith("FAIL point_0001.txt: one-sided surface h_p <= 0")
        assert fails[1].startswith("FAIL point_0002.txt: ")
        for idx in (0, 3, 4):
            assert f"point_{idx:04d}.txt: ok" in out

    def test_verify_reports_bad_grid_and_non_finite_checkpoints(
        self, branch_dir, tmp_path, capsys
    ):
        # a grid below the minimum and a non-finite L are checkpoint format
        # errors (FAIL, exit 1), not configuration errors (exit 2)
        import shutil

        bad_dir = tmp_path / "bad"
        shutil.copytree(branch_dir, bad_dir)
        lines = (bad_dir / "point_0001.txt").read_text().splitlines()
        small = lines[:3] + ["nq 5", "np 5"] + lines[5:7] + [" ".join(["0.5"] * 5)] * 5
        (bad_dir / "point_0001.txt").write_text("\n".join(small) + "\n")
        lines = (bad_dir / "point_0002.txt").read_text().splitlines()
        lines[2] = "L nan"
        (bad_dir / "point_0002.txt").write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", "--dir", str(bad_dir))
        assert code == 1
        assert "FAIL point_0001.txt" in out and "bad grid" in out
        assert "FAIL point_0002.txt" in out and "non-finite" in out
        assert err == ""

    def test_pairs_command_on_monotone_branch(self, branch_dir, capsys):
        code, out, _ = run(capsys, "pairs", "--branch", str(branch_dir))
        assert code == 0
        payload = json.loads((branch_dir / "pairs.json").read_text())
        assert payload["pairs"] == []  # monotone run: no fold, no pairs

    def test_pairs_needs_three_points(self, branch_dir, tmp_path, capsys):
        import shutil

        short = tmp_path / "short"
        shutil.copytree(branch_dir, short)
        lines = (short / "branch.csv").read_text().splitlines()
        (short / "branch.csv").write_text("\n".join(lines[:3]) + "\n")
        for idx in (2, 3, 4):
            (short / cli.POINT_NAME.format(idx)).unlink()
        code, _, err = run(capsys, "pairs", "--branch", str(short))
        assert code == 1
        assert "PreconditionError" in err and "at least 3" in err

    def test_ls_reduce_reports_no_crossing(self, branch_dir, tmp_path, capsys):
        code, out, err = run(
            capsys, "ls-reduce",
            "--checkpoint-a", str(branch_dir / "point_0001.txt"),
            "--checkpoint-b", str(branch_dir / "point_0003.txt"),
            "--out", str(tmp_path / "ls.json"),
            "--nu0-grid-n", "128",
        )
        assert code == 1  # precondition: no mu1 sign change at desk scale
        payload = json.loads((tmp_path / "ls.json").read_text())
        assert payload["crossing_bracketed"] is False

    @pytest.mark.parametrize("line, fault", [
        ("omega 1.0 -2.0", "vorticity [1.0, -2.0] differs from {a}'s [0.0]"),
        ("L 1.0", "grid StripGrid(L=1.0, nq=61, np=11) differs from {a}'s StripGrid(L="),
    ], ids=["vorticity", "grid"])
    def test_ls_reduce_needs_one_run(self, branch_dir, tmp_path, capsys, monkeypatch,
                                     line, fault):
        # two checkpoints of another vorticity or grid are rejected before
        # any spectrum is computed
        a, b = branch_dir / "point_0001.txt", tmp_path / "point_0003.txt"
        lines = (branch_dir / "point_0003.txt").read_text().splitlines()
        lines[1 if line.startswith("omega") else 2] = line
        b.write_text("\n".join(lines) + "\n")

        def spectrum_at(*args, **kwargs):
            raise AssertionError("spectrum_at called")

        monkeypatch.setattr(branch, "spectrum_at", spectrum_at)
        code, out, err = run(capsys, "ls-reduce", "--checkpoint-a", str(a), "--checkpoint-b",
                             str(b), "--out", str(tmp_path / "ls.json"))
        assert code == 1 and out == ""
        assert err.startswith(f"error (CheckpointFormatError): {fault.format(a=a)}"), err
        assert not (tmp_path / "ls.json").exists()


# (mu1, nu0) of the two points of a candidate bracket, and whether they
# bracket a crossing of mu1
_CROSSING_ROWS = {
    "opposite-signs": ((-0.5, 1.0), (0.5, 1.0), True),
    "opposite-signs-falling": ((0.3, 1.0), (-0.2, 1.0), True),
    "same-sign-positive": ((0.2, 1.0), (0.5, 1.0), False),
    "same-sign-negative": ((-0.2, 1.0), (-0.5, 1.0), False),
    "sentinel": ((-0.5, 1.0), (1.0, 1.0), False),
    "just-below-the-edge": ((-0.5, 1.0), (1.0 - 1e-10, 1.0), False),
    "nan-mu1": ((-0.5, 1.0), (np.nan, 1.0), False),
    "nan-point": ((np.nan, np.nan), (0.5, 1.0), False),
    "zero-after-positive": ((0.5, 1.0), (0.0, 1.0), False),
    "zero-after-negative": ((-0.5, 1.0), (0.0, 1.0), False),
    "zero-first": ((0.0, 1.0), (0.5, 1.0), False),
}


class _PastPreconditions(Exception):
    pass


def _ls_reduce(capsys, monkeypatch, pts, spec, tmp_path, spectral=None):
    """Run ls-reduce on the checkpoints of the points pts, with a
    switch_branch that records the bracket it is handed; spectral, when
    given, is the (mu1, nu0) each checkpoint reads in place of its spectrum.
    Returns (exit code, payload, brackets handed to switch_branch)."""
    paths = []
    for k, p in enumerate(pts):
        paths.append(str(tmp_path / f"point_{k}.txt"))
        strip.write_checkpoint(paths[-1], p.field, spec)
    if spectral is not None:
        rows = list(spectral)

        def tagged(field, spec, nu0_grid_n=1024):
            mu1, nu0 = rows.pop(0)
            return branch.BranchPoint(field=field, t=0.0, R=field.R, mu0=-1.0, mu1=mu1, nu0=nu0)

        monkeypatch.setattr(branch, "branch_point_from_field", tagged)
    handed = []

    def switch(bracket, spec, nu0_grid_n):
        handed.append(bracket)
        raise NoSecondaryBranchError("recorded")

    monkeypatch.setattr(ly, "switch_branch", switch)
    code, _, _ = run(capsys, "ls-reduce", "--checkpoint-a", paths[0], "--checkpoint-b", paths[1],
                     "--out", str(tmp_path / "ls.json"), "--nu0-grid-n", "128")
    return code, json.loads((tmp_path / "ls.json").read_text()), handed


class TestCrossingRule:
    """branch.crossing_bracket is the one rule for a crossing of mu1: the
    monitor's events, switch_branch and ls-reduce all read it."""

    @pytest.mark.parametrize("row", list(_CROSSING_ROWS))
    def test_every_reader_agrees(self, row, mini_branch, irrot, capsys, monkeypatch, tmp_path):
        (mu1_a, nu0_a), (mu1_b, nu0_b), want = _CROSSING_ROWS[row]
        a = dataclasses.replace(mini_branch[2], mu1=mu1_a, nu0=nu0_a)
        b = dataclasses.replace(mini_branch[3], mu1=mu1_b, nu0=nu0_b)
        assert branch.crossing_bracket(a, b) is want

        # a two-sample trace, padded with a point without spectrum
        trace = [
            branch.BranchPoint(field=None, t=t, R=1.5 + t, mu0=None, mu1=m, nu0=n)
            for t, m, n in ((0.0, mu1_a, nu0_a), (1.0, mu1_b, nu0_b), (2.0, np.nan, np.nan))
        ]
        crossings = [e for e in branch.detect_events(trace) if isinstance(e, branch.EigenCrossing)]
        assert len(crossings) == int(want)

        # switch_branch refines t* by brentq once its preconditions hold
        def past(*args, **kwargs):
            raise _PastPreconditions

        monkeypatch.setattr(ly, "brentq", past)
        with pytest.raises(_PastPreconditions if want else PreconditionError):
            ly.switch_branch((a, b), irrot, 256)

        code, payload, handed = _ls_reduce(
            capsys, monkeypatch, [a, b], irrot, tmp_path, [(mu1_a, nu0_a), (mu1_b, nu0_b)]
        )
        assert payload["crossing_bracketed"] is want
        assert (code, len(handed)) == ((0, 1) if want else (1, 0))

    def test_exact_zero_sample_between_a_bracket(self):
        # the sample on the crossing is the event; with its neighbours at
        # one distance from it, no crossing order can be estimated
        trace = [
            branch.BranchPoint(field=None, t=t, R=1.5 + t, mu0=None, mu1=m, nu0=1.0)
            for t, m in ((0.0, -0.5), (1.0, 0.0), (2.0, 0.5))
        ]
        (crossing,) = [e for e in branch.detect_events(trace)
                       if isinstance(e, branch.EigenCrossing)]
        assert (crossing.t, crossing.m_estimate) == (1.0, None)
        assert crossing.bracket == (trace[0], trace[2])

    def test_ls_reduce_refines_on_its_edge_grid(self, mini_branch, irrot, capsys,
                                                monkeypatch, tmp_path):
        # the bracket's end points and the Brent iterates of switch_branch
        # read mu1 against nu0 on the one grid of --nu0-grid-n
        monkeypatch.setattr(branch, "crossing_bracket", lambda a, b: True)
        grids, real_spectrum = [], branch.spectrum_at

        def spectrum_at(field, spec, nu0_grid_n=1024, sigma=None):
            grids.append(nu0_grid_n)
            return real_spectrum(field, spec, nu0_grid_n, sigma)

        def brentq(f, a, b, **kwargs):
            f(0.5 * (a + b))
            raise NoSecondaryBranchError("one Brent iterate taken")

        monkeypatch.setattr(branch, "spectrum_at", spectrum_at)
        monkeypatch.setattr(ly, "brentq", brentq)
        paths = []
        for k, p in enumerate((mini_branch[1], mini_branch[3])):
            paths.append(str(tmp_path / f"point_{k}.txt"))
            strip.write_checkpoint(paths[-1], p.field, irrot)
        code, _, _ = run(capsys, "ls-reduce", "--checkpoint-a", paths[0], "--checkpoint-b",
                         paths[1], "--out", str(tmp_path / "ls.json"), "--nu0-grid-n", "128")
        assert code == 0
        assert json.loads((tmp_path / "ls.json").read_text())["switched"] is False
        assert grids == [128, 128, 128]

    def test_ls_reduce_bracket_lands_on_its_second_point(
        self, mini_branch, irrot, capsys, monkeypatch, tmp_path
    ):
        # switch_branch walks from a along the unit secant in the weighted
        # norm, so b must lie at a.t + that secant's length
        monkeypatch.setattr(branch, "crossing_bracket", lambda a, b: True)
        code, _, handed = _ls_reduce(
            capsys, monkeypatch, [mini_branch[1], mini_branch[3]], irrot, tmp_path
        )
        assert code == 0
        ((pa, pb),) = handed
        landed = branch.point_at_arclength(pa, irrot, pb.t)
        assert abs(landed.R - pb.R) <= 1e-12
        assert np.abs(landed.field.h - pb.field.h).max() <= 1e-12


_HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.sparse")


def _modules_loaded_by(code: str, prefixes: tuple = _HEAVY) -> list:
    """Names of the modules under the given prefixes (by default scipy.optimize,
    scipy.integrate, scipy.interpolate and scipy.sparse) that a fresh
    interpreter has loaded after running code.  A prefix that ends in a dot,
    such as "numpy.ma.", names a package and its submodules only."""
    code += f"""
print(json.dumps(sorted(m for m in sys.modules if (m + ".").startswith({prefixes!r}))))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


# scipy.linalg's package, whose array-API set-up loads numpy.ma among others
_LINALG = _HEAVY + ("scipy.linalg", "scipy._lib._array_api", "numpy.ma.")


def test_solve_path_imports_no_heavy_scipy_subpackage():
    # a fresh interpreter solving at fixed R, as `wavebranch solve` does, and
    # reporting the critical stream loads numpy and scipy's LAPACK extension
    # only: not the scipy package itself, nor the monitor's concurrent.futures
    loaded = _modules_loaded_by("""
import json, sys
from wavebranch.cli import main
for omega, R in (("0", "1.53"), ("-0.5", "1.81")):
    assert main(["solve", "--omega", omega, "--R", R, "--nq", "121", "--np", "17"]) == 0
assert main(["critical", "--omega", "1", "-2"]) == 0
assert "scipy" not in sys.modules and "concurrent.futures" not in sys.modules
""", _LINALG)
    assert loaded == ["scipy.linalg._flapack"]


def test_model_bifurcation_imports_no_heavy_scipy_subpackage():
    # the reduction solves on the band factor of the continuation, so the
    # model gallery loads numpy and scipy's LAPACK extension only
    loaded = _modules_loaded_by("""
import json, sys
from wavebranch.cli import main
assert main(["model-bifurcate", "--case", "pitchfork"]) == 0
""", _LINALG)
    assert loaded == ["scipy.linalg._flapack"]


_ARPACKLIB = "scipy.sparse.linalg._eigen.arpack._arpacklib"


def test_edge_and_continuation_import_no_integrate_or_optimize(tmp_path):
    # the Robin edge nu0 comes from the stream kernel and LAPACK's dstebz and
    # dstein, so `spectrum1d` loads scipy's LAPACK extension only; a
    # continuation run and ls-reduce (which compute nu0 and the ARPACK
    # spectrum at every point) add scipy's ARPACK extension, and no package
    # of scipy's: not scipy.integrate, scipy.optimize, scipy.linalg or
    # scipy.sparse.linalg
    loaded = _modules_loaded_by("""
import json, sys
from wavebranch.cli import main
assert main(["spectrum1d", "--omega", "1", "2", "3", "--R", "6.0", "--nu0-grid-n", "128"]) == 0
assert "scipy" not in sys.modules
""", _LINALG)
    assert loaded == ["scipy.linalg._flapack"]
    out = str(tmp_path)
    loaded = _modules_loaded_by(f"""
import json, os, sys
from wavebranch.cli import main
assert main(["continue", "--omega", "0", "--R-start", "1.52", "--steps", "2", "--ds", "0.004",
             "--nq", "61", "--np", "11", "--nu0-grid-n", "128", "--out", {out!r}]) == 0
# the two points bracket no crossing: ls-reduce reports their spectra, exit 1
assert main(["ls-reduce", "--checkpoint-a", os.path.join({out!r}, "point_0000.txt"),
             "--checkpoint-b", os.path.join({out!r}, "point_0002.txt"), "--nu0-grid-n", "128",
             "--out", os.path.join({out!r}, "ls.json")]) == 1
assert "scipy" not in sys.modules
""", _LINALG)
    assert loaded == ["scipy.linalg._flapack", _ARPACKLIB]


@pytest.fixture(scope="module")
def fold_dir(fold_branch, irrot, tmp_path_factory):
    """The fold_branch run, which holds a Turning, as a branch directory."""
    points, _ = fold_branch
    out = tmp_path_factory.mktemp("fold_run")
    for idx, p in enumerate(points):
        strip.write_checkpoint(str(out / cli.POINT_NAME.format(idx)), p.field, irrot)
    (out / cli.BRANCH_CSV).write_text("\n".join(cli._branch_csv_lines(points)) + "\n")
    return out


def test_pairs_and_verify_import_no_heavy_scipy_subpackage(fold_dir, tmp_path):
    # the Turning's spline, the pair inversion and the audit's replay on the
    # band LU run on numpy and scipy's LAPACK extension only, not on
    # scipy.linalg's package
    loaded = _modules_loaded_by(f"""
import json, sys
from wavebranch.cli import main
assert main(["pairs", "--branch", {str(fold_dir)!r}, "--n-r", "1",
             "--out", {str(tmp_path / "pairs.json")!r}]) == 0
assert main(["verify", "--dir", {str(fold_dir)!r}]) == 0
assert "scipy" not in sys.modules
""", _LINALG)
    assert loaded == ["scipy.linalg._flapack"]
    assert json.loads((tmp_path / "pairs.json").read_text())["events"][0]["kind"] == "Turning"


def _script(name: str):
    """The module scripts/<name>.py, loaded from its file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "scripts", name + ".py")
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_fold_script_is_the_library_path(fold_branch, tmp_path, capsys):
    # scripts/run_fold_pairs.py at its defaults writes, through `continue` and
    # `pairs`, the checkpoints the library calls of the fold_branch fixture give
    assert _script("run_fold_pairs").main(["--out", str(tmp_path)]) == 0

    points, _ = fold_branch
    for idx, p in enumerate(points):
        fld, _ = strip.read_checkpoint(str(tmp_path / cli.POINT_NAME.format(idx)))
        assert fld.h.tobytes() == p.field.h.tobytes()
        assert (fld.R, fld.theta) == (p.field.R, p.field.theta)
    assert not (tmp_path / cli.POINT_NAME.format(len(points))).exists()

    payload = json.loads((tmp_path / cli.PAIRS_JSON).read_text())
    assert set(payload) == {"events", "pairs"}
    assert [set(e) for e in payload["events"]] == [{"kind", "t", "R"}]
    assert payload["events"][0]["kind"] == "Turning"
    assert all(set(p) == {"t1", "t2", "R", "distance"} for p in payload["pairs"])
    assert sum(p["distance"] > 1e-9 for p in payload["pairs"]) >= 4
    assert f"R* = {payload['events'][0]['R']:.7f}" in capsys.readouterr().out


def test_model_gallery_script(capsys):
    _script("run_model_gallery").main([])
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if not ln.startswith(" ")] == [
        "pitchfork: m = 1, certified = True, curve pairs = 1",
        "cubic: m = 3, certified = True, curve pairs = 1",
        "vertical: m = None, certified = False, curve pairs = 1",
        "even: m = 2, certified = False, curve pairs = 2",
    ]
    # the pitchfork branch lambda = s^2 - s^4 at the outermost column s = 0.3
    assert lines[1] == f"  side +1: regular, lambda(+0.30) = {0.3**2 - 0.3**4:+.4f}"



_PARENT = [1.0 + 0.01 * i for i in range(10)]  # quartiles 1.0225, 1.045, 1.0675
_WIDE = [1.0, 2.0] * 5  # interquartile range 1.0, above 0.25 x its median 1.5


def _moved(runs, delta, lost=0):
    """runs moved by delta, the first `lost` of them by -delta / 20 instead,
    so that they lose their pair."""
    return [r - delta / 20 if i < lost else r + delta for i, r in enumerate(runs)]


# (parent runs, change runs, better, failed ops (parent, change), mark, wins)
_VERDICTS = {
    "gain": (_PARENT, _moved(_PARENT, -0.2), "lower", (0, 0), "GAIN", 10),
    "gain-9-of-10": (_PARENT, _moved(_PARENT, -0.2, lost=1), "lower", (0, 0), "GAIN", 9),
    "8-of-10": (_PARENT, _moved(_PARENT, -0.2, lost=2), "lower", (0, 0), "-", 8),
    "9-pairs": (_PARENT[:9], _moved(_PARENT, -0.2)[:9], "lower", (0, 0), "-", 9),
    "gap-within-iqr": (_PARENT, _moved(_PARENT, -0.03), "lower", (0, 0), "-", 10),
    "more-failed-ops": (_PARENT, _moved(_PARENT, -0.2), "lower", (0, 1), "-", 10),
    "regression": (_PARENT, _moved(_PARENT, 0.3), "lower", (0, 0), "REGRESSION", 0),
    "within-bound": (_PARENT, _moved(_PARENT, 0.2), "lower", (0, 0), "-", 0),
    "unresolved": (_WIDE, [1.1, 1.9] * 5, "lower", (0, 0), "UNRESOLVED", 5),
    "wide-but-separated": (_WIDE, [0.1, 0.2] * 5, "lower", (0, 0), "GAIN", 10),
    "higher-gain": (_PARENT, _moved(_PARENT, 0.3), "higher", (0, 0), "GAIN", 10),
    "higher-regression": (_PARENT, _moved(_PARENT, -0.3), "higher", (0, 0), "REGRESSION", 0),
}


@pytest.mark.parametrize("case", sorted(_VERDICTS))
def test_bench_pair_verdict(case):
    # the mark scripts/bench_pair.py gives one end-to-end metric (bound 0.25)
    parent, change, better, failed, mark, wins = _VERDICTS[case]
    result = _script("bench_pair").verdict(parent, change, better, 0.25, failed)
    assert (result["mark"], result["wins"], result["pairs"]) == (mark, wins, len(parent))


def test_bench_pair_records_the_parent_as_its_short_hash(tmp_path, monkeypatch):
    # `--parent HEAD` is stored as the commit HEAD named, which outlives HEAD
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "c"], check=True)
    want = subprocess.run([*git, "rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert re.fullmatch(r"[0-9a-f]{4,}", want)
    bench_pair = _script("bench_pair")
    monkeypatch.setattr(bench_pair, "ROOT", str(tmp_path))
    assert bench_pair.short_hash("HEAD") == want


def test_bench_pair_exports_the_working_tree_as_it_is(tmp_path, monkeypatch):
    # the change side of an A/B starts from a fresh copy of the working tree,
    # as the parent starts from a fresh export of its commit
    repo, dest = tmp_path / "repo", tmp_path / "export"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("y = 1\n")
    (repo / ".gitignore").write_text("out/\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "c"], check=True)
    (repo / "pkg" / "mod.py").write_text("x = 2\n")
    (repo / "gone.py").unlink()
    (repo / "new.py").write_text("z = 1\n")
    (repo / "out").mkdir()
    (repo / "out" / "ignored.txt").write_text("ignored\n")
    dest.mkdir()
    bench_pair = _script("bench_pair")
    monkeypatch.setattr(bench_pair, "ROOT", str(repo))
    bench_pair.export_worktree(str(dest))
    files = {str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file()}
    assert files == {".gitignore", os.path.join("pkg", "mod.py"), "new.py"}
    assert (dest / "pkg" / "mod.py").read_text() == "x = 2\n"


def test_same_outputs_names_each_differing_file(tmp_path, capsys):
    # the comparison of scripts/same_outputs.py, on two small trees
    same_outputs = _script("same_outputs")
    for side in ("a", "b"):
        (tmp_path / side / "run").mkdir(parents=True)
        (tmp_path / side / "run" / "point_0000.txt").write_bytes(b"1.0\n2.0\n")
        (tmp_path / side / "solve.stdout").write_text("iterations 3\n")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert same_outputs.report(a, b, "parent") == 0
    assert capsys.readouterr().out == "0 of 2 files differ from parent\n"

    (tmp_path / "b" / "run" / "point_0000.txt").write_bytes(b"1.0\n2.1\n")
    assert same_outputs.report(a, b, "parent") == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"differs: {os.path.join('run', 'point_0000.txt')}  max |diff| 0.1",
                   "1 of 2 files differ from parent"]

    # numbers that do not pair up get no difference
    (tmp_path / "b" / "solve.stdout").write_text("iterations 3\nchord_steps 7\n")
    assert same_outputs.report(a, b, "parent") == 1
    assert capsys.readouterr().out.splitlines()[1] == "differs: solve.stdout"
    (tmp_path / "a" / "solve.stdout").write_text('{"iterations": 4, "x": [nan, 2e-3]}\n')
    (tmp_path / "b" / "solve.stdout").write_text('{"iterations": 3, "x": [nan, 1e-3]}\n')
    assert same_outputs.max_abs_difference(str(tmp_path / "a" / "solve.stdout"),
                                           str(tmp_path / "b" / "solve.stdout")) == 1.0
    for side in ("a", "b"):
        (tmp_path / side / "solve.stdout").write_text("iterations 3\n")

    (tmp_path / "a" / "extra.json").write_text("{}\n")
    assert same_outputs.differing_files(a, b) == ["extra.json", os.path.join("run", "point_0000.txt")]
