import inspect
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscosplit.cli import (CSV_HEADER, _parser, _sample_points, main,
                            parse_config)
from viscosplit.problems import catalog, make_inclusion_instance
from viscosplit.solvers import ALGORITHMS, check_run_arguments


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def box_cell(cell_id="box-main", **extra):
    cell = {"id": cell_id, "algorithm": "main", "instance": "inclusion_box",
            "instance.dim": 1}
    cell.update(extra)
    return cell


class TestParseConfig:
    def test_minimal_config(self):
        cells = parse_config(json.dumps({"cells": [box_cell()]}))
        assert len(cells) == 1
        assert cells[0].algorithm == "main"
        assert cells[0].problem.dim == 1

    def test_rejects_bad_json(self):
        from viscosplit.cli import ConfigError
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_rejects_duplicate_ids(self):
        from viscosplit.cli import ConfigError
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"cells": [box_cell(), box_cell()]}))

    def test_rejects_unknown_cell_key(self):
        from viscosplit.cli import ConfigError
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"cells": [box_cell(typo=1)]}))

    def test_schedule_override(self):
        cells = parse_config(json.dumps({"cells": [box_cell(**{
            "schedule.mu_bar": 0.5,
            "schedule.lam": {"kind": "constant", "scale": 0.25}})]}))
        assert cells[0].schedule.mu_bar == 0.5
        assert cells[0].schedule.lam(3) == 0.25
        assert cells[0].schedule.interval == (0.25, 0.25)

    def test_inadmissible_schedule_named_in_error(self):
        from viscosplit.cli import ConfigError
        bad = {"cells": [box_cell(**{
            "schedule.gamma": {"kind": "approaching_one"}})]}
        with pytest.raises(ConfigError, match=r"liminf \(1 - gamma_n\)"):
            parse_config(json.dumps(bad))

    def test_schedule_error_names_cell_and_every_condition(self):
        from viscosplit.cli import ConfigError
        bad = {"cells": [box_cell(**{
            "schedule.gamma": {"kind": "approaching_one"},
            "schedule.mu": {"kind": "constant", "scale": 0.99}})]}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        message = str(exc.value)
        assert message.startswith("cell 'box-main': schedule rejected: ")
        assert "liminf (1 - gamma_n) gamma_n > 0" in message
        assert "mu_n <= mu_bar" in message

    def test_psi0_dimension_checked(self):
        from viscosplit.cli import ConfigError
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(json.dumps({"cells": [box_cell(psi0=[1.0, 2.0])]}))


class TestRunCommand:
    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"cells": [box_cell()]})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        csv_text = (out / "box-main.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) > 2
        first = lines[1].split(",")
        assert first[0] == "0"
        summary = json.loads((out / "box-main.json").read_text())
        assert summary["terminated_by"] == "tolerance"
        assert summary["fejer_violations"] == 0
        assert summary["cell"] == "box-main"
        assert "tolerance" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"cells": [
            box_cell(),
            {"id": "ball-fc", "algorithm": "fc", "instance": "inclusion_ball"},
        ]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out1)]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        for name in ("box-main.csv", "box-main.json",
                     "ball-fc.csv", "ball-fc.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_non_converged_cell_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, {"cells": [
            box_cell(max_iter=3)]})
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"cells": [
            {"id": "x", "algorithm": "newton", "instance": "inclusion_box"}]})
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_three(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["run", missing, "--out", str(tmp_path / "o")]) == 3

    def test_seed_recorded_in_summary(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 7, "cells": [box_cell()]})
        out = tmp_path / "out"
        main(["run", cfg, "--out", str(out)])
        assert json.loads((out / "box-main.json").read_text())["seed"] == 7

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        # One parser serves every call; an option given to one call is not
        # a default for the next.
        assert _parser() is _parser()
        cfg = write_config(tmp_path, {"seed": 7, "cells": [box_cell()]})
        summary = tmp_path / "out" / "box-main.json"
        main(["run", cfg, "--out", str(tmp_path / "out"), "--seed", "5"])
        assert json.loads(summary.read_text())["seed"] == 5
        main(["run", cfg, "--out", str(tmp_path / "out")])
        assert json.loads(summary.read_text())["seed"] == 7

    @pytest.mark.parametrize("extra", [
        {"tol": 0.0}, {"tol": -1e-3}, {"max_iter": -1}, {"max_iter": 2.5},
        {"record_stride": 0}, {"record_stride": 1.0},
        {"algorithm": "secant"}, {"sow_use_phi": True}], ids=json.dumps)
    def test_run_arguments_are_checked_by_the_solver_rule(
            self, tmp_path, capsys, extra):
        # The CLI reports the error the solver's own rule raises.
        args = {"tol": 1e-8, "max_iter": 100_000, "record_stride": None}
        args.update(extra)
        with pytest.raises(ValueError) as exc:
            check_run_arguments(**args)
        cfg = write_config(tmp_path, {"cells": [box_cell(**extra)]})
        assert main(["validate", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {exc.value}\n"


class TestCheckCommand:
    def test_check_box_instance_passes(self, capsys):
        assert main(["check", "inclusion_box"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("instance_id", ["inclusion_ball",
                                             "trivial_collapse",
                                             "sine_oscillation"])
    def test_check_all_catalog_instances(self, instance_id):
        assert main(["check", instance_id]) == 0

    def test_check_unknown_instance_exits_two(self, capsys):
        assert main(["check", "mystery"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_sample_points_equal_one_draw_per_point(self, dim):
        # One (count, dim) draw gives the numbers count draws of dim give,
        # in the same order, and leaves the generator in the same state.
        rng = np.random.default_rng(11)
        drawn = _sample_points(rng, dim, 40)
        ref = np.random.default_rng(11)
        expected = [5.0 * (2.0 * ref.random(dim) - 1.0) for _ in range(40)]
        assert len(drawn) == 40
        for got, want in zip(drawn, expected):
            assert got.shape == (dim,) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        assert rng.random() == ref.random()

    def test_check_is_seed_stable(self, capsys):
        main(["check", "inclusion_box", "--seed", "3"])
        first = capsys.readouterr().out
        main(["check", "inclusion_box", "--seed", "3"])
        assert capsys.readouterr().out == first


class TestValidateCommand:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"cells": [box_cell()]})
        assert main(["validate", cfg]) == 0
        assert "1 cell(s) valid" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path):
        cfg = write_config(tmp_path, {"cells": [{"id": "x"}]})
        assert main(["validate", cfg]) == 2

    def test_validate_unknown_instance(self, tmp_path):
        cfg = write_config(tmp_path, {"cells": [
            {"id": "x", "algorithm": "main", "instance": "unknown"}]})
        assert main(["validate", cfg]) == 2


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        cfg = write_config(tmp_path, {"cells": [box_cell()]})
        proc = subprocess.run(
            [sys.executable, "-m", "viscosplit.cli", "validate", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "valid" in proc.stdout


@pytest.mark.parametrize("extra", [
    {"tol": "abc"},
    {"schedule.mu_bar": "x"},
    {"schedule.alpha": {"kind": "inverse", "scale": "q"}},
    {"schedule.interval": ["a", 1]},
    {"schedule.interval": [0.5, 0.1]},
    {"psi0": [float("inf")]},
    {"schedule.strict_paper": "false"},
    {"sow_use_phi": "false"},
    {"max_iter": True},
    {"instance.gamma": "x"},
    {"instance.gamma": None},
    {"instance.eta": []},
    {"instance.maps": []},
    {"instance.dim": 0},
    {"instance.selection": "bogus"},
    {"schedule.bogus": 1},
    {"schedule.mu_bar": 1.5},
    {"id": "a b"},
], ids=lambda extra: json.dumps(extra))
def test_mistyped_config_value_exits_two(tmp_path, capsys, extra):
    # json.dumps writes inf as Infinity; the config file carries 1e400,
    # which JSON parsing also turns into inf.
    text = json.dumps({"cells": [box_cell(**extra)]})
    cfg = tmp_path / "config.json"
    cfg.write_text(text.replace("Infinity", "1e400"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("payload", [
    [box_cell()],
    {"cells": [box_cell()], "bogus": 1},
    {"cells": []},
    {"cells": [[box_cell()]]},
], ids=["list-top-level", "unknown-top-level-key", "empty-cells",
        "cell-not-an-object"])
def test_malformed_config_shape_exits_two(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def _builder_parameters() -> list[str]:
    names = set(inspect.signature(make_inclusion_instance).parameters)
    for builder in catalog().values():
        names.update(inspect.signature(builder).parameters)
    return sorted(names - {"overrides"})


#: The documented keys a cell may carry besides id, algorithm, instance
#: and max_iter.
_DOCUMENTED_KEYS = (
    ["psi0", "tol", "sow_use_phi", "record_stride"]
    + [f"instance.{name}" for name in _builder_parameters()]
    + [f"schedule.{key}" for key in ("mu_bar", "strict_paper", "interval",
                                     "alpha", "theta", "beta", "gamma",
                                     "mu", "lam")])

# Small ints only, so that no instance.dim allocates a large array.
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats()
            | st.text(max_size=4)
            | st.sampled_from(["metric", "first_enumerated", "constant"]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_SPECS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["constant", "inverse", "inverse_square",
                              "approaching_one"]) | _JSON},
    optional={"scale": _JSON})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instance=st.sampled_from(sorted(catalog())),
       algorithm=st.sampled_from(ALGORITHMS),
       max_iter=st.integers(0, 30),
       overrides=st.dictionaries(st.sampled_from(_DOCUMENTED_KEYS),
                                 _JSON | _SPECS, min_size=1, max_size=2))
def test_any_config_value_ends_in_a_documented_exit_code(
        instance, algorithm, max_iter, overrides):
    cell = {"id": "c", "algorithm": algorithm, "instance": instance,
            "max_iter": max_iter, **overrides}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({"cells": [cell]}))
        assert main(["validate", str(cfg)]) in (0, 1, 2, 3)
        out = str(Path(tmp) / "out")
        assert main(["run", str(cfg), "--out", out]) in (0, 1, 2, 3)
