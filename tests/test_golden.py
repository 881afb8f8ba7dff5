"""Byte-identity gate: CLI output equals the files under ``tests/golden/``.

The files were written by ``viscosplit run demos/sample_config.json
--seed 0``, ``viscosplit check <id> --seed 0`` for each catalog instance
and ``viscosplit validate demos/sample_config.json``.  A change that
alters output on purpose regenerates them with those commands and says
why in CHANGES.md.
"""
from pathlib import Path

import pytest

from viscosplit.cli import main
from viscosplit.problems import catalog

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SAMPLE = str(ROOT / "demos" / "sample_config.json")


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode()


def test_sample_run_is_byte_identical(tmp_path, capsys):
    assert main(["run", SAMPLE, "--seed", "0", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == golden_text("run.stdout")
    expected = sorted(p.name for p in (GOLDEN / "run").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    assert len(expected) == 8
    for name in expected:
        assert ((tmp_path / name).read_bytes()
                == (GOLDEN / "run" / name).read_bytes()), name


@pytest.mark.parametrize("instance_id", sorted(catalog()))
def test_check_is_byte_identical(instance_id, capsys):
    assert main(["check", instance_id, "--seed", "0"]) == 0
    expected = golden_text(f"check_{instance_id}.stdout")
    assert capsys.readouterr().out == expected


def test_validate_is_byte_identical(capsys):
    assert main(["validate", SAMPLE]) == 0
    assert capsys.readouterr().out == golden_text("validate.stdout")
