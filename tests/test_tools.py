"""The repository tools that gates and reports cite."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SYNTHETIC = '''"""Module docstring,
over two lines."""

# A whole-line comment.
import math  # a code line with a trailing comment


class Point:
    """Class docstring."""

    x: float = 0.0

    def norm(self):
        """Method docstring,

        with a blank line inside it."""
            # An indented whole-line comment.
        return math.hypot(self.x, 0.0)


def area(r):
    text = """a string that is not a docstring"""
    return math.pi * r * r
'''


def test_code_lines_counts_a_synthetic_module(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    # import, class, x, def norm, return, def area, text, return.
    assert load_tool("code_lines").code_lines(path) == 8


def test_code_lines_main_prints_a_total(capsys):
    assert load_tool("code_lines").main() == 0
    lines = capsys.readouterr().out.splitlines()
    count, name = lines[-1].split()
    assert name == "total" and int(count) > 0
    assert int(count) == sum(int(line.split()[0]) for line in lines[:-1])


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_rejects_fewer_than_two_pairs(pairs, monkeypatch):
    bench_pairs = load_tool("bench_pairs")
    exported = []
    monkeypatch.setattr(bench_pairs, "export",
                        lambda *args: exported.append(args))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["HEAD", "HEAD", "--workload", "long_haul",
                          "--pairs", pairs])
    assert exit_info.value.code == 2
    assert exported == []


def test_bench_pairs_json_records_every_run_in_alternation(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    bench_pairs = load_tool("bench_pairs")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: into)
    monkeypatch.setattr(bench_pairs, "commit", lambda rev: f"sha-of-{rev}")

    def fake_bench(tree, workload, seed, seconds):
        value = seed + (0.5 if tree.name == "change" else 0.0)
        return {"exit": 0, "env": {"tree": tree.name},
                "result": {"correct": True, "metrics": {
                    "us_per_iter": {"unit": "us", "value": value}}}}
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)

    out = tmp_path / "bench.json"
    pairs, workloads = 3, ["long_haul", "short_solves"]
    argv = ["BASE", "CHANGE", "--pairs", str(pairs), "--first-seed", "4",
            "--seconds", "2", "--json", str(out)]
    for workload in workloads:
        argv += ["--workload", workload]
    assert bench_pairs.main(argv) == 0
    assert "change lower in 0 of 3" in capsys.readouterr().out

    record = json.loads(out.read_text())
    assert record["command"] == ("python3 perfbench/run.py --workload "
                                 "<workload> --seed <seed> --seconds 2")
    assert record["base"] == {"revision": "BASE", "commit": "sha-of-BASE"}
    assert record["change"] == {"revision": "CHANGE",
                                "commit": "sha-of-CHANGE"}
    assert record["run_order"] == bench_pairs.RUN_ORDER
    runs = record["runs"]
    assert len(runs) == 2 * pairs * len(workloads)
    expected = []
    for workload in workloads:
        for k in range(pairs):
            order = ["base", "change"] if k % 2 == 0 else ["change", "base"]
            expected += [(workload, k, 4 + k, position, side)
                         for position, side in enumerate(order)]
    assert [(r["workload"], r["pair"], r["seed"], r["position"], r["side"])
            for r in runs] == expected
    for r in runs:
        assert r["revision"] == r["side"].upper()
        assert r["exit"] == 0 and r["env"] == {"tree": r["side"]}
        assert r["result"]["metrics"]["us_per_iter"]["value"] == (
            r["seed"] + (0.5 if r["side"] == "change" else 0.0))
