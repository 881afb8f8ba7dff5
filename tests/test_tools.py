"""The repository tools that gates and reports cite, and the structural
checks that read the sources."""
import ast
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SOURCES = TOOLS.parent / "src" / "viscosplit"


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
    code_lines = load_tool("code_lines")
    # import, class, x, def norm, return, def area, text, return.
    assert code_lines.code_lines(path) == 8
    # Two module lines, one class line, three method lines.
    assert code_lines.doc_lines(path) == 6


def test_code_lines_main_prints_a_total(capsys):
    assert load_tool("code_lines").main() == 0
    header, *lines, last = capsys.readouterr().out.splitlines()
    assert header.split() == ["code", "doc", "module"]
    code, doc, name = last.split()
    assert name == "total" and int(code) > 0 and int(doc) > 0
    assert int(code) == sum(int(line.split()[0]) for line in lines)
    assert int(doc) == sum(int(line.split()[1]) for line in lines)


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


def test_bench_pairs_verdict_applies_the_gain_and_bound_rules():
    verdict = load_tool("bench_pairs").verdict
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    # Lower in all pairs by 3, more than the base's quartile spread (2).
    assert verdict(base, [b - 3.0 for b in base]) == "gain rule holds"
    # Lower in all pairs, but by less than the spread.
    assert verdict(base, [b - 1.0 for b in base]) == "gain rule fails"
    # Far lower in 8 of 10 pairs only.
    eight = [b - 5.0 for b in base[:8]] + base[8:]
    assert verdict(base, eight) == "gain rule fails"
    # Higher is better where BENCHMARK.json says so.
    assert verdict(base, [b + 3.0 for b in base],
                   better="higher") == "gain rule holds"
    # The bound is relative to the base's median, 12.
    assert verdict(base, [b + 2.9 for b in base], bound=0.25) == (
        "gain rule fails; median within its bound of 0.25")
    assert verdict(base, [b + 3.1 for b in base], bound=0.25) == (
        "gain rule fails; median BEYOND its bound of 0.25")
    # A base spread (2) wider than the bound (0.1 * 12) leaves the median
    # unresolved either way, unless every change run reads better than
    # every base run.
    assert verdict(base, [b + 0.5 for b in base], bound=0.1) == (
        "gain rule fails; median unresolved against its bound of 0.1")
    assert verdict(base, [b - 0.5 for b in base], bound=0.1) == (
        "gain rule fails; median unresolved against its bound of 0.1")
    assert verdict(base, [9.0] * 10, bound=0.1) == (
        "gain rule holds; median within its bound of 0.1")


def test_bench_pairs_prints_a_verdict_per_metric(monkeypatch, capsys):
    bench_pairs = load_tool("bench_pairs")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: into)

    def fake_bench(tree, workload, seed, seconds):
        change = tree.name == "change"
        return {"exit": 0, "env": None, "result": {"correct": True,
                "metrics": {
                    "op_ms_p50": {"unit": "ms",
                                  "value": 10.0 + seed % 2
                                  - (5.0 if change else 0.0)},
                    "peak_rss_mb": {"unit": "MB",
                                    "value": 40.0 + (5.0 if change
                                                     else 0.0)}}}}
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)

    assert bench_pairs.main(["BASE", "CHANGE", "--workload", "cli_batch",
                             "--pairs", "10", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Each metric line is followed by its verdicts; the bounds are read
    # from BENCHMARK.json (op_ms_p50 0.25, peak_rss_mb 0.1).
    at = {line.split()[0]: k for k, line in enumerate(lines)
          if line.startswith("  ") and line.split()[0] in (
              "op_ms_p50", "peak_rss_mb")}
    assert lines[at["op_ms_p50"] + 1].split() == (
        "gain rule holds; median within its bound of 0.25".split())
    assert lines[at["peak_rss_mb"] + 1].split() == (
        "gain rule fails; median BEYOND its bound of 0.1".split())


IMAGE_CLASSES = {"Singleton", "FiniteSet", "BallImage"}


def image_kind_tests(tree):
    """Line numbers of each ``isinstance(...)`` call that names an image
    class, and of each ``type(...) is`` comparison with one."""
    def names_image(node):
        return any(isinstance(n, (ast.Name, ast.Attribute))
                   and (getattr(n, "id", None) or getattr(n, "attr", None))
                   in IMAGE_CLASSES for n in ast.walk(node))

    def is_call_of(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)

    lines = []
    for node in ast.walk(tree):
        if is_call_of(node, "isinstance") and names_image(node):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Compare)
              and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                      for op in node.ops)
              and any(is_call_of(side, "type")
                      for side in (node.left, *node.comparators))
              and names_image(node)):
            lines.append(node.lineno)
    return sorted(lines)


def test_image_kind_tests_catch_both_forms():
    tree = ast.parse("if isinstance(S, (FiniteSet, BallImage)): pass\n"
                     "h = d if type(img) is setvalued.Singleton else 0\n"
                     "ok = isinstance(x, float) and type(x) is int\n")
    assert image_kind_tests(tree) == [1, 2]


def test_only_setvalued_asks_which_kind_an_image_is():
    # Each image kind measures itself; only setvalued, which defines the
    # kinds, tests for one.
    found = {path.name: image_kind_tests(ast.parse(path.read_text()))
             for path in sorted(SOURCES.glob("*.py"))
             if path.name != "setvalued.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
