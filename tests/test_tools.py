"""The repository tools that gates and reports cite."""
import importlib.util
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
