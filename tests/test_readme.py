import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_example_runs(capsys):
    block = re.search(r"Quick example:\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README.md has no Quick example block"
    exec(compile(block.group(1), "README.md quick example", "exec"), {})
    sample, oracle = map(float, capsys.readouterr().out.split())
    # one Wiener path: the p = 7 series against the N = 4096 left-point sum
    assert math.isfinite(sample) and abs(sample - oracle) < 1.0
