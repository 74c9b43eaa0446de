"""The library example of README.md runs against the current API."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    """The single ``python`` block prints the Cantor exponent log 2 / log 6,
    then 16 Dirichlet counts."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    gamma, counts = capsys.readouterr().out.splitlines()
    assert abs(float(gamma) - math.log(2) / math.log(6)) < 1e-9
    assert len(counts.strip("[]").split()) == 16
