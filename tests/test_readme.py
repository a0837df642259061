"""The README's code runs as printed."""

import re
from pathlib import Path

from conftest import run_python

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for code in blocks:
        run_python(code)
