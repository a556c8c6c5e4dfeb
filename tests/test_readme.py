"""The README's Python examples run as written.

Every ```` ```python ```` block of `README.md` is executed in a fresh
namespace, so an example that goes stale fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
