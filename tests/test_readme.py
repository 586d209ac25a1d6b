"""README's library tour runs as written.

The tour imports by name from ``casimir_cutoff`` and asserts what it
shows, so an export removed or renamed without updating README fails
here.
"""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_tour_runs():
    section = README.read_text().split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no python block under 'Library tour'"
    exec(compile(block.group(1), f"{README}:library-tour", "exec"), {})
