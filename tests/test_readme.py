"""README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    assert sketch, "README has no library sketch"
    exec(compile(sketch.group(1), "README.md", "exec"), {})
    assert "'discriminant': 8464" in capsys.readouterr().out
