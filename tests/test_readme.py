import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    # the "Quick start (Python)" block runs as written and prints the value it
    # promises, so an API change that breaks the README fails here
    section = README.read_text().split("## Quick start (Python)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S)[1]
    exec(compile(block, f"{README.name} quick start", "exec"), {})
    value, se = map(float, capsys.readouterr().out.split())
    promised = re.search(r"# ~(\S+) \+- (\S+)", block).groups()
    assert (f"{value:.2f}", f"{se:.2f}") == promised
