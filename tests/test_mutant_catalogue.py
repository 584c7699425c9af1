import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_snippet_occurs_once_and_every_listed_test_exists():
    """A refactor that moves or renames a guarded line or a killing test must
    update its catalogue entry; `python tools/mutants.py` runs the entries.
    Every listed id, parametrized ones included, must be one that pytest
    collects: pytest runs nothing for an entry with a misspelt id."""
    assert len({m.name for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
    for m in mutants.CATALOGUE:
        assert (ROOT / m.path).read_text().count(m.snippet) == 1, m.name
        assert m.snippet != m.replacement and bool(m.tests) != bool(m.survivor)
    listed = {test for m in mutants.CATALOGUE for test in m.tests}
    files = sorted({test.split("::")[0] for test in listed})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = set(proc.stdout.splitlines())
    assert listed <= collected, sorted(listed - collected)
