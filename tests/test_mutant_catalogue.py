import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_snippet_occurs_once_and_every_listed_test_exists():
    """A refactor that moves or renames a guarded line or a killing test must
    update its catalogue entry; `python tools/mutants.py` runs the entries."""
    assert len({m.name for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
    for m in mutants.CATALOGUE:
        assert (ROOT / m.path).read_text().count(m.snippet) == 1, m.name
        assert m.snippet != m.replacement and bool(m.tests) != bool(m.survivor)
        for test in m.tests:
            path, name = re.fullmatch(r"(.+?)::(\w+)(\[.*\])?", test).group(1, 2)
            assert f"\ndef {name}(" in (ROOT / path).read_text(), test
