"""The mutant list of tests/mutants.py still applies to the code.

Only the list is checked here; the mutants run under
`python tests/mutants.py`, never in tier-1.
"""
from mutants import MUTANTS, PACKAGE


def test_each_old_text_occurs_exactly_once():
    assert len(MUTANTS) >= 6
    for mutant in MUTANTS:
        text = (PACKAGE / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old and mutant.tests, mutant.name
