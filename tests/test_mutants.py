"""The mutant table of tools/mutants.py stays anchored to today's code.

The full mutation run applies each row and runs its tests (minutes); this
check only reads the table, so a refactor that moves a mutant's anchor
fails here and the same change updates the row.
"""

import importlib.util

from conftest import ROOT

spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_ids_are_unique():
    ids = [mutant.id for mutant in mutants.MUTANTS]
    assert len(set(ids)) == len(ids)


def test_every_old_text_occurs_once_in_its_file():
    counts = {mutant.id: (ROOT / mutant.file).read_text().count(mutant.old)
              for mutant in mutants.MUTANTS}
    assert [i for i, count in counts.items() if count != 1] == []


def test_every_mutant_changes_its_file_and_names_existing_tests():
    for mutant in mutants.MUTANTS:
        assert mutant.new != mutant.old
        assert mutant.tests
        assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests)
