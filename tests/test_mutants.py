"""The hand-written mutant list in ``tools/mutants.json`` stays applicable:
each entry's old text occurs exactly once in its file, and the tests it
names exist.  ``tools/mutants.py`` runs the mutants themselves."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tools" / "mutants.json").read_text())


def test_every_mutant_applies_once_and_names_existing_tests():
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m["file"].startswith("src/protolab/"), m["id"]
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["id"]
        assert m["new"] != m["old"], m["id"]
        assert m["tests"], m["id"]
        for test in m["tests"]:
            assert (ROOT / test.split("::")[0]).is_file(), (m["id"], test)
