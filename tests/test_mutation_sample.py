"""The mutation sampler's list of equivalent mutants names only live sites.

``tests/tools/mutation_sample.py`` is loaded by path, and only its site
listing runs: it parses the package sources and starts no mutant.  An edit
that moves or deletes a site listed in ``EQUIVALENT`` fails here, so no
stale entry can stay behind."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent / "tools" / "mutation_sample.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutation_sample", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_equivalent_mutant_names_a_live_site():
    tool = load_tool()
    keys = {key for *_, key in tool.all_sites(sorted(tool.TESTS))}
    assert sorted(set(tool.EQUIVALENT) - keys) == []
    assert tool.EQUIVALENT and all(tool.EQUIVALENT.values())
