"""The mutation sampler's list of equivalent mutants names only live sites.

``tests/tools/mutation_sample.py`` is loaded by path, and only its site
listing and its check of the unmutated copy run, the latter with the test
runner stubbed: it parses the package sources and starts no mutant.  An
edit that moves or deletes a site listed in ``EQUIVALENT`` fails here, so
no stale entry can stay behind."""

import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("failing", ["module", "full"])
def test_a_failing_unmutated_copy_stops_the_sample_before_any_mutant(monkeypatch, capsys,
                                                                    failing):
    # a test that fails in every copy used to count each mutant as killed
    tool = load_tool()
    runs = []

    def pytest_stub(root, files):  # starts no suite
        assert (root / "src" / "phonon_optics" / "recipes.py").is_file()
        runs.append(list(files))
        full = tuple(files) == tool.FULL
        return "1 failed: tests/test_bench.py::test_x" if full == (failing == "full") else ""

    monkeypatch.setattr(tool, "_pytest", pytest_stub)
    monkeypatch.setattr(tool, "run_mutant", lambda *site: pytest.fail("a mutant ran"))
    assert tool.main(["--module", "recipes"]) == 1
    module_run = ["tests/test_recipes.py"]
    assert runs == ([module_run] if failing == "module" else [module_run, list(tool.FULL)])
    out = capsys.readouterr().out
    assert out.startswith("the unmutated copy fails, so no mutant can be judged: pytest tests")
    assert "1 failed: tests/test_bench.py::test_x" in out
