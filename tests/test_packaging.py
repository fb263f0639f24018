"""What the package declares: its dependencies and its public names."""

import ast
import glob
import os
import re
import sys
import tokenize

import pytest

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def names(requirements):
    return [re.match(r"[A-Za-z0-9._-]+", r).group().lower() for r in requirements]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_numpy_is_the_only_runtime_dependency():
    import tomllib

    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# Exported for the tests alone: test_acceptance.py's criterion 9 samples
# supermodular functions through it to check the g+ transform.
TEST_ONLY_EXPORTS = {"supermodular_order_witness"}


def exported_names():
    with open(os.path.join(ROOT, "src", "mobiusdual", "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names(path):
    """The identifiers ``path`` uses as code, or quotes whole as a string
    (as perfbench names the functions it traces), outside the names that
    its ``def`` and ``class`` lines bind."""
    found, previous = set(), None
    with open(path, encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                found.add(tok.string)
            elif tok.type == tokenize.STRING and tok.string[0] in "'\"":
                value = ast.literal_eval(tok.string)
                if value.isidentifier():
                    found.add(value)
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.string
    return found


def test_every_export_is_reached_outside_the_tests():
    paths = [p for p in glob.glob(os.path.join(ROOT, "src", "mobiusdual", "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "tools", "**", "*.py"), recursive=True)
    reached = set().union(*map(referenced_names, paths))
    assert sorted(exported_names() - reached - TEST_ONLY_EXPORTS) == []


def readme_blocks(language):
    """The fenced blocks of README.md opened with ```<language>, in order."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_readme_commands_run(monkeypatch, tmp_path):
    from mobiusdual import cli

    commands = [line.split()[1:] for block in readme_blocks("sh")
                for line in block.splitlines() if line.startswith("mobiusdual ")]
    assert [argv[0] for argv in commands] == ["check", "dual", "sep", "avail"]
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("MOBIUSDUAL_OUTPUT_DIR", str(tmp_path))
    for argv in commands:
        assert cli.main(argv) == 0, argv
    assert (tmp_path / "dual.spec").is_file()


def test_readme_library_example_runs():
    (example,) = readme_blocks("python")
    exec(compile(example, "README.md", "exec"), {})
