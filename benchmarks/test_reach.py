"""The reach collector on a fixture package (outside the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/test_reach.py -q

Each check builds a tiny package under ``tmp_path``, runs a script over it
through :func:`reach.collect` (which starts the script as a subprocess with
the collector's ``sitecustomize`` on its path) and reads the report.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reach  # noqa: E402

MODULE = '''
import functools
import subprocess
import sys
from dataclasses import dataclass


def tagged(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper


def called():
    return 1


def never_called():
    return 2


@tagged
@tagged
def decorated():
    return 3


def only_in_a_child():
    return 4


def spawn_child():
    subprocess.run([sys.executable, "-c", "import fix.mod; fix.mod.only_in_a_child()"],
                   check=True)


class Shape:
    def method(self):
        return 5

    def unused_method(self):
        return 6

    def abstract_like(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Settings:
    width: int = 1
    depth: int = 2
    name: str = "x"
'''


@pytest.fixture
def fixture_package(tmp_path):
    package = tmp_path / "fix"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "mod.py").write_text(textwrap.dedent(MODULE), encoding="utf-8")
    return package


def run(package: Path, body: str) -> tuple[list[str], reach.Reach]:
    script = package.parent / "drive.py"
    script.write_text(textwrap.dedent(body), encoding="utf-8")
    commands = [reach.Command("drive", (sys.executable, str(script)))]
    result = reach.collect(
        commands, package, [package.parent], jobs=1, cwd=package.parent,
        config_module="fix.mod",
    )
    assert result.failures == []
    functions = reach.list_functions(package, base=package.parent)
    return [f.qualname for f in reach.unreached(functions, result, base=package.parent)], result


def test_reports_exactly_the_functions_never_called(fixture_package):
    missed, _ = run(fixture_package, """
        import fix.mod as m
        m.called()
        m.decorated()
        m.Shape().method()
        m.spawn_child()
    """)
    # The stub is counted but never listed; the wrapper ran via decorated().
    assert missed == ["never_called", "Shape.unused_method"]


def test_a_decorated_function_is_keyed_by_its_first_decorator_line(fixture_package):
    functions = {f.qualname: f for f in reach.list_functions(
        fixture_package, base=fixture_package.parent)}
    source = (fixture_package / "mod.py").read_text("utf-8").splitlines()
    assert source[functions["decorated"].line - 1] == "@tagged"
    assert source[functions["decorated"].line + 1] == "def decorated():"
    missed, _ = run(fixture_package, """
        import fix.mod as m
        m.decorated()
    """)
    assert "decorated" not in missed
    missed, _ = run(fixture_package, "import fix.mod\n")
    assert "decorated" in missed


def test_a_call_made_in_a_child_process_counts(fixture_package):
    missed, _ = run(fixture_package, "import fix.mod\n")
    assert "only_in_a_child" in missed
    missed, _ = run(fixture_package, """
        import fix.mod as m
        m.spawn_child()
    """)
    assert "only_in_a_child" not in missed


def test_config_fields_set_to_a_non_default_value_are_recorded(fixture_package):
    _, result = run(fixture_package, """
        import dataclasses
        import fix.mod as m
        m.Settings()
        dataclasses.replace(m.Settings(width=1), depth=5)
    """)
    assert set(result.fields) == {"Settings.depth"}


def test_the_kept_list_needs_a_known_reason(tmp_path):
    kept = tmp_path / "kept.txt"
    kept.write_text(
        "# comment\n"
        "src/x.py::f  debug  # a note\n"
        "src/x.py::g  because\n",
        encoding="utf-8",
    )
    entries, errors = reach.read_kept(kept)
    assert entries == {"src/x.py::f": "debug"}
    assert len(errors) == 1 and "kept.txt:3" in errors[0]
