"""Reach collector, loaded at interpreter start by ``benchmarks/reach.py``.

Python imports ``sitecustomize`` from the first ``PYTHONPATH`` entry that
has one, so a process started with this directory on its path records, when
``REACH_OUT`` names a directory:

* every code object it ever entered. The trace function sees ``call`` events
  only and returns ``None``, so no line is traced;
* every field of a ``repro.common.config`` dataclass that some instance held
  at a value other than its default. Each dataclass's ``__init__`` is wrapped
  as the module is first imported; ``dataclasses.replace`` goes through it
  too.

At exit it writes one JSON file into ``REACH_OUT``, holding the
``(co_filename, co_firstlineno)`` pairs under ``REACH_SRC`` and the field
names. Children inherit the environment, so they are counted as well.
"""

import atexit
import dataclasses
import importlib.machinery
import json
import os
import sys
import tempfile
import threading

_OUT = os.environ.get("REACH_OUT")
_SRC = os.path.realpath(os.environ.get("REACH_SRC", os.getcwd()))
_CONFIG_MODULE = os.environ.get("REACH_CONFIG_MODULE", "repro.common.config")

_codes = set()
_fields = set()


def _on_call(frame, event, arg):
    _codes.add(frame.f_code)


def _wrap_configs(module):
    for cls in list(vars(module).values()):
        if (
            isinstance(cls, type)
            and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__
        ):
            _wrap_init(cls)


def _wrap_init(cls):
    defaults = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            defaults[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            defaults[f.name] = f.default_factory()
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for name, default in defaults.items():
            if getattr(self, name) != default:
                _fields.add(f"{cls.__name__}.{name}")

    cls.__init__ = __init__


class _ConfigFinder:
    """Meta-path finder that wraps the config module's dataclasses as the
    module finishes executing, so nothing is imported earlier than usual."""

    def find_spec(self, name, path=None, target=None):
        if name != _CONFIG_MODULE:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            _wrap_configs(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def _dump():
    sys.settrace(None)
    threading.settrace(None)
    by_file = {}
    for code in list(_codes):
        by_file.setdefault(code.co_filename, set()).add(code.co_firstlineno)
    calls = set()
    for filename, lines in by_file.items():
        filename = os.path.realpath(filename)
        if filename.startswith(_SRC):
            calls.update((filename, line) for line in lines)
    record = {
        "argv": sys.argv,
        "calls": sorted(calls),
        "fields": sorted(_fields),
    }
    fd, _ = tempfile.mkstemp(prefix="reach-", suffix=".json", dir=_OUT)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if _OUT:
    sys.meta_path.insert(0, _ConfigFinder())
    atexit.register(_dump)
    threading.settrace(_on_call)
    sys.settrace(_on_call)
