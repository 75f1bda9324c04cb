"""The package namespace: names load their home module on first use, and the
fidelity, match and tables commands and --help never load numpy or the code
layers."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import eaqecne
from eaqecne.cli import main

FIDELITY = ["fidelity", "--c", "17,7", "--ea", "11,7", "--b", "6,3",
            "--lambda", "0.01", "--grid", "0.01:0.01:1"]
MATCH = ["match", "--q", "2", "--alice", "8,1,5,1", "--bob", "5,1,3"]


def fresh_python(code: str) -> str:
    """stdout of a fresh interpreter that imports this checkout's eaqecne."""
    src = str(Path(eaqecne.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_and_fidelity_load_no_numpy():
    out = fresh_python(
        "import json, sys\n"
        "loaded = lambda: [m in sys.modules for m in ('numpy', 'eaqecne.addcodes')]\n"
        "import eaqecne\n"
        "after_import = loaded()\n"
        "from eaqecne import cli\n"
        f"rc = cli.main({FIDELITY!r})\n"
        "print(json.dumps([after_import, loaded(), rc]))\n")
    *csv, last = out.splitlines()
    assert csv[0] == "p_a,P_C,P_D,diff"
    assert json.loads(last) == [[False, False], [False, False], 0]


@pytest.mark.parametrize("argv, first", [
    (MATCH, "match=properly-matching+faithful"),
    (["tables"], "q,n,k,d,c,m,kb,db,match"),
], ids=["match", "tables"])
def test_match_and_tables_load_no_numpy(argv, first):
    """Both only build parameter records, which live outside the code layers."""
    out = fresh_python(
        "import json, sys\n"
        "from eaqecne import cli\n"
        f"rc = cli.main({argv!r})\n"
        "print(json.dumps([rc, [m in sys.modules for m in ('numpy', 'eaqecne.addcodes')]]))\n")
    lines = out.splitlines()
    assert lines[0] == first
    assert json.loads(lines[-1]) == [0, [False, False]]


def test_help_loads_no_numpy():
    out = fresh_python(
        "import json, sys\n"
        "from eaqecne.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "print(json.dumps([rc, [m in sys.modules for m in ('numpy', 'eaqecne.addcodes')]]))\n")
    lines = out.splitlines()
    assert lines[0].startswith("usage: eaqecne")
    assert json.loads(lines[-1]) == [0, [False, False]]


def test_readme_library_sketch_prints_its_comments():
    """The README's sketch runs, and each print line's comment is its output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    want = [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.startswith("print(")]
    assert want == ["[[5,1,3]]_2", "4 0"]
    assert fresh_python(block).splitlines() == want


def test_every_public_name_resolves_and_is_listed():
    """In a fresh interpreter, so that every name goes through the lazy
    lookup: each comes from its home module, through attribute access and
    through ``import *``, and ``dir`` lists it."""
    out = fresh_python(
        "import json, eaqecne\n"
        "from importlib import import_module\n"
        "star = {}\n"
        "exec('from eaqecne import *', star)\n"
        "bad = [n for n in eaqecne.__all__ if n != '__version__' and not (\n"
        "    getattr(eaqecne, n) is star[n]\n"
        "    is getattr(import_module('eaqecne.' + eaqecne._HOME[n]), n))]\n"
        "print(json.dumps([bad, sorted(set(eaqecne.__all__) - set(dir(eaqecne))),\n"
        "                  len(eaqecne.__all__), star['__version__']]))\n")
    assert json.loads(out) == [[], [], 31, eaqecne.__version__]


def test_submodules_load_as_attributes():
    out = fresh_python(
        "import sys, eaqecne\n"
        "print(eaqecne.linalg is sys.modules['eaqecne.linalg'],\n"
        "      'eaqecne.addcodes' in sys.modules, 'linalg' in dir(eaqecne))\n")
    assert out.split() == ["True", "False", "True"]


@pytest.mark.parametrize("name", ["no_such_name", "np", "import_module",
                                  "numpy", "__wrapped__"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=name):
        getattr(eaqecne, name)
    assert not hasattr(eaqecne, name)


def test_main_pins_one_blas_thread_unless_set(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, "")          # recorded, so restored afterwards
        monkeypatch.delenv(var)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert main(FIDELITY) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_import_leaves_the_environment_alone():
    out = fresh_python("import os; before = dict(os.environ); import eaqecne; "
                       "eaqecne.field(4); print(dict(os.environ) == before)")
    assert out.strip() == "True"


def _functions(module):
    """Every function, class and method defined in ``module``, with the
    accessors of its properties."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield obj
        for attr in vars(obj).values() if inspect.isclass(obj) else ():
            attr = getattr(attr, "__func__", attr)  # class and static methods
            if isinstance(attr, property):
                yield from filter(None, (attr.fget, attr.fset))
            elif inspect.isroutine(attr):
                yield attr


def test_every_annotation_resolves():
    modules = [eaqecne] + [importlib.import_module(f"eaqecne.{info.name}")
                           for info in pkgutil.iter_modules(eaqecne.__path__)]
    checked, bad = 0, []
    for module in modules:
        for obj in _functions(module):
            checked += 1
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                bad.append(f"{module.__name__}.{obj.__qualname__}: {exc}")
    assert bad == [] and checked > 100
