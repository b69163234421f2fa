"""The lazy package root and the record types.

``import ars`` loads no submodule; exported names and submodules resolve
on first access.  The records are NamedTuples (StructureTable is a slotted
class) that keep the fields, defaults, repr, equality, hashing and
immutability of the frozen dataclasses they replaced.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ars
from ars import BinaryMatrix, CoverSpec, Partition, t_term_rank, two_cover_parts
from ars.cli import CommandResult
from ars.counterexample import Check
from ars.oracle import SearchOutcome
from ars.structure import StructureTable

ROOT = Path(__file__).resolve().parent.parent

SUBMODULES = [
    "binmat",
    "cli",
    "construct",
    "counterexample",
    "errors",
    "flow",
    "oracle",
    "partition",
    "structure",
]


def _child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_submodule_list_matches_the_package():
    on_disk = {m.name for m in pkgutil.iter_modules(ars.__path__)} - {"__main__"}
    assert sorted(on_disk) == SUBMODULES


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_resolves(name):
    assert getattr(ars, name) is importlib.import_module(f"ars.{name}")


@pytest.mark.parametrize("name", ars.__all__)
def test_every_export_is_its_module_attribute(name):
    obj = getattr(ars, name)
    owner = obj.__module__
    assert owner.startswith("ars.")
    assert getattr(ars, owner.removeprefix("ars.")) is sys.modules[owner]
    assert obj is getattr(sys.modules[owner], name)


def test_all_is_unchanged():
    assert len(ars.__all__) == 36 and ars.__all__ == sorted(ars.__all__)
    assert ars.__version__ == "0.1.0"


def test_dir_lists_exports_and_submodules():
    listed = dir(ars)
    assert set(ars.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert {"__all__", "__version__"} <= set(listed)


def test_star_import():
    namespace = {}
    exec("from ars import *", namespace)
    assert set(ars.__all__) <= set(namespace)
    assert namespace["min_t_term_rank"] is ars.structure.min_t_term_rank


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ars.no_such_name
    assert not hasattr(ars, "__main__")
    with pytest.raises(ImportError):
        exec("from ars import no_such_name", {})


def test_import_loads_no_submodule():
    proc = _child(
        "import sys; import ars; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ars'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['ars']"


def test_stale_package_keeps_its_own_modules():
    # a package object that outlived a re-import of ars resolves names
    # through the submodules bound on it, not through sys.modules
    proc = _child(
        "import importlib, sys\n"
        "import ars as old\n"
        "old.structure\n"
        "for name in [m for m in sys.modules if m.split('.')[0] == 'ars']:\n"
        "    del sys.modules[name]\n"
        "new = importlib.import_module('ars')\n"
        "new.structure\n"
        "assert new is not old and new.structure is not old.structure\n"
        "assert old.min_t_term_rank is old.structure.min_t_term_rank\n"
        "assert old.Partition is old.partition.Partition\n"
        "assert new.min_t_term_rank is new.structure.min_t_term_rank\n"
        "assert old.min_t_term_rank is not new.min_t_term_rank\n"
    )
    assert proc.returncode == 0, proc.stderr


TABLE = StructureTable(values=((1, 0), (0, 1)), kind="T")


def _two_cover_parts():
    r = Partition((4, 2, 2, 2, 1, 1, 1))
    s = Partition((2, 2, 2, 2, 1, 1, 1, 1, 1))
    return two_cover_parts(r, s, (2, 4), (3, 3))


def _ranked_matrix():
    """A matrix ranked at t = 1, so its rank kernel state is set."""
    a = BinaryMatrix([[1, 1, 1], [1, 0, 0], [0, 0, 1]])
    assert t_term_rank(a, 1) == 3
    return a


@pytest.mark.parametrize(
    "record, text",
    [
        (CoverSpec(1, 2), "CoverSpec(e=1, f=2, rows=None, cols=None)"),
        (CoverSpec(e=1, f=0, rows=(3,)), "CoverSpec(e=1, f=0, rows=(3,), cols=None)"),
        (TABLE, "StructureTable(values=((1, 0), (0, 1)), kind='T')"),
        (
            SearchOutcome(matrix=None, complete=True, scanned=3),
            "SearchOutcome(matrix=None, complete=True, scanned=3)",
        ),
        (Check("a", True, "d"), "Check(name='a', passed=True, detail='d')"),
        (
            CommandResult("ok", {"kind": "value", "value": 1}),
            "CommandResult(status='ok', payload={'kind': 'value', 'value': 1})",
        ),
    ],
)
def test_record_repr(record, text):
    assert repr(record) == text


def test_two_cover_parts_repr():
    assert repr(_two_cover_parts()).startswith(
        "TwoCoverParts(cover_wide=(2, 4), cover_tall=(3, 3), row_block=BinaryMatrix([["
    )


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: CoverSpec(1, 2, rows=(0,), cols=(1, 3)), CoverSpec(1, 2)),
        (lambda: StructureTable(values=((1, 0), (0, 1)), kind="T"),
         StructureTable(values=((1, 0), (0, 1)), kind="Phi")),
        (lambda: SearchOutcome(BinaryMatrix([[1]]), True, 1), SearchOutcome(None, True, 1)),
        (lambda: Check("a", True, "d"), Check("a", False, "d")),
        (_two_cover_parts, None),
    ],
)
def test_record_equality_and_hash(make, other):
    first, second = make(), make()
    assert first is not second and first == second and hash(first) == hash(second)
    assert not first != second
    if other is not None:
        assert first != other


def test_structure_table_is_not_equal_to_other_types():
    assert TABLE != (TABLE.values, TABLE.kind)
    assert TABLE.__eq__(object()) is NotImplemented


def test_command_result_equality():
    assert CommandResult("ok", {"value": 1}) == CommandResult("ok", {"value": 1})
    assert CommandResult("ok", {"value": 1}) != CommandResult("error", {"value": 1})
    with pytest.raises(TypeError):
        hash(CommandResult("ok", {"value": 1}))  # a dict payload is unhashable


@pytest.mark.parametrize(
    "record, field",
    [
        (CoverSpec(1, 2), "e"),
        (TABLE, "values"),
        (TABLE, "kind"),
        (SearchOutcome(None, True, 1), "scanned"),
        (Check("a", True, "d"), "passed"),
        (CommandResult("ok", None), "status"),
        (_two_cover_parts(), "matrix"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize(
    "record", [CoverSpec(1, 1, rows=(2,), cols=(0,)), TABLE, _ranked_matrix()]
)
def test_records_survive_pickle_and_copy(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert clone == record and type(clone) is type(record)
