"""The benchmark's workloads must keep running against the package.

perfbench/workloads.py reads public names of the package (``solve``, the
solution's methods, the moment record's fields, ``cli.main`` and the files
it writes); a rename there would otherwise show only in a benchmark run.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["ensemble", "cli"])
def test_workload_warm_up_operation_passes_its_checks(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[name](7, tmp_path)
    workload.make_inputs()
    _, result = workload.call(-1)
    assert workload.check(-1, result) == []
