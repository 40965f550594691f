"""Every narrative script under demos/ runs to completion."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Demo 05 writes its SVG gallery into the directory it is given; every
    # demo runs in tmp_path so nothing lands in the checkout.
    args = [str(tmp_path / "out")] if demo.name.startswith("05_") else []
    proc = run_python([str(demo), *args], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
