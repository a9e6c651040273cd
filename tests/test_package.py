import os
import subprocess
import sys

import baryblend


def test_every_export_resolves():
    missing = [name for name in baryblend.__all__
               if not hasattr(baryblend, name)]
    assert missing == []


def test_submodules_are_package_attributes():
    # the benchmark reaches baryblend.oracle.blend_form_value after only
    # ``import baryblend, baryblend.cli``; a fresh interpreter, because
    # this one has imported every submodule by now
    src = os.path.dirname(os.path.dirname(baryblend.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import baryblend, baryblend.cli\n"
         "for name in ('analysis', 'cli', 'interpolant', 'nodes', 'oracle',"
         " 'weights'):\n"
         "    getattr(baryblend, name)\n"
         "print(callable(baryblend.oracle.blend_form_value))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.stderr == ""
    assert out.stdout.strip() == "True"


def test_term_rows_is_the_oracle_one():
    # the dense reference exists once; interpolant and analysis import it,
    # where the benchmark's span tracer patches it
    bb = baryblend
    assert bb.interpolant.term_rows is bb.analysis.term_rows is bb.oracle.term_rows
    assert not hasattr(bb.PrecomputedWeights, "check")


def test_specs_and_records_are_named_tuples():
    an = baryblend.analysis
    records = [baryblend.weights.ExtParams, baryblend.oracle.SignScanReport,
               an.ReferenceFunction, an.GridSpec, an.NoiseSpec, an.ErrorReport,
               an.LebesgueReport, an.ScanCell, an.ScanResult, an.ConvergeRow,
               an.RungeTableRow, baryblend.EvalOutcome]
    for cls in records:
        assert issubclass(cls, tuple) and cls._fields, cls
        assert not hasattr(cls, "__dataclass_fields__"), cls
