import importlib.util
import subprocess
import sys
from pathlib import Path

import angsync

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_import_loads_no_scipy_spatial():
    # scipy.spatial costs about a quarter of a fresh process's start-up
    # (interpreter, imports and first calls), so the package must not pull it in
    src = str(Path(angsync.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import angsync; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_complete_sweep_loads_no_csgraph(tmp_path):
    # scipy.sparse.csgraph (about 1 MB resident) serves only the component
    # search, which complete graphs skip, so it is imported on first search
    src = str(Path(angsync.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import angsync; "
            "from angsync import cli; "
            "assert cli.main(['sweep', '--n', '30', '--p', '0.5', '--trials', '2', "
            "'--method', 'eig,lsqr,sdp', '--deterministic', '--out', sys.argv[2]]) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.csgraph')))")
    out = subprocess.run([sys.executable, "-c", code, src, str(tmp_path / "sw.csv")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_every_perfbench_hook_point_resolves():
    # the benchmark wraps these functions by their module paths, so a refactor
    # that moves or renames one must fail here, not only in the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) == 19
    for _span, module_name, attr in tracer.TARGETS:
        owner, leaf = tracer._resolve(module_name, attr)
        assert callable(getattr(owner, leaf, None)), f"{module_name}.{attr}"
