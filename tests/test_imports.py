import subprocess
import sys
from pathlib import Path

import angsync


def test_import_loads_no_scipy_spatial():
    # scipy.spatial costs about a quarter of a fresh process's start-up
    # (interpreter, imports and first calls), so the package must not pull it in
    src = str(Path(angsync.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import angsync; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
