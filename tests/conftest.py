"""Shared test set-up.

Some tests run `python -m motivic_pairs` in a subprocess.  Put the
package these tests import on the subprocess's path too, so the suite
runs the same with `PYTHONPATH=src` or with pytest's own `pythonpath`
setting from pyproject.toml.
"""

import os
from pathlib import Path

import motivic_pairs

_SOURCE = str(Path(motivic_pairs.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SOURCE, os.environ.get("PYTHONPATH"))))
