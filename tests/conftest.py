"""Put the checkout's src/ on PYTHONPATH for the CLI subprocesses tests start.

pyproject's ``pythonpath`` setting reaches only the pytest process itself.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
