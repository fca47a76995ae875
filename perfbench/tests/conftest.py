import os
import sys
from pathlib import Path

# the benchmark's modules and the program under test, as run.py finds them
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
