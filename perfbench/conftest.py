import sys
from pathlib import Path

# the benchmark measures the checkout's own sources, and so do its tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
