import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
# Ray workers import the engine from the checkout root and take the same
# allocator environment the benchmark entry point sets
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
from perfbench.run import ENV  # noqa: E402

for k, v in ENV.items():
    os.environ.setdefault(k, v)
