"""The paper's full exploration: Tables 1-4 and Figures 1-3 regenerated.

Walks the stepwise feedback methodology end to end on the BTPC
demonstrator through the ``repro.api`` engine: basic group structuring,
memory hierarchy decision, storage cycle budget distribution and memory
allocation exploration — with accurate memory-organization feedback at
every step, memoized so nothing is evaluated twice.

Run:  python examples/btpc_exploration.py       (about five seconds)
"""

import time

from repro.api import BtpcStudy

start = time.time()
study = BtpcStudy()

print(study.render_all())
print()
print("=" * 70)
print("Figure 1: the stepwise methodology with live cost feedback")
print("=" * 70)
print(study.figure1())
print()
print("=" * 70)
print("Figure 2: basic group structuring transforms")
print("=" * 70)
print(study.figure2())
print()
print("=" * 70)
print("Figure 3: memory hierarchy for the image array")
print("=" * 70)
print(study.figure3())
print()
result = study.explore()
print(f"decisions: {result.decisions}")
print(f"engine cache: {study.explorer.cache.stats()}")
print(f"[exploration finished in {time.time() - start:.0f}s]")
