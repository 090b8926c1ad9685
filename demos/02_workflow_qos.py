"""
Workflow composition and QoS aggregation
========================================

A workflow is a tree of function nodes combined with four patterns:
sequence, parallel (and-split), conditional (xor-split), and loop. Given
one service choice per function occurrence, the tree folds per-service
(price, power, delay) triples into one workflow-level triple:

  sequence     sums every dimension
  parallel     sums price and power, takes the slowest branch's delay
  conditional  takes the worst case in every dimension
  loop         multiplies by the iteration count

Normalizing against the best and worst triple any plan could reach maps
each dimension into [0, 1], where 1 is the cheapest the envelope allows.
"""

from tieralloc import (Loop, QoSExtrema, QoSTriple, aggregate_qos, leaf,
                       normalize_qos, occurrences, par, seq,
                       workflow_extrema)

# An image-processing pipeline: filter and noise-cancel run in parallel,
# then OCR, then the result is spoken three times (a loop).
wf = seq(par(leaf("image-filter", 400.0), leaf("noise-cancel", 400.0)),
         leaf("ocr", 240.0),
         Loop(leaf("text-to-speech", 60.0), count=3))
occs = occurrences(wf)
print("function occurrences (preorder):")
for occ in occs:
    print(f"  {occ.index}: {occ.fn.function_id} ({occ.fn.input_kb:.0f} KB)")

# Two candidate services per occurrence: index 0 is a fast, expensive
# instance, index 1 a slow, cheap one. Triples are (price USD, power mJ,
# delay ms).
fast = {0: QoSTriple(0.020, 300.0, 120.0), 1: QoSTriple(0.020, 300.0, 150.0),
        2: QoSTriple(0.050, 500.0, 200.0), 3: QoSTriple(0.010, 100.0, 40.0)}
slow = {0: QoSTriple(0.002, 800.0, 900.0), 1: QoSTriple(0.002, 800.0, 950.0),
        2: QoSTriple(0.005, 900.0, 1400.0), 3: QoSTriple(0.001, 400.0, 300.0)}
pools = {i: (fast[i], slow[i]) for i in range(4)}


def cost(sid, occ_idx, fn, prev):
    return pools[occ_idx][sid]


all_fast = {i: 0 for i in range(4)}
all_slow = {i: 1 for i in range(4)}
q_fast = aggregate_qos(wf, all_fast, cost)
q_slow = aggregate_qos(wf, all_slow, cost)
print(f"\nall-fast plan: price {q_fast.price:.3f} USD, "
      f"power {q_fast.power:.0f} mJ, delay {q_fast.delay:.0f} ms")
print(f"all-slow plan: price {q_slow.price:.3f} USD, "
      f"power {q_slow.power:.0f} mJ, delay {q_slow.delay:.0f} ms")

# The envelope: per-occurrence best/worst triples folded through the same
# tree give the extremes any plan can reach.
table = {}
for occ in occs:
    a, b = pools[occ.index]
    table[occ.index] = QoSExtrema(lo=a.emin(b), hi=a.emax(b))
ext = workflow_extrema(wf, table)
print(f"\nenvelope lo: price {ext.lo.price:.3f}, power {ext.lo.power:.0f}, "
      f"delay {ext.lo.delay:.0f}")
print(f"envelope hi: price {ext.hi.price:.3f}, power {ext.hi.power:.0f}, "
      f"delay {ext.hi.delay:.0f}")

# Normalized QoS: 1 means the envelope's best value in that dimension,
# 0 its worst. The fast plan wins delay, the slow plan wins price.
n_fast = normalize_qos(q_fast, ext)
n_slow = normalize_qos(q_slow, ext)
print("\nnormalized (1 = best the envelope allows):")
print(f"  all-fast: price {n_fast.price:.2f}, power {n_fast.power:.2f}, "
      f"delay {n_fast.delay:.2f}")
print(f"  all-slow: price {n_slow.price:.2f}, power {n_slow.power:.2f}, "
      f"delay {n_slow.delay:.2f}")
