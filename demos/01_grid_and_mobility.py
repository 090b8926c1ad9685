"""
Grid world and seeded mobility traces
=====================================

The simulator models a rectangular grid of square cells. Local clouds sit
in specific cells and project WiFi over their surroundings; everywhere
else users fall back to 3G. Mobile users follow seeded trajectories, and
every allocation decision is anchored at the cell where a user spends
most of their time.
"""

import numpy as np

from tieralloc import (MANHATTAN, RANDOM_WAYPOINT, LocationMap,
                       MobilityParams, center_of_mobility,
                       generate_trajectory)

# A 10 x 10 grid of 50 m cells. Cells 23 and 67 are covered by the WiFi
# access points of local clouds 1 and 2.
grid = LocationMap(10, 10, 50.0, wifi={23: 1, 67: 2})
print(f"grid: {grid.width} x {grid.height} cells of {grid.cell_size_m} m")
print(f"cell 23 center: {grid.cell(23).center}, "
      f"wifi from cloud {grid.cell(23).wifi_covered_by}")

# A Manhattan walk: the user moves along the street grid, turning at
# intersections (half straight, a quarter left, a quarter right), and
# pauses now and then. Same seed, same trace.
params = MobilityParams(model=MANHATTAN, duration_s=600.0,
                        speed_min=1.0, speed_max=2.0, pause_max_s=30.0,
                        seed=42)
walk = generate_trajectory(params, grid)
print(f"\nmanhattan walk: {len(walk)} dwell entries, "
      f"{walk.duration():.0f} s total")
for cell, dwell in zip(walk.cells[:5], walk.dwells):
    print(f"  cell {cell:3d}  dwell {dwell:7.1f} s")

# A random-waypoint trace from the same seed for contrast: pick a point,
# fly to it in a straight line, pause, repeat.
rwp = generate_trajectory(
    MobilityParams(model=RANDOM_WAYPOINT, duration_s=600.0,
                   speed_min=1.0, speed_max=2.0, pause_max_s=30.0, seed=42),
    grid)
print(f"random waypoint: {len(rwp)} dwell entries")

# The center of mobility is the cell nearest the dwell-weighted mean
# position. The MuSIC allocator searches for services around it.
print(f"\ncenter of mobility (manhattan): cell {center_of_mobility(walk, grid)}")
print(f"center of mobility (waypoint):  cell {center_of_mobility(rwp, grid)}")

# Trajectories are reproducible: regenerating with the same seed gives the
# same runs, a different seed gives a different walk.
again = generate_trajectory(params, grid)
other = generate_trajectory(
    MobilityParams(model=MANHATTAN, duration_s=600.0, speed_min=1.0,
                   speed_max=2.0, pause_max_s=30.0, seed=43), grid)
same = walk == again
differs = walk.cells != other.cells
print(f"\nseed 42 again reproduces the walk: {same}")
print(f"seed 43 walks differently:          {differs}")

# Dwell fractions over the five most visited cells.
totals = {}
for cell, dwell in zip(walk.cells, walk.dwells):
    totals[cell] = totals.get(cell, 0.0) + dwell
top = sorted(totals.items(), key=lambda kv: -kv[1])[:5]
duration = sum(totals.values())
print("\nmost visited cells:")
for cid, dwell in top:
    print(f"  cell {cid:3d}  {dwell:7.1f} s  ({100.0 * dwell / duration:4.1f}%)")
