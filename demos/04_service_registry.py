"""
Spatial service registry and capacity accounting
================================================

Local-cloud services are indexed in an R-tree so the allocator can ask
"which instances of this function sit within r meters of a point?"
without scanning the whole catalog. Public and on-device services are
kept in plain per-tier views because distance never applies to them.
A capacity ledger tracks concurrent admissions per local cloud.
"""

import math

import numpy as np

from tieralloc import (LOCAL, PUBLIC, CapacityLedger, CloudNode, LocationMap,
                       RTree, Service, ServiceDirectory, clouds_without_room)

# The raw R-tree: insert labeled points, query discs, delete, re-query.
rng = np.random.default_rng(5)
points = rng.uniform(0.0, 1000.0, size=(200, 2))
tree = RTree()
for i, (x, y) in enumerate(points):
    tree.insert(i, (float(x), float(y)))
print(f"r-tree holds {len(tree)} points")

center, radius = (500.0, 500.0), 150.0
hits = sorted(tree.search_disc(center, radius))
scan = sorted(i for i, p in enumerate(points)
              if math.dist((p[0], p[1]), center) <= radius)
print(f"disc query ({radius:.0f} m around {center}): {len(hits)} hits, "
      f"matches a linear scan: {hits == scan}")
print(f"nodes visited: {tree.last_visited} (catalog size {len(tree)})")

tree.remove(hits[0])
print(f"after removing id {hits[0]}: "
      f"{len(tree.search_disc(center, radius))} hits")
tree.check_invariants()
print("tree invariants hold after churn")

# The directory ties services to a grid and its clouds. Local services
# are spatially indexed at their cloud's cell; public and device ones are
# not.
grid = LocationMap(4, 4, 100.0, wifi={0: 1, 15: 2})
clouds = {1: CloudNode(1, LOCAL, location=0, capacity=2,
                       coverage_radius_m=100.0),
          2: CloudNode(2, LOCAL, location=15, capacity=2,
                       coverage_radius_m=100.0),
          9: CloudNode(9, PUBLIC)}
directory = ServiceDirectory(grid, clouds)
directory.insert(Service(10, "ocr", host_cloud=1))
directory.insert(Service(11, "ocr", host_cloud=2))
directory.insert(Service(12, "ocr", host_cloud=9))
directory.insert(Service(13, "transcode", host_cloud=2))
directory.insert(Service(14, "ocr", host_user=7))

print(f"\ndirectory: {len(directory)} services")
print(f"all cloud-hosted ocr:   {directory.cloud_services_for('ocr')}")
print(f"user 7's device ocr:    {directory.device_services_for(7, 'ocr')}")

# Range queries see only local-cloud services: the public instance (id
# 12) never appears, regardless of radius.
near_origin = directory.range_query(grid.cell(0).center, 150.0, "ocr")
anywhere = directory.range_query(grid.cell(0).center, 10_000.0, "ocr")
print(f"ocr within 150 m of cell 0: {near_origin}")
print(f"ocr within 10 km:           {anywhere} (public id 12 is not spatial)")

# The ledger admits users into capacity-bound clouds and refuses when a
# cloud is full; public clouds are untracked and never refuse.
ledger = CapacityLedger.for_clouds(clouds)
print(f"\nledger capacities: {ledger.capacities()}")
admitted = [ledger.try_admit(1) for _ in range(3)]
print(f"three admissions to cloud 1 (capacity 2): {admitted}")
print(f"clouds without room now: {sorted(clouds_without_room(ledger))}")
ledger.release(1)
print("after one release, cloud 1 has room again: "
      f"{1 not in clouds_without_room(ledger)}")
print(f"public cloud 9 always admits: {ledger.try_admit(9)}")
