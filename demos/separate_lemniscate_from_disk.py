"""Separate a lemniscate-shaped region from a nearby disk.

The first set is the interior of a vertical lemniscate through the origin,
the second a small disk to its right.  Their convex hulls overlap, so no
affine separator exists and the hierarchy must move to degree 2.  The script
also writes a contour grid CSV that external plotting tools can render: the
level set p = 1 hugs the lemniscate and p = 0 fences off the disk.
"""

import csv

from polysep import SemialgebraicSet, parse, run_hierarchy, verify_separation
from polysep.poly import box_grid_points

a = SemialgebraicSet(2, (parse("-16/9*(x1^2+x2^2)^2 + x2^2 - x1^2", 2),))
b = SemialgebraicSet(2, (parse("1/16 - (x1 - 1/2)^2 - x2^2", 2),))

result = run_hierarchy(a, b, d_max=3, l_max=8)
print("attempts:")
for attempt in result.diagnostics["trace"]:
    print(f"  degree {attempt['degree']}, level {attempt['level']}: {attempt['outcome']}")
print(f"separator: p(x) = {result.p}")
print(f"margin {result.slack:.4f} at degree {result.p_degree}, level {result.level}")

report = verify_separation(result.p, a, b, resolution=201, tol=1e-3)
print(f"grid check: min over A = {report.min_on_A:.4f}, max over B = {report.max_on_B:.4f}")

resolution = 128
points = box_grid_points(2, resolution)  # x1-major rows
values = result.p.evaluate_many(points)
in_a, in_b = a.contains_many(points).astype(int), b.contains_many(points).astype(int)
with open("lemniscate_grid.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["x1", "x2", "p", "inA", "inB"])
    writer.writerows(zip(*points.T.tolist(), values.tolist(), in_a.tolist(), in_b.tolist()))
print(f"wrote lemniscate_grid.csv ({resolution * resolution} rows); "
      "plot the p column as a contour map to see the separating level sets")
