"""The complete catalog of skeleton triangles and quadrilaterals.

Circle triangles/quadrilaterals in the 1-skeleton of a chamber
tessellation bound disks of n chambers, and the combinatorial
Gauss-Bonnet identity forces defect = n * (chamber area) exactly.  The
side-driven search enumerates all isomorphism classes; an independent
brute-force disk enumerator confirms the small ones.
"""

import json

from hypbuild import catalog as cat
from hypbuild.chamber import area, validate

spec = validate(3, (2, 3, 8))
print("== triangle catalog for the (2,3,8) chamber (A0 = %s) ==" % area(spec))
tris = sorted(cat.enumerate_triangles(spec), key=lambda e: (e.n, e.code))
for e in tris:
    print("  n=%2d  d=%-6s angles=%-28s sides=%s"
          % (e.n, e.defect, ",".join(str(a) for a in e.corner_angles), e.sides))

print("\n== the two engines agree on all classes with n <= 8 ==")
side = {e for e in tris if e.n <= 8}
brute = cat.brute_force_catalog(spec, "triangle", n_max=8)
print("  side-driven: %d, brute-force: %d, equal: %s"
      % (len(side), len(brute), side == brute))

print("\n== structural claims, automatically checked ==")
for k, m in [(3, (2, 3, 8)), (3, (3, 3, 4)), (5, (2, 2, 2, 2, 2))]:
    rep = cat.claims_check(validate(k, m))
    print("  %-18s triangles=%2d quads=%2d all claims pass=%s"
          % (str(m), rep["summary"]["triangles"],
             rep["summary"]["quadrilaterals"], rep["summary"]["pass"]))

print("\n== JSON export of the minimum-defect quadrilateral ==")
quads = cat.enumerate_quads(spec)
qmin = min(quads, key=lambda e: e.defect)
print(json.dumps(qmin.to_json(), indent=2))
