#!/usr/bin/env python3
"""Classify twisted codes: MDS, AMDS, minimum distance, and LCD status.

The MDS test runs twice, once through the per-subset twist criterion and
once through exhaustive k x k minors, and the two must agree.  Distance
comes from the smallest dependent column set of the parity-check matrix.
The last section does the same over GF(16), whose modulus must be
irreducible: a reducible one is refused when the field is built.
"""

from tgrs import (Field, TgrsSpec, ValidationError, classify, generator_matrix,
                  is_mds_minors, is_mds_phi, min_distance, parity_check_matrix)

field = Field(7)
alpha = tuple(field.element(a) for a in (0, 1, 2, 3, 4, 5))

print("=== a plain GRS baseline (zero twist) ===")
grs = TgrsSpec(field=field, n=6, k=3, l=0, h=1, alpha=alpha,
               v=(field.one(),) * 6, eta=(field.zero(),))
report = classify(grs, want_distance=True)
print(f"params {report.params_string()}  mds={report.is_mds}  "
      f"amds={report.is_amds}  lcd={report.is_lcd}  d={report.min_distance}")

print("\n=== sweeping the twist coefficient changes the verdict ===")
for e in range(7):
    spec = TgrsSpec(field=field, n=6, k=3, l=0, h=1, alpha=alpha,
                    v=(field.one(),) * 6, eta=(field.element(e),))
    phi_ok, phi_cert = is_mds_phi(spec)
    minors_ok, _ = is_mds_minors(generator_matrix(spec))
    assert phi_ok == minors_ok  # two independent routes, one answer
    d = min_distance(parity_check_matrix(spec))
    label = "MDS" if phi_ok else f"d={d}, first bad subset {phi_cert}"
    print(f"  twist eta_0 = {e}: {label}")

print("\n=== a full report with certificates ===")
spec = TgrsSpec(field=field, n=6, k=3, l=0, h=1, alpha=alpha,
                v=(field.one(),) * 6, eta=(field.element(3),))
report = classify(spec, want_distance=True)
print(f"params {report.params_string()}")
print(f"mds={report.is_mds}  amds={report.is_amds}  "
      f"hull_dim={report.hull_dim}  lcd={report.is_lcd}")
print("certificates:", report.certificates)

print("\n=== over an extension field: GF(16) modulo x^4 + x + 1 ===")
gf16 = Field(2, 4, [1, 1, 0, 0, 1])  # coefficients low degree first
points = tuple(gf16.from_index(i) for i in range(1, 9))  # eight nonzero elements
spec = TgrsSpec(field=gf16, n=8, k=3, l=0, h=1, alpha=points, v=points,
                eta=(gf16.element([0, 1]),))  # the twist eta_0 = x
report = classify(spec, want_distance=True)
print(f"params {report.params_string()}  mds={report.is_mds}  "
      f"amds={report.is_amds}  lcd={report.is_lcd}  hull_dim={report.hull_dim}")
try:
    Field(2, 4, [1, 0, 1, 0, 1])  # x^4 + x^2 + 1 = (x^2 + x + 1)^2
except ValidationError as exc:
    print(f"x^4 + x^2 + 1 refused: {exc}")
