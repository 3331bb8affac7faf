#!/usr/bin/env python3
"""Search the twist-vector space for LCD MDS codes.

The template is a recipe's parameters; the search replaces their twist
vector by each candidate (exhaustively when the space fits the budget,
otherwise seeded random draws), keeps those passing the recipe gates plus the
MDS criterion, and returns each with a full classification report.
"""

from tgrs import Class1Params, Field, search_eta

f37 = Field(37)
template = Class1Params(
    field=f37, n=9, k=3, h=1, l=1, lam=f37.one(),
    eta=(f37.zero(), f37.zero()),  # replaced by every candidate
    v_head=tuple(f37.element(x) for x in (21, 30)),
    v_tail_signs=tuple(f37.element(s) for s in (1, 1, -1, 1, 1, 1, -1)),
)
space = 37 ** 2
print(f"template: [9,3] over GF(37); twist space has {space} candidates")

hits = search_eta(template, budget=space)  # exhaustive
print(f"{len(hits)} twist vectors yield LCD MDS codes; first ten:")
for h in hits[:10]:
    eta = tuple(e.rep for e in h.eta)
    print(f"  eta={eta}  r={h.r_value.rep}  {h.report.params_string()}  "
          f"lcd={h.report.is_lcd} mds={h.report.is_mds}")

print("\nrandomized sampling with a quarter of the budget (seeded):")
sampled = search_eta(template, budget=space // 4, seed=7)  # below the space: random draws
print(f"{len(sampled)} hits from random draws; all also in the exhaustive list:",
      {tuple(e.rep for e in h.eta) for h in sampled}
      <= {tuple(e.rep for e in h.eta) for h in hits})
