"""Finite-n trend of the extremal alpha ratio, plus desk-scale supersaturation.

alpha(T_{n,r})/n approaches 1 - 1/r, hitting it exactly whenever r divides n;
and any graph whose alpha exceeds the extremal value by a margin epsilon*n
must already contain a balanced multipartite subgraph.
"""

from fractions import Fraction

from algconn import erdos_stone_trend, verify_supersaturation

r = 3
print(f"alpha(T_{{n,{r}}})/n vs the limit {1 - Fraction(1, r)}:")
rows = dict(erdos_stone_trend(r, 10000))
for n in (3, 10, 11, 100, 101, 9999, 10000):
    ratio = rows[n]
    gap = abs(ratio - (1 - Fraction(1, r)))
    marker = "exact" if gap == 0 else f"off by {gap} < 1/{n}"
    print(f"  n={n:>5}: {float(ratio):.6f}  ({marker})")

print("\nSupersaturation at desk scale (epsilon = 0.05):")
for n, rr, k in ((7, 3, 1), (6, 2, 2), (8, 2, 2), (9, 2, 2)):
    rep = verify_supersaturation(n, rr, k, 0.05, guard=9)
    print(
        f"  n={n}, r={rr}, k={k}: {rep.qualifying} qualifying graphs among "
        f"{rep.candidates_examined} candidates in a space of {rep.graphs_scanned}, "
        f"violations = {len(rep.violations)}  [{rep.source}]"
    )

print("\nA threshold no graph reaches is reported as vacuous, not as a pass:")
rep = verify_supersaturation(6, 2, 2, 10.0)
print(f"  epsilon = 10: qualifying = {rep.qualifying}, vacuous = {rep.vacuous}")
