"""What the privacy auditors actually check, on a small instance.

Three layers: the exhaustive distributional invariance of secret-matrix row
selections (exact, at enumerable sizes), the structural per-coalition check
(coordinate counts + certified-invertible code submatrices), and an
empirical chi-square comparison of query distributions, including a
deliberately broken variant that the tests must catch.

Run:  python3 demos/privacy_audit_walkthrough.py  (~20 s)
"""

import numpy as np

from tpir import audit, scheme
from tpir.layout import SchemeParams

# 1. exact invariance at enumerable size: for every invertible G and every
#    row selection I, G @ S[I, :] is distributed exactly like S[:beta, :]
res = audit.lemma1_exhaustive_check(alpha=3, beta=2, q=2)
print(f"secret-row invariance over GL(3,2): {res.details['cases']} cases, "
      f"pass={res.passed}")

# 2. structural: what any T databases jointly see has the same shape
#    regardless of the desired index
p = SchemeParams(K=2, N=3, T=2, M=4)
rng = np.random.default_rng(3)
secrets = scheme.sample_secrets(p, rng)
plan = scheme.build_queries(p, 0, secrets)
res = audit.structural_privacy_check(plan)
print(f"structural check over all {res.details['subsets_checked']} coalitions: "
      f"pass={res.passed} "
      f"({res.details['per_message_variables']} variables per message each)")

# the same check catches a plan whose side information skips MDS coding
broken = scheme.build_queries(p, 0, secrets)
audit.without_alignment(broken)
res = audit.structural_privacy_check(broken)
print(f"broken plan caught: {not res.passed} ({res.details})")

# 3. empirical: query bytes sampled under each desired index are compared
#    with a chi-square test; the honest scheme passes, the broken one fails
small = SchemeParams(K=2, N=2, T=1, M=2)
honest = audit.empirical_privacy_check(small, (0,), 4000,
                                       rng=np.random.default_rng(3))
print(f"empirical honest: min p = {honest.details['min_p']:.3f} "
      f"(> 0.001 required), pass={honest.passed}")
rejected = audit.empirical_privacy_check(small, (0,), 4000,
                                         rng=np.random.default_rng(3),
                                         break_alignment=True)
print(f"empirical broken: min p = {rejected.details['min_p']:.2e} "
      f"(rejected as required: {rejected.passed})")
