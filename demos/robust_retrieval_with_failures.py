"""Robust retrieval: 5 replicated databases, any 2 may silently fail.

Runs simulated sessions over the wire codecs, drops different node pairs,
and shows that any 3 answers decode the same message at the same download
cost — the deployment-facing view of the any-N-of-M guarantee.

Run:  python3 demos/robust_retrieval_with_failures.py
"""

import itertools

import numpy as np

from tpir import scheme, simnet
from tpir.layout import SchemeParams

p = SchemeParams(K=2, N=3, T=2, M=5)
rng = np.random.default_rng(11)
store = scheme.MessageStore.random(p, rng)
print(f"{p.M} databases hold identical stores; any {p.N} answers suffice; "
      f"any {p.T} may collude\n")

for drop in itertools.combinations(range(p.M), p.M - p.N):
    out = simnet.run_session(p, desired=1, store=store, drop_set=drop, rng=rng)
    ok = np.array_equal(out["decoded"], store.data[1])
    m = out["metrics"]
    print(f"silent nodes {list(drop)} -> responders {m['responders']}, "
          f"{m['downloaded_symbols']} symbols, decoded: {ok}")

# a transcript replays to the same result, byte-for-byte
out = simnet.run_session(p, desired=0, store=store, drop_set={0, 4}, rng=rng)
replayed = simnet.replay_transcript(out["session"])
print(f"\ntranscript replay matches live decode: "
      f"{np.array_equal(replayed, out['decoded'])}")

# dropping more than M - N nodes is rejected before any query is sent
try:
    simnet.run_session(p, 0, store, drop_set={0, 1, 2}, rng=rng)
except ValueError as e:
    print(f"oversized drop set rejected: {e}")
