"""Walk through the canonical small case: 2 messages, 3 databases, any 2 may collude.

Shows the full lifecycle — layout, secret sampling, query construction,
answering, interference cancellation, decoding — and checks the achieved
rate 9/15 = 3/5 against the capacity formula.

Run:  python3 demos/worked_example_two_messages.py
"""

import numpy as np

from tpir import audit, cli, scheme
from tpir.layout import SchemeParams, build_layout, total_download

p = SchemeParams(K=2, N=3, T=2, M=3)
print(f"params: {p.K} messages of N^K = {p.L} symbols over GF({p.q}), "
      f"{p.M} databases, privacy against any {p.T}\n")

# The layout splits each database's answer into blocks by which messages mix.
cli.main(["layout", "-K", str(p.K), "-N", str(p.N), "-T", str(p.T), "-M", str(p.M)])
lay = build_layout(p, desired=0)

# The user privately samples one invertible matrix per message ...
rng = np.random.default_rng(7)
secrets = scheme.sample_secrets(p, rng)

# ... and materializes one coefficient matrix per database. Note the store is
# not an input: queries cannot depend on message contents.
plan = scheme.build_queries(p, desired=0, secrets=secrets, layout=lay)
print(f"\nquery shape per database: {plan.matrices[0].shape} "
      f"(rows x stacked-message columns)")

# A query travels as its non-zero segments: row r of block B touches only the
# messages in B, so the zero segments outside the block pattern are not sent.
present, _ = scheme.query_segments(plan.matrices[0], p.K, p.L)
print(f"segments sent to db 0: {int(present.sum())} of {present.size} (rows x messages)")

store = scheme.MessageStore.random(p, rng)
answers = [
    scheme.answer_query(m, *scheme.query_segments(plan.matrices[m], p.K, p.L), store)
    for m in range(p.M)
]
for a in answers:
    print(f"db {a.db_id} answers {list(a.values)}")

decoded = scheme.Decoder(p, 0, secrets, lay).decode(answers)
assert np.array_equal(decoded, store.data[0])
print(f"\ndecoded message 0: {list(decoded)} — exact match")

rate = scheme.achieved_rate(p)
cap = audit.capacity(p.K, p.N, p.T)
print(f"rate = {p.L}/{total_download(p)} = {rate}, capacity = {cap}, "
      f"equal: {rate == cap}")
