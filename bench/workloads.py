"""The three benchmark workloads, driven through tpir's public API.

Each workload has ``setup()``, then per operation ``inputs(i)`` (drawn from
the workload seed, outside the timed call), ``run(args)`` (the timed call)
and ``check(i, args, out)`` (outside the timed call), and finally
``verify()``, which returns the operations that failed a check that needs
the whole run. Every call into tpir goes through a module or class
attribute, so the traced run's wrappers see it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from tpir import audit, layout, mds, scheme, simnet
from tpir.layout import SchemeParams

# K=4 messages of L = N^K = 625 symbols over GF(877), 7 databases, any 5 decode,
# any 2 may collude.
L625 = SchemeParams(4, 5, 2, 7)
# The audit workload's grid point, and the acceptance gate's empirical point.
AUDIT_POINT = SchemeParams(4, 4, 2, 6)
GATE_POINT = SchemeParams(2, 2, 1, 2)
AUDIT_TRIALS = 10
# The gate draws 20 000 plans per index; 1 000 keeps several passes in a run.
# The broken variant's p-value at 1 000 is below 1e-80, so rejecting at 1e-6
# keeps the negative control decisive while an honest pass is falsely
# rejected about once in a million passes rather than once in a thousand.
EMPIRICAL_SAMPLES = 1000
EMPIRICAL_SIGNIFICANCE = 1e-6


def rate_is_capacity(p: SchemeParams, downloaded_symbols: int | None = None) -> bool:
    """achieved_rate(p) == capacity(K, N, T) exactly, and so is the measured rate."""
    cap = audit.capacity(p.K, p.N, p.T)
    if not isinstance(cap, Fraction) or scheme.achieved_rate(p) != cap:
        return False
    return downloaded_symbols is None or Fraction(p.L, downloaded_symbols) == cap


def warm_generators(p: SchemeParams):
    """Fill mds's generator cache for every code any desired index uses."""
    for desired in range(p.K):
        lay = layout.build_layout(p, desired)
        mds.generator(mds.MdsSpec(lay.desired_code_len, p.L, p.q))
        for b in lay.blocks:
            if not b.contains_desired and b.alpha:
                mds.generator(mds.MdsSpec(b.code_len, b.alpha, p.q))


class Retrieve:
    """One full user session per operation: simnet.run_session with fresh secrets."""

    name = "retrieve-L625"
    min_ops = 2  # a session takes 11-20 s: report the median of at least two
    setup_runs = 5  # fresh-process set-ups whose median is setup_s

    def __init__(self, seed: int, params: SchemeParams = L625):
        self.seed, self.p = seed, params
        self.upload_bytes = self.download_bytes = None

    def setup(self):
        self.store = scheme.MessageStore.random(self.p, np.random.default_rng([self.seed, 0]))
        warm_generators(self.p)

    def inputs(self, i):
        p = self.p
        rng = np.random.default_rng([self.seed, 1, i])
        desired = int(rng.integers(p.K))
        silent = rng.choice(p.M, size=int(rng.integers(p.M - p.N + 1)), replace=False)
        return desired, sorted(silent.tolist()), np.random.default_rng([self.seed, 2, i])

    def run(self, args):
        desired, silent, rng = args
        return simnet.run_session(self.p, desired, self.store, drop_set=silent, rng=rng)

    def check(self, i, args, out):
        m = out["metrics"]
        self.upload_bytes, self.download_bytes = m["upload_bytes"], m["download_bytes"]
        return np.array_equal(out["decoded"], self.store.data[args[0]]) and rate_is_capacity(
            self.p, m["downloaded_symbols"]
        )

    def verify(self):
        return set()


class Serve:
    """One database answering one wire query per operation: DatabaseNode.answer.

    The pool holds one secret draw's plans for every desired index, each
    encoded for all M databases; operations take them round-robin.
    """

    name = "serve-L625"
    setup_runs = 1  # one set-up is a full secret draw, 12-15 s

    def __init__(self, seed: int, params: SchemeParams = L625):
        self.seed, self.p = seed, params
        self.min_ops = params.K * params.M  # every pool entry answered at least once

    def setup(self):
        p = self.p
        self.store = scheme.MessageStore.random(p, np.random.default_rng([self.seed, 0]))
        rng = np.random.default_rng([self.seed, 3])
        self.secrets = scheme.sample_secrets(p, rng)
        self.plans = [scheme.build_queries(p, d, self.secrets) for d in range(p.K)]
        self.pool = [
            (d, m, simnet.encode_query(plan.matrices[m], p.q, p.K, p.L))
            for d, plan in enumerate(self.plans)
            for m in range(p.M)
        ]
        self.nodes = [simnet.DatabaseNode(m, self.store) for m in range(p.M)]
        self.offset = int(rng.integers(len(self.pool)))
        self.first_answer = {}  # pool index -> first answer bytes produced
        self.ops_of = {}  # pool index -> operations that answered it
        self.upload_bytes = sum(len(qb) for d, _, qb in self.pool if d == 0)
        self.download_bytes = None

    def inputs(self, i):
        return (self.offset + i) % len(self.pool)

    def run(self, slot):
        _, m, query = self.pool[slot]
        return self.nodes[m].answer(query)

    def check(self, i, slot, out):
        """An answer must repeat the slot's first answer; ``verify`` decodes those."""
        self.ops_of.setdefault(slot, []).append(i)
        first = self.first_answer.setdefault(slot, out)
        return isinstance(out, bytes) and out == first

    def verify(self):
        """Decode each plan from two N-subsets of databases that cover all M.

        Every answer that took part in a wrong or failed decode marks all
        operations of its pool entry as failed.
        """
        p = self.p
        slot = {(d, m): s for s, (d, m, _) in enumerate(self.pool)}
        bad = set()
        for d, plan in enumerate(self.plans):
            decoder = scheme.Decoder(p, d, self.secrets, plan.layout)
            answered = [m for m in range(p.M) if slot[d, m] in self.first_answer]
            subsets = {tuple(answered[: p.N]), tuple(answered[-p.N :])}
            for sub in subsets:
                slots = {slot[d, m] for m in sub}
                try:
                    answers = [simnet.decode_answer(self.first_answer[s])[0] for s in slots]
                    ok = len(sub) == p.N and np.array_equal(
                        decoder.decode(answers), self.store.data[d]
                    )
                except (ValueError, KeyError, IndexError, TypeError):
                    ok = False
                if not ok:
                    bad |= slots
        plan0 = [slot[0, m] for m in range(p.M) if slot[0, m] in self.first_answer]
        self.download_bytes = sum(len(self.first_answer[s]) for s in plan0[: p.N])
        return {i for s in bad for i in self.ops_of.get(s, ())}


class Audit:
    """One pass of the verification gate per operation, through tpir.audit.

    run_audit at (4,4,2,6) honest and with broken alignment (which must be
    detected), empirical_privacy_check at (2,2,1,2) on T-subset (0,) honest
    and broken (which must be rejected), and one wire session at (2,2,1,2).
    """

    name = "audit"
    min_ops = 1
    setup_runs = 5  # fresh-process set-ups whose median is setup_s

    def __init__(self, seed: int):
        self.seed, self.point, self.gate = seed, AUDIT_POINT, GATE_POINT
        self.upload_bytes = self.download_bytes = None

    def setup(self):
        self.store = scheme.MessageStore.random(self.gate, np.random.default_rng([self.seed, 0]))
        warm_generators(self.point)
        warm_generators(self.gate)

    def inputs(self, i):
        rng = np.random.default_rng([self.seed, 4, i])
        audit_seed = int(rng.integers(2**31))
        desired = int(rng.integers(self.gate.K))
        return audit_seed, desired, [np.random.default_rng([self.seed, 5, i, k]) for k in range(3)]

    def run(self, args):
        audit_seed, desired, (honest_rng, broken_rng, session_rng) = args
        t_subset = tuple(range(self.gate.T))
        return (
            audit.run_audit(self.point, trials=AUDIT_TRIALS, seed=audit_seed),
            audit.run_audit(self.point, trials=AUDIT_TRIALS, seed=audit_seed, break_alignment=True),
            audit.empirical_privacy_check(
                self.gate, t_subset, EMPIRICAL_SAMPLES, rng=honest_rng,
                significance=EMPIRICAL_SIGNIFICANCE,
            ),
            audit.empirical_privacy_check(
                self.gate, t_subset, EMPIRICAL_SAMPLES, rng=broken_rng, break_alignment=True,
                significance=EMPIRICAL_SIGNIFICANCE,
            ),
            simnet.run_session(self.gate, desired, self.store, rng=session_rng),
        )

    def check(self, i, args, out):
        honest, broken, empirical, empirical_broken, session = out
        broken_checks = {c.name: c.passed for c in broken.checks}
        m = session["metrics"]
        self.upload_bytes, self.download_bytes = m["upload_bytes"], m["download_bytes"]
        return (
            honest.passed
            and broken.passed
            and broken_checks.get("structural_privacy_detects_broken", False)
            and empirical.passed
            and empirical_broken.name == "empirical_privacy_broken"
            and empirical_broken.passed
            and rate_is_capacity(self.point)
            and rate_is_capacity(self.gate, m["downloaded_symbols"])
            and np.array_equal(session["decoded"], self.store.data[args[1]])
        )

    def verify(self):
        return set()


WORKLOADS = {w.name: w for w in (Retrieve, Serve, Audit)}
