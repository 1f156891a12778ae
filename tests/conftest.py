import numpy as np
from hypothesis import HealthCheck, settings

from streamcpd import CrpState, HazardConfig, RunLengthState, recursion_step

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def trellis_joint(labels, alpha, lam):
    """Run the label sequence through the real recursion and return the
    dense joint over the final run length (linear domain)."""
    crp = CrpState(alpha)
    st = RunLengthState.initial()
    hz = HazardConfig(lam)
    for z in labels:
        psi = crp.run_predictive_many(st.run_lengths, z)
        st = recursion_step(st, np.log(psi), hz)
        crp.record_assignment(z)
    return np.exp(st.log_weights), st


def random_canonical_labels(rng, length):
    """Random label sequence with classes numbered by first appearance."""
    labels, k = [], 0
    for _ in range(length):
        z = int(rng.integers(1, k + 2))
        labels.append(z)
        k = max(k, z)
    return labels


def all_canonical_sequences(length):
    """Every canonical label sequence of the given length."""
    seqs = [[]]
    for _ in range(length):
        nxt = []
        for s in seqs:
            k = max(s, default=0)
            for z in range(1, k + 2):
                nxt.append(s + [z])
        seqs = nxt
    return seqs
