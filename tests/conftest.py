import numpy as np
from hypothesis import HealthCheck, settings

from streamcpd import HazardConfig
from streamcpd.crp import LabelCounts
from streamcpd.emission import _gradients
from streamcpd.runlength import RunLengthState, recursion_step

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def crp_rule(alpha):
    """The CRP's seating-rule constants, as LabelCounts takes them:
    num(w) = w above num(0) = alpha, and c = alpha."""
    return {"smoothing": 0.0, "unseen": alpha, "c": alpha}


def dirichlet_rule(k_fixed, beta):
    """The symmetric Dirichlet's: num(w) = w + beta, and c = K beta."""
    return {"smoothing": beta, "unseen": beta, "c": k_fixed * beta}


def trellis_joint(labels, alpha, lam):
    """Run the label sequence through the real recursion and return the
    dense joint over the final run length (linear domain)."""
    counts = LabelCounts(**crp_rule(alpha))
    st = RunLengthState.initial()
    hz = HazardConfig(lam)
    for z in labels:
        psi = counts.window_predictive(z, st.run_lengths)
        st = recursion_step(st, np.log(psi), hz)[0]
        counts.record(z)
    return np.exp(st.log_weights), st


def gaussian_gradients(x, mu, var, gamma):
    """Gradient of gamma * log N(x; mu, var) w.r.t. (mu, var), from the
    helper em_step's M-step runs."""
    d = x - mu
    return _gradients(gamma, d, d * d, 2.0 * var, var)


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


def write_series(values, path):
    """A one-column CSV of ``values`` under an ``x`` header, each to 17
    significant digits, so the CLI reads back exactly these doubles."""
    rows = "".join("%.17g\n" % v for v in np.asarray(values, dtype=float).tolist())
    path.write_text("x\n" + rows, encoding="utf-8")
