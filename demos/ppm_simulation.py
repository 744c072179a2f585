##########################################################################
# end-to-end simulation: schedule, codebook, error trials, adversary KL
##########################################################################

import itertools
import math

import numpy as np

from covertcap import (
    Bdmc,
    CovertInstance,
    DecodingMetric,
    ProbVector,
    covertness_exact,
    covertness_mc,
    estimate_error,
    expurgate,
    generate_codebook,
    ppm_params,
    sample_s_statistic,
)

## a small binary instance so the adversary's output law can be enumerated

WY = np.array([[0.7, 0.3], [0.4, 0.6]])
WZ = np.array([[0.7, 0.3], [0.4, 0.6]])
Q = np.array([[0.9, 0.1], [0.1, 0.9]])
DELTA = 0.3
SEED = 42

inst = CovertInstance(wy=Bdmc(WY), wz=Bdmc(WZ), q=DecodingMetric(Q), delta=DELTA)

## the pulse schedule: weight, chunk layout, and leftover tail for this n

params = ppm_params(12, DELTA, ProbVector(WZ[0]), ProbVector(WZ[1]))
print(f"schedule: n={params.n} pulses={params.l} chunk={params.w} tail={params.r}")

book = generate_codebook(params, num_messages=8, num_keys=4, seed=SEED)
flat = book.codewords.reshape(-1, params.n)
print(f"codebook: {book.num_keys} keys x {book.num_messages} messages,"
      f" every word has weight {int(flat.sum(axis=1)[0])}")

## Monte-Carlo decoding error per (key, message) pair; at a toy blocklength
## the rates are collision-dominated, which is what expurgation is for

report = estimate_error(inst, book, trials_per_pair=2000, seed=SEED, workers=4)
print(f"error rates: max={report.max_overall:.4f} ci95={report.ci95_halfwidth:.4f}")

# drop the worst quarter of messages and measure again
kept = expurgate(report, book, fraction=0.25)
report2 = estimate_error(inst, kept, trials_per_pair=2000, seed=SEED, workers=4)
print(f"after expurgation ({kept.num_messages} messages kept):"
      f" max={report2.max_overall:.4f}")

## adversary's divergence: exact enumeration vs sampled estimate

exact = covertness_exact(kept, inst.wz)
mc = covertness_mc(kept, inst.wz, samples=20_000, seed=SEED)
print(f"covertness exact: {exact.kl_estimate:.6f} nats ({exact.samples} states)")
print(f"covertness mc:    {mc.kl_estimate:.6f} +/- {mc.stderr:.6f}"
      f" ({mc.samples} samples)")
assert abs(mc.kl_estimate - exact.kl_estimate) <= 4 * mc.stderr

## chunk statistic: sample means track the exact E[S_w], whose gap to the
## tilted rate shrinks as chunks widen; a 50,000-sample mean carries a stderr
## near 4e-3, too wide to order the gaps by itself


def exact_chunk_mean(q, p0, p1, w, s):
    """E[S_w] summed over the active output y and the type N of the w-1 idle outputs."""
    r = np.log(q.q[1]) - np.log(q.q[0])
    supp = np.flatnonzero(p0.probs > 0.0)
    a, m = supp.size, w - 1
    # stars and bars: a-1 bars among m+a-1 slots split the m idle outputs into counts N
    bars = np.array(list(itertools.combinations(range(m + a - 1), a - 1))).reshape(-1, a - 1)
    counts = np.diff(bars, prepend=-1, append=m + a - 1, axis=1) - 1
    log_fact = np.array([math.lgamma(k + 1) for k in range(m + 1)])
    mass = np.exp(log_fact[m] - log_fact[counts].sum(axis=1) + counts @ np.log(p0.probs[supp]))
    return sum(p1.probs[y] * float(mass @ (math.log(w) - np.log1p(counts @ np.exp(s * (r[supp] - r[y])))))
               for y in np.flatnonzero(p1.probs > 0.0))


WY3 = np.array([[0.6, 0.2, 0.2], [0.2, 0.2, 0.6]])
WZ3 = np.array([[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]])
inst3 = CovertInstance(wy=Bdmc(WY3), wz=Bdmc(WZ3),
                       q=DecodingMetric(np.array([[3.0, 1, 1], [1, 1, 3.0]])),
                       delta=0.1)
target = 0.4 * math.log(3)  # f(1) for the matched metric on this pair
print()
print(f"chunk statistic vs f(1) = {target:.6f}")
for w in (50, 100, 200, 400):
    rep = sample_s_statistic(inst3.q, inst3.p0, inst3.p1, w=w, s=1.0,
                             samples=50_000, seed=SEED)
    exact_mean = exact_chunk_mean(inst3.q, inst3.p0, inst3.p1, w, 1.0)
    print(f"  w={w:4d}: mean={rep.mean:.6f} stderr={rep.stderr:.6f}"
          f" exact={exact_mean:.6f} exact gap={target - exact_mean:.6f}")
    assert abs(rep.mean - exact_mean) <= 4 * rep.stderr
