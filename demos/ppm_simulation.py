##########################################################################
# end-to-end simulation: schedule, codebook, error trials, adversary KL
##########################################################################

import numpy as np

from covertcap import (
    Bdmc,
    CovertInstance,
    DecodingMetric,
    ProbVector,
    chunk_statistic_mean,
    covertness_exact,
    covertness_mc,
    estimate_error,
    expurgate,
    f_s,
    generate_codebook,
    ppm_output_kl,
    ppm_params,
    tilt_function,
)

## a small binary instance so the adversary's output law can be enumerated

WY = np.array([[0.7, 0.3], [0.4, 0.6]])
WZ = np.array([[0.7, 0.3], [0.4, 0.6]])
Q = np.array([[0.9, 0.1], [0.1, 0.9]])
DELTA = 0.3
SEED = 42

inst = CovertInstance(wy=Bdmc(WY), wz=Bdmc(WZ), q=DecodingMetric(Q), delta=DELTA)

## the pulse schedule: weight, chunk layout, and leftover tail for this n

Q0, Q1 = ProbVector(WZ[0]), ProbVector(WZ[1])
params = ppm_params(12, DELTA, Q0, Q1)
print(f"schedule: n={params.n} pulses={params.l} chunk={params.w} tail={params.r}")

book = generate_codebook(params, num_messages=8, num_keys=4, seed=SEED)
flat = book.codewords.reshape(-1, params.n)
print(f"codebook: {book.num_keys} keys x {book.num_messages} messages,"
      f" every word has weight {int(flat.sum(axis=1)[0])}")

## Monte-Carlo decoding error per (key, message) pair; at a toy blocklength
## the rates are collision-dominated, which is what expurgation is for

report = estimate_error(inst, book, trials_per_pair=2000, seed=SEED)
print(f"error rates: max={report.max_overall:.4f} ci95={report.ci95_halfwidth:.4f}")

# drop the worst quarter of messages and measure again
kept = expurgate(report, book, fraction=0.25)
report2 = estimate_error(inst, kept, trials_per_pair=2000, seed=SEED)
print(f"after expurgation ({kept.num_messages} messages kept):"
      f" max={report2.max_overall:.4f}")

## adversary's divergence: exact enumeration vs sampled estimate, beside the
## exact divergence of the output law averaged over all books of this schedule

exact = covertness_exact(kept, inst.wz)
mc = covertness_mc(kept, inst.wz, samples=20_000, seed=SEED)
print(f"covertness exact: {exact.kl_estimate:.6f} nats ({exact.samples} states)")
print(f"covertness mc:    {mc.kl_estimate:.6f} +/- {mc.stderr:.6f}"
      f" ({mc.samples} samples)")
assert abs(mc.kl_estimate - exact.kl_estimate) <= 4 * mc.stderr
ensemble = ppm_output_kl(params, Q0, Q1)
print(f"ensemble divergence: {ensemble.kl_estimate:.6f} nats ({ensemble.samples} chunk types)")

## chunk statistic: the exact E[S_w], summed over types, approaches the
## tilted rate f(1) as chunks widen

WY3 = np.array([[0.6, 0.2, 0.2], [0.2, 0.2, 0.6]])
WZ3 = np.array([[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]])
inst3 = CovertInstance(wy=Bdmc(WY3), wz=Bdmc(WZ3),
                       q=DecodingMetric(np.array([[3.0, 1, 1], [1, 1, 3.0]])),
                       delta=0.1)
target = f_s(tilt_function(inst3.q, inst3.p0, inst3.p1), 1.0)
print()
print(f"chunk statistic vs f(1) = {target:.6f}")
for w in (50, 100, 200, 400):
    exact_mean = chunk_statistic_mean(inst3.q, inst3.p0, inst3.p1, w, 1.0)
    print(f"  w={w:4d}: exact={exact_mean:.6f} exact gap={target - exact_mean:.6f}")
