"""
Fitting a cluster randomized trial and comparing variance corrections
=====================================================================

A two-arm trial with a handful of clusters, analyzed with a marginal
log-binomial model so the arm coefficient is a log risk ratio.  The
robust sandwich variance is biased downward with this few clusters;
the corrected estimators widen the interval to compensate.
"""

import numpy as np

from crtgee import (
    Cluster,
    EstimatorKind,
    Family,
    Link,
    ModelSpec,
    TrialDataset,
    compute_estimates,
    fit_gee,
    wald_inference,
)

# --- assemble a small trial: 5 control and 5 treated clusters ---------------
# Outcomes are binary (event / no event); cluster sizes vary.
rng = np.random.default_rng(7)
clusters = []
for i in range(10):
    arm = 0 if i < 5 else 1
    p = 0.45 if arm == 0 else 0.28
    m = int(rng.integers(8, 25))
    clusters.append(Cluster(id=i, arm=arm, outcomes=(rng.random(m) < p).astype(float)))
data = TrialDataset(tuple(clusters))

print(f"{data.n_clusters} clusters, {data.n_obs} participants")
for c in data.clusters:
    print(f"  cluster {c.id}: arm {c.arm}, {c.size} participants, {int(c.outcomes.sum())} events")

# --- fit the marginal model --------------------------------------------------
spec = ModelSpec(Family.BINOMIAL, Link.LOG)
fit = fit_gee(data, spec)

print(f"\nconverged in {fit.iterations} iterations")
print(f"beta (intercept, arm): {fit.beta}")
print(f"risk ratio exp(beta1): {np.exp(fit.beta[1]):.4f}")
print(f"working ICC estimate:  {fit.alpha_hat:.4f}")
print(f"dispersion estimate:   {fit.phi_hat:.4f}")

# --- every variance estimator on the same fit --------------------------------
# MB is the model-based (naive) variance; ROBUST is the uncorrected sandwich;
# KC, MD, FG, MBN are small-sample corrections; AVG averages KC and MD.
estimates = compute_estimates(fit)

print(f"\n{'estimator':<10} {'SE(beta1)':>10}")
for kind, est in estimates.items():
    print(f"{kind.value:<10} {est.se(1):>10.4f}")

# The multiplicative corrections are ordered by construction:
# SE_robust <= SE_kc <= SE_md, with AVG between KC and MD.
se = {kind: est.se(1) for kind, est in estimates.items()}
assert se[EstimatorKind.ROBUST] <= se[EstimatorKind.KC] <= se[EstimatorKind.MD]
print("\nordering holds: robust <= KC <= MD")

# --- inference under robust vs corrected variances ---------------------------
# The Wald test uses a t reference with N - 2 degrees of freedom.
for kind in (EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD):
    res = wald_inference(fit, estimates[kind])
    lo, hi = res.ci_effect
    print(
        f"{kind.value:<8} RR {res.estimate_effect:.3f} "
        f"[{lo:.3f}, {hi:.3f}]  t({res.df}) = {res.t_stat:+.3f}, p = {res.p_value:.4f}"
    )

print("\nWider intervals under KC and MD reflect the small-sample correction.")
