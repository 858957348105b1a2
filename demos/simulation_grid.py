"""
A small Monte Carlo study of Type I error
=========================================

Null trials (both arms share the same prevalence) are generated and fit
repeatedly; the fraction of 5% level rejections estimates each variance
estimator's Type I error.  With few clusters the uncorrected robust
sandwich rejects too often; KC pulls the rate back toward the nominal
level.  Desk-scale replicate counts keep the runtime to seconds.
"""

from crtgee import (
    TYPE1_BAND,
    EstimatorKind,
    Family,
    FixedSize,
    Link,
    ModelSpec,
    Scenario,
    result_lines,
    run_scenario,
)
from crtgee.simulate import RESULT_COLUMNS

# --- one grid cell ------------------------------------------------------------
# 10 clusters of 40, prevalence 0.3 in both arms, ICC 0.02.
scenario = Scenario(
    n_clusters=10,
    sizes=FixedSize(40),
    pi0=0.3,
    pi1=0.3,
    icc=0.02,
    replicates=400,
    seed=20260821,
)
model = ModelSpec(Family.BINOMIAL, Link.LOG)
kinds = (EstimatorKind.ROBUST, EstimatorKind.KC, EstimatorKind.MD)

results = run_scenario(scenario, models=(model,), kinds=kinds)
cell = results[0]

print(f"model {cell.model.label()}, {cell.n_replicates} replicates")
print(f"converged: {cell.n_converged} ({cell.convergence_rate:.1%})")
print(f"empirical SD of beta1 over converged fits: {cell.esd:.4f}")

# --- operating characteristics per estimator ----------------------------------
# percent bias compares the mean estimated SE to the empirical SD; type1 is
# the rejection rate of the true null.  The acceptability band around the
# nominal 5% level is the binomial two-sigma range for 1000 replicates.
lo, hi = TYPE1_BAND
print(f"\nacceptability band for Type I error: ({lo}, {hi})")
print(f"{'estimator':<10} {'mean SE':>8} {'bias %':>8} {'type I':>8}  verdict")
for kind, summ in cell.estimators.items():
    verdict = "ok" if summ.acceptable else "outside band"
    print(
        f"{kind.value:<10} {summ.mean_se:>8.4f} {summ.percent_bias:>+8.1f}"
        f" {summ.type1_error:>8.4f}  {verdict}"
    )

# --- the results-file lines, as `crtgee simulate` writes them -----------------
# one line per estimator; an empty cell is a summary with no value
print("\nresults-file lines (one per estimator):")
print(",".join(RESULT_COLUMNS))
for line in result_lines(cell):
    print(line)
