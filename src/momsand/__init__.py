"""Numerical laboratory for two-sided L_p bounds on sums of products.

The objects of study are sums sum_i v_i R_i where R_0 = 1 and R_i is the
running product X_1 ... X_i of i.i.d. factors, the perpetuity partial sums
S_n = sum R_{i-1} B_i and the torus-side Riesz products.  The package
re-exports nothing: import each name from the module that defines it, as in
``from momsand.montecarlo import run_sandwiches``.

    dist_core    laws, moments and truncated moments, seeded sampling
    assumptions  hypothesis fits and certificates, PairSpec
    constants    (A, q) scans and the explicit constants with their traces
    montecarlo   engine choice, enumerated and sampled estimates, verdicts,
                 the perpetuity bracket and the signed counterexample
    moments      enclosures from exact moments
    riesz        torus quadrature and the Riesz product comparison
    cli          the command line
    errors       typed errors
"""

__version__ = "0.1.0"
