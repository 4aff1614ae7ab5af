"""Simulation and statistical verification of growing stochastic recursions.

The object of study is R_n = Q_n + M_n R_{n-1} with i.i.d. driving pairs
(Q, M) and R_0 = 0, in the regimes where R_n diverges (E ln|M| >= 0).
The package classifies a (Q, M) model into its regime, simulates the
recursion in overflow-free scaled arithmetic (one batched kernel,
``perpsim.scaled``), applies the regime-specific renormalization, and
checks the normalized samples against the predicted limit law with
Kolmogorov-Smirnov distances calibrated by DKW bounds. Exact enumeration and moment-recursion
oracles cover small discrete models.
"""
