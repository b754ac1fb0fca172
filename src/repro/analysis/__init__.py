"""Closed-form analysis of the paper's probabilistic claims (system S9).

Formulas from §3.1/§3.2 (request-silence probability, long-term
bufferer distribution) and mean-field models of the recovery and search
dynamics used to sanity-check the simulator.
"""
