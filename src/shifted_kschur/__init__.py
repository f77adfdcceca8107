"""Exact combinatorics of shifted (set-valued) tableaux.

Enumerates shifted semistandard and set-valued tableaux on straight and
skew shapes, builds the Schur P/Q and K-theoretic GP/GQ polynomials as
exact sparse Laurent polynomials, and verifies their special-value,
parity, vanishing, coproduct and pairing properties mechanically.
"""
