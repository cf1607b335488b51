"""Exact verification of para-Kenmotsu structures and eta-Ricci solitons."""
