"""Signed distances, signed Wiener indices and canceling signings of
graphs: an exact, deterministic, stdlib-only toolkit."""
