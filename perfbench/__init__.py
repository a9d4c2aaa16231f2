"""End-to-end benchmark of the lukewarm-repro commands (see README.md)."""
