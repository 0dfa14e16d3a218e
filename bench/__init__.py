"""End-to-end session benchmark for the ANMAT reproduction (see README.md)."""
