"""Layered end-to-end DNN-Opt benchmark (see README.md)."""
