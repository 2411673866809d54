"""bench_e2e: the repository's end-to-end benchmark (see README.md)."""
