"""The repository's one benchmark: ``python3 -m bench`` (see ``bench/README.md``).

Every workload is the journey a user of this repository takes — train a
multiclass classifier on a cluster engine, publish it, serve it over HTTP —
driven through the public API only.  ``BENCHMARK.json`` at the repository
root names the workloads and metrics; this package measures them.
"""
