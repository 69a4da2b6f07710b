"""End-to-end benchmark: five named workloads, best-of-R rounds in fresh
processes, and a traced per-layer run (see ``README.md``)."""
