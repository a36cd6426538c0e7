"""Access methods and joins that only the ablation benchmarks run.

The paper evaluates INLJN over a B+-tree and an interval tree; its
Section 5 spatial route and footnote [8]'s XR-tree / XR-stack are
discussion points, reproduced here as ablations A3, A6 and A9 and kept
out of the engine (``repro``):

* :mod:`.rtree` and :mod:`.spatial` — the R-tree and the two spatial
  containment joins (A3, ``bench_ablation_spatial.py``);
* :mod:`.xrtree` — the XR-tree and INLJN probing it (A6,
  ``bench_ablation_probe.py``);
* :mod:`.xrstack` — the XR-stack skip join (A9,
  ``bench_ablation_xrstack.py``).
"""
