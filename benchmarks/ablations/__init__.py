"""Access methods and joins that only the ablation benchmarks run.

The paper evaluates INLJN over a B+-tree and an interval tree (the
engine's INLJN probes only B+-trees); its Section 5 spatial route and
footnote [8]'s XR-tree / XR-stack are discussion points.  They are
reproduced here as ablations A3, A6 and A9 and kept out of the engine
(``repro``):

* :mod:`.rtree` and :mod:`.spatial` — the R-tree and the two spatial
  containment joins (A3, ``bench_ablation_spatial.py``);
* :mod:`.stabprobe` and :mod:`.xrtree` — the paper's INLJN stabbing an
  interval tree, and the XR-tree it can stab instead (A6,
  ``bench_ablation_probe.py``);
* :mod:`.xrstack` — the XR-stack skip join (A9,
  ``bench_ablation_xrstack.py``).
"""
