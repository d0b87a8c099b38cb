"""Quickstart: compile the reduction DSL, inspect the AST passes, run
synthesized versions on the simulator, and look at the generated CUDA.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ReductionFramework, Tunables
from repro.codegen import emit_coop_kernel


def main():
    # 1. Compile the DSL library (Figures 1 and 3 of the paper) and run
    #    the pre-processing pipeline: the three AST passes generate the
    #    warp-shuffle and atomic code variants automatically.
    fw = ReductionFramework(op="add")
    print("=== pre-processing pipeline (Figure 5) ===")
    for line in fw.pre.log:
        print(" ", line)

    # 2. The search space of synthesizable code versions (Section IV-B).
    print(f"\npruned search space: {len(fw.versions)} versions "
          f"(paper: 30), catalog: {sorted(fw.catalog)}")

    # 3. Reduce an array with a few Figure 6 versions.
    rng = np.random.default_rng(0)
    data = rng.random(100_000).astype(np.float32)
    print(f"\nnumpy reference sum: {data.sum():.3f}")
    for label in ("l", "m", "n", "p", "b"):
        result = fw.run(data, version=label)
        print(f"  version ({label})  {result.version.identifier:<22} "
              f"-> {result.value:.3f}")

    # 4. Tunable launch parameters (Section IV-C).
    tuned = fw.run(data, version="b", tunables=Tunables(block=128, grid=256))
    print(f"\nversion (b) with block=128, grid=256 -> {tuned.value:.3f}")

    # 5. Modelled wall time on the paper's three GPUs.
    print("\nmodelled time of version (p) at n=100000:")
    for arch in ("kepler", "maxwell", "pascal"):
        print(f"  {arch:>8}: {fw.time(len(data), 'p', arch) * 1e6:8.1f} us")

    # 6. The generated CUDA for the shuffle variant (Listing 4's shape).
    print("\n=== CUDA for the warp-shuffle variant (VS) ===")
    print(emit_coop_kernel(fw.pre.coop_variant("VS")))


if __name__ == "__main__":
    main()
