/**
 * @file
 * Table IV — External memory bandwidth and power of the compared
 * platforms, plus the derived efficiency context used by Fig. 16.
 * These are the paper's platform constants; the FPGA power is the
 * paper's fpga-describe-local-image measurement and cannot be
 * re-measured in simulation (DESIGN.md substitution).
 */

#include "bench/bench_common.hh"

using namespace gmoms;
using namespace gmoms::bench;

int
main()
{
    std::printf("=== Table IV: platform bandwidth and power ===\n\n");
    Table table(
        {"platform", "system", "ext. mem bandwidth", "power"});
    table.addRow({"This work, FabGraph", "FPGA (AWS f1, VU9P)",
                  "64 GB/s (4x DDR4)", "23 W"});
    // The simulated HBM substrate (MemSubstrateConfig::hbm2, fig_hbm): a
    // U280-class half stack at the same accelerator clock. Not a paper
    // row — it contextualizes the frontier bench against the GPU's HBM2
    // below.
    table.addRow({"This work (simulated)", "FPGA (U280-class, HBM2)",
                  "128 GB/s (16pc HBM2)", "n/a (simulated)"});
    table.addRow({"Gunrock", "GPU (Tesla V100, 16 GB HBM2)", "900 GB/s",
                  "300 W*"});
    table.addRow({"Ligra, GraphMat",
                  "CPU (2x Xeon E5-2680 v3, 16ch DDR4)", "233 GB/s",
                  "224 W"});
    table.print();
    std::printf("\n*GPU power is the board TDP (overestimate), as in "
                "the paper.\n\n");

    std::printf("Derived gaps used by the paper's efficiency claims:\n");
    Table gaps({"metric", "GPU/FPGA", "CPU/FPGA"});
    gaps.addRow({"bandwidth", fmt(900.0 / 64, 1) + "x",
                 fmt(233.0 / 64, 1) + "x"});
    gaps.addRow({"power", fmt(300.0 / 23, 1) + "x",
                 fmt(224.0 / 23, 1) + "x"});
    gaps.print();
    std::printf("\nWith these gaps, matching CPU throughput in absolute "
                "terms makes the FPGA design\n1.1-5.8x more "
                "bandwidth-efficient and 3.0-15.3x more power-efficient "
                "(Section V-F).\n");
    return 0;
}
