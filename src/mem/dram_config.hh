/**
 * @file
 * Timing parameters of one simulated DDR4 channel, expressed in
 * accelerator clock cycles.
 *
 * The defaults model the AWS f1 setup of the paper at a 250 MHz
 * accelerator clock: 16 GB/s pin bandwidth per channel equals exactly
 * 64 bytes per accelerator cycle, and the shell's ~50% efficiency on
 * single 64 B transactions (Section V-A) is captured by a per-transaction
 * overhead of one bus slot, so a lone cache-line read costs two slots
 * (8 GB/s) while long bursts approach peak.
 */

#ifndef GMOMS_MEM_DRAM_CONFIG_HH
#define GMOMS_MEM_DRAM_CONFIG_HH

#include <cstdint>

#include "src/sim/types.hh"

namespace gmoms
{

struct DramConfig
{
    /** Peak data-bus throughput, bytes per accelerator cycle. */
    std::uint32_t bus_bytes_per_cycle = 64;

    /** Fixed per-transaction bus occupancy overhead, cycles. */
    std::uint32_t request_overhead_cycles = 1;

    /** Additional overhead when the access misses the open row.
     *  Calibrated so single 64 B reads sustain ~8 GB/s per channel
     *  (the paper's measured shell efficiency) while long bursts
     *  approach the 16 GB/s pin rate. */
    std::uint32_t row_miss_extra_cycles = 1;

    /** Loaded latency from end of bus service to response, cycles. */
    std::uint32_t load_latency_cycles = 60;

    /** Number of DRAM banks tracked for row-buffer locality. */
    std::uint32_t num_banks = 16;

    /** Row-buffer size per bank, bytes (power of two). */
    std::uint32_t row_bytes = 4096;

    /** Extra bus gap when consecutive transactions hit the same bank
     *  (HBM2 pseudo-channels: tCCD_L-class turnaround on the shared
     *  bank group). 0 on DDR4, where the wide bus hides it, so a DDR4
     *  channel never charges it. */
    std::uint32_t same_bank_gap_cycles = 0;

    /** Request queue depth per input port. Deep queues matter: the
     *  MOMS deliberately lets misses pile up in front of the DRAM so
     *  that in-flight cache lines accumulate secondary misses
     *  (Section II: "the latency and the contention on the memory
     *  system is leveraged to maximize the reuse opportunities of
     *  in-flight cache lines"). 64-deep ports measurably starve the
     *  merge window on memory-bound graphs (3x SCC throughput loss on
     *  the twitter stand-in); 256 is past the saturation knee — see
     *  ablation_moms_sizing. */
    std::uint32_t port_queue_depth = 256;

    /** Response queue depth per input port. */
    std::uint32_t resp_queue_depth = 64;

    /** Channel memory capacity in bytes (16 GiB on f1); checked by the
     *  layout builder, not enforced per access. */
    std::uint64_t capacity_bytes = 16ull << 30;
};

} // namespace gmoms

#endif // GMOMS_MEM_DRAM_CONFIG_HH
