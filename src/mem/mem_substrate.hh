/**
 * @file
 * Pluggable external-memory substrate selection.
 *
 * A MemSubstrateConfig names the whole off-chip memory: which kind of
 * channel MemorySystem builds (DDR4 channel vs HBM2 pseudo-channel),
 * how many of them, the address-interleave granularity that stripes
 * the flat address space across them, and the per-channel
 * timing/geometry knobs. Both kinds are one MemChannel model; the kind
 * picks the timing preset and the telemetry naming.
 *
 * The two presets are calibrated against published f1/U280 numbers at a
 * 250 MHz accelerator clock:
 *
 *  - ddr4(): 4 channels x 64 B/cycle (16 GB/s pin rate each), 4 KiB
 *    rows over 16 banks, 2 KiB interleave — the paper's AWS f1 shell.
 *  - hbm2(): 16-32 pseudo-channels x 32 B/cycle (8 GB/s-class each),
 *    1 KiB rows over 8 banks, 256 B interleave. Each pseudo-channel
 *    runs half a channel's pins with its own command stream: a lone
 *    64 B transaction moves fewer bytes per cycle than on DDR4 (the
 *    narrow bus stretches the transfer, the small rows miss more, and
 *    consecutive hits to one bank pay a turnaround gap), but at
 *    matched aggregate bandwidth twice as many channels serve more
 *    independent misses per cycle. See docs/MODEL.md "Memory
 *    substrates".
 */

#ifndef GMOMS_MEM_MEM_SUBSTRATE_HH
#define GMOMS_MEM_MEM_SUBSTRATE_HH

#include <cstdint>
#include <string>

#include "src/mem/dram_config.hh"
#include "src/sim/types.hh"

namespace gmoms
{

/** Which kind of channel MemorySystem instantiates. */
enum class MemKind : std::uint8_t
{
    Ddr4 = 0,  //!< wide bus, large rows, coarse interleave
    Hbm2 = 1,  //!< narrow pseudo-channels, fine interleave
};

/** Human-readable kind name ("ddr4" / "hbm2"). */
const char* memKindName(MemKind kind);

struct MemSubstrateConfig
{
    MemKind kind = MemKind::Ddr4;

    /** DDR4 channels or HBM2 pseudo-channels. */
    std::uint32_t channels = 4;

    /** Address-interleave granularity across channels, bytes. Must be
     *  a power of two in [kLineBytes, kInterleaveBytes]; the DRAM
     *  image aligns sections at kInterleaveBytes (the maximum), so the
     *  functional image is identical for every legal value and only
     *  timing changes. Requesters split bursts at this granularity. */
    std::uint32_t interleave_bytes = kInterleaveBytes;

    /** Per-channel timing/geometry; defaults are the DDR4 values. */
    DramConfig timing;

    /** The paper's AWS f1 substrate: @p num_channels DDR4 channels. */
    static MemSubstrateConfig ddr4(std::uint32_t num_channels = 4);

    /** An HBM2 stack exposed as @p pseudo_channels narrow
     *  pseudo-channels (16 = half a stack, 32 = full). */
    static MemSubstrateConfig hbm2(std::uint32_t pseudo_channels = 16);

    /** Aggregate peak bandwidth, bytes per accelerator cycle. */
    std::uint64_t
    peakBytesPerCycle() const
    {
        return static_cast<std::uint64_t>(channels) *
               timing.bus_bytes_per_cycle;
    }

    /** Component-name prefix of channel @p c ("dram.ch3" / "hbm.pc3");
     *  also the telemetry stall group the channel reports under. */
    std::string channelName(std::uint32_t c) const;

    /** Label suffix in the paper's config-naming style: "4ch" for
     *  4-channel DDR4, "16pc-hbm" for a 16-pseudo-channel HBM2. */
    std::string label() const;
};

} // namespace gmoms

#endif // GMOMS_MEM_MEM_SUBSTRATE_HH
