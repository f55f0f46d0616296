/**
 * @file
 * HBM2 pseudo-channel substrate: micro-level channel timing (narrow
 * bus, per-transaction overhead, same-bank turnaround gap, fine
 * interleave) and system-level guarantees (values identical to DDR4,
 * engine-mode bit-exactness, validate() rules).
 */

#include <gtest/gtest.h>

#include "src/accel/accelerator.hh"
#include "src/accel/session.hh"
#include "src/graph/datasets.hh"
#include "src/graph/generator.hh"
#include "src/graph/reorder.hh"
#include "src/mem/memory_system.hh"
#include "src/sim/engine.hh"
#include "src/sim/rng.hh"

namespace gmoms
{
namespace
{

struct HbmFixture : public ::testing::Test
{
    Engine eng;

    std::unique_ptr<MemorySystem>
    make(std::uint32_t pseudo_channels, std::uint32_t ports)
    {
        auto sys = std::make_unique<MemorySystem>(
            eng, MemSubstrateConfig::hbm2(pseudo_channels), ports);
        sys->store().resize(1 << 20);
        return sys;
    }

    Cycle
    timeRead(MemPort& port, Addr addr, std::uint32_t bytes)
    {
        EXPECT_TRUE(port.send(MemReq{addr, bytes, 1, false}));
        std::optional<MemResp> resp;
        bool done = eng.runUntil(
            [&] {
                if (!resp)
                    resp = port.receive();
                return resp.has_value();
            },
            100000);
        EXPECT_TRUE(done);
        EXPECT_EQ(resp->addr, addr);
        EXPECT_EQ(resp->bytes, bytes);
        return eng.now();
    }
};

TEST_F(HbmFixture, SingleReadLatency)
{
    const MemSubstrateConfig sub = MemSubstrateConfig::hbm2(1);
    auto sys = make(1, 1);
    MemPort port = sys->port(0);
    const Cycle t0 = eng.now();
    const Cycle t1 = timeRead(port, 0, 64);
    // 1 cycle queue in + service (2 data beats on the 32 B bus + 1
    // overhead + 2 row miss) + load latency + 1 queue out, plus
    // polling slack.
    const Cycle expect_min = sub.timing.load_latency_cycles + 6;
    EXPECT_GE(t1 - t0, expect_min);
    EXPECT_LE(t1 - t0, expect_min + 6);
    EXPECT_EQ(sys->channel(0).stats().reads, 1u);
    EXPECT_EQ(sys->channel(0).stats().bytes_read, 64u);
}

TEST_F(HbmFixture, NarrowBusSinglesWasteMoreThanBursts)
{
    // A scattered 64 B read (new row every time, the vertex-miss
    // pattern) spends 2 data slots against 5 charged bus cycles (40%
    // of peak); a full 256 B interleave-unit burst spends 8 of 11
    // (~73%). The inefficiency gap is the core of the HBM trade and
    // must be visible in busy_cycles.
    const MemSubstrateConfig sub = MemSubstrateConfig::hbm2(1);
    auto singles = make(1, 1);
    MemPort sp = singles->port(0);
    for (int i = 0; i < 8; ++i)
        timeRead(sp, static_cast<Addr>(i) * sub.timing.row_bytes, 64);
    const auto& st = singles->channel(0).stats();
    const double single_eff =
        static_cast<double>(st.bytes_read) / st.busy_cycles;

    auto bursts = make(1, 1);
    MemPort bp = bursts->port(0);
    for (int i = 0; i < 8; ++i)
        timeRead(bp, static_cast<Addr>(i) * 256, 256);
    const auto& bt = bursts->channel(0).stats();
    const double burst_eff =
        static_cast<double>(bt.bytes_read) / bt.busy_cycles;

    EXPECT_EQ(st.bytes_read, bt.bytes_read / 4);
    EXPECT_GT(burst_eff, single_eff * 1.4);
    // Absolute anchors: peak is 32 B/cycle.
    EXPECT_LT(single_eff, 0.5 * 32);
    EXPECT_GT(burst_eff, 0.6 * 32);
}

TEST_F(HbmFixture, SameBankBackToBackChargesGapCycle)
{
    const MemSubstrateConfig sub = MemSubstrateConfig::hbm2(1);
    // Different banks: rows 0 and 1 (bank = row % 8). Both row-miss.
    auto diff = make(1, 1);
    MemPort dp = diff->port(0);
    timeRead(dp, 0, 64);
    timeRead(dp, sub.timing.row_bytes, 64);

    // Same bank: rows 0 and num_banks map to bank 0. Both row-miss.
    auto same = make(1, 1);
    MemPort sp = same->port(0);
    timeRead(sp, 0, 64);
    timeRead(sp, Addr{sub.timing.row_bytes} * sub.timing.num_banks, 64);

    EXPECT_EQ(same->channel(0).stats().busy_cycles,
              diff->channel(0).stats().busy_cycles +
                  sub.timing.same_bank_gap_cycles);
    EXPECT_EQ(same->channel(0).stats().row_misses, 2u);
    EXPECT_EQ(diff->channel(0).stats().row_misses, 2u);
}

TEST_F(HbmFixture, FineInterleaveStripesAcrossPseudoChannels)
{
    auto sys = make(4, 1);
    EXPECT_EQ(sys->interleaveBytes(), 256u);
    EXPECT_EQ(sys->channelOf(0), 0u);
    EXPECT_EQ(sys->channelOf(255), 0u);
    EXPECT_EQ(sys->channelOf(256), 1u);
    EXPECT_EQ(sys->channelOf(512), 2u);
    EXPECT_EQ(sys->channelOf(768), 3u);
    EXPECT_EQ(sys->channelOf(1024), 0u);
    EXPECT_EQ(sys->channel(0).name(), "hbm.pc0");
    EXPECT_EQ(sys->channel(3).name(), "hbm.pc3");

    MemPort port = sys->port(0);
    for (int i = 0; i < 8; ++i)
        timeRead(port, static_cast<Addr>(i) * 256, 64);
    for (std::uint32_t c = 0; c < 4; ++c)
        EXPECT_EQ(sys->channel(c).stats().reads, 2u) << "pc" << c;
}

TEST_F(HbmFixture, RequestsMayNotCrossTheInterleaveUnit)
{
    auto sys = make(2, 1);
    MemPort port = sys->port(0);
    EXPECT_EQ(port.interleaveBytes(), 256u);
    // 192 + 128 straddles the 256 B boundary.
    EXPECT_THROW(port.send(MemReq{192, 128, 1, false}), PanicError);
}

TEST(HbmPort, ReceiveFollowsTheRotatedScanOfTheChannels)
{
    // 3 channels fill part of one occupancy word, 9 spill into a
    // second, 32 is a full HBM2 stack. Each round puts one response on
    // a random subset of channels, all poppable in the same cycle; the
    // port must hand them out in the order of a (rr + i) % n scan that
    // restarts after the last channel served.
    for (std::uint32_t n : {3u, 9u, 32u}) {
        SCOPED_TRACE("channels=" + std::to_string(n));
        Engine eng;
        MemorySystem sys(eng, MemSubstrateConfig::hbm2(n), 1);
        sys.store().resize(1 << 20);
        MemPort port = sys.port(0);
        Rng rng(n);
        std::uint32_t rr = 0;  // reference round-robin pointer
        std::vector<bool> served(n, false);
        for (std::uint32_t round = 0; round < 4 * n; ++round) {
            // Round 0 opens every channel's row, so later rounds see
            // identical timing on every channel.
            std::vector<bool> pending(n, false);
            for (std::uint32_t c = 0; c < n; ++c)
                pending[c] = round == 0 || rng.below(2) == 0;
            std::uint32_t count = 0;
            for (std::uint32_t c = 0; c < n; ++c) {
                if (!pending[c])
                    continue;
                ASSERT_TRUE(port.send(MemReq{Addr{c} * 256, 64, c, false}));
                ++count;
            }
            if (count == 0)
                continue;
            ASSERT_TRUE(eng.runUntil(
                [&] { return port.responseReadyCycle() <= eng.now(); },
                10000));

            std::vector<std::uint64_t> want;
            for (std::uint32_t k = 0; k < count; ++k)
                for (std::uint32_t i = 0; i < n; ++i) {
                    const std::uint32_t c = (rr + i) % n;
                    if (!pending[c])
                        continue;
                    want.push_back(c);
                    pending[c] = false;
                    served[c] = true;
                    rr = (c + 1) % n;
                    break;
                }
            std::vector<std::uint64_t> got;
            while (auto resp = port.receive())
                got.push_back(resp->tag);
            ASSERT_EQ(got, want) << "round " << round;
            EXPECT_EQ(port.responseReadyCycle(), kCycleNever);
        }
        for (std::uint32_t c = 0; c < n; ++c)
            EXPECT_TRUE(served[c]) << "pc" << c;
    }
}

// --- system level -------------------------------------------------------

RunResult
runAccel(const CooGraph& g, const AlgoSpec& spec, AccelConfig cfg,
         bool full_tick = false)
{
    cfg.full_tick_engine = full_tick;
    PartitionedGraph pg(g, 256, 512);
    Accelerator accel(cfg, pg, spec);
    return accel.run();
}

AccelConfig
smallHbm(std::uint32_t pcs = 4)
{
    AccelConfig cfg = AccelConfig::hbmTwoLevel(pcs, 4, 2048);
    return cfg;
}

TEST(HbmSystem, ValuesIdenticalToDdr4)
{
    // Same DRAM image (GraphLayout sections stay aligned at the
    // coarsest interleave), same functional plane: only timing may
    // move. SCC exercises min-gathers, PageRank float adds.
    const CooGraph g = rmat(10, 8000, RmatParams{}, 3);
    AccelConfig ddr = AccelConfig::preset(MomsConfig::twoLevel(4), 4);
    const RunResult a =
        runAccel(g, AlgoSpec::scc(g.numNodes(), 4), ddr);
    const RunResult b =
        runAccel(g, AlgoSpec::scc(g.numNodes(), 4), smallHbm());
    EXPECT_EQ(a.raw_values, b.raw_values);
    EXPECT_EQ(a.edges_processed, b.edges_processed);
    EXPECT_NE(a.cycles, 0u);
    EXPECT_NE(b.cycles, 0u);
}

TEST(HbmSystem, EngineModesBitExact)
{
    const CooGraph g = rmat(10, 6000, RmatParams{}, 17);
    const AlgoSpec spec = AlgoSpec::scc(g.numNodes(), 3);
    const RunResult full = runAccel(g, spec, smallHbm(), true);
    const RunResult idle = runAccel(g, spec, smallHbm(), false);
    EXPECT_EQ(full.cycles, idle.cycles);
    EXPECT_EQ(full.raw_values, idle.raw_values);
    EXPECT_EQ(full.dram_bytes_read, idle.dram_bytes_read);
    EXPECT_EQ(full.dram_bytes_written, idle.dram_bytes_written);
    EXPECT_EQ(full.moms_requests, idle.moms_requests);
    EXPECT_EQ(full.pe_raw_stalls, idle.pe_raw_stalls);
}

TEST(HbmSystem, PortQueueStorageFollowsTrafficNotCapacity)
{
    // WT packed PageRank on hbmTwoLevel(): 16 pseudo-channels x 32
    // ports (16 PE DMA ports, then one port per shared bank). Each
    // shared bank is bound to one channel, so 15 of its port's 16
    // (request, response) pairs never carry a token: those 240 pairs
    // must hold no ring storage, and all pairs together a small share
    // of the modelled 256 + 64 slots per pair.
    AccelConfig cfg = AccelConfig::hbmTwoLevel();
    cfg.packed_edges = true;
    const CooGraph raw = buildDataset(datasetByTag("WT"), 1);
    const std::uint32_t nd =
        defaultIntervalsFor(raw.numNodes(), raw.numEdges()).first;
    Session s(std::make_shared<const CooGraph>(
                  applyPreprocessing(raw, Preprocessing::Dbg, nd)),
              cfg);
    Accelerator accel(s.config(), s.partition(),
                      AlgoSpec::pageRank(s.graph(), 2));
    const MemorySystem& mem = accel.mem();
    ASSERT_EQ(mem.numChannels(), 16u);
    ASSERT_EQ(mem.channel(0).numPorts(), 32u);

    std::uint64_t grown = 0, sized = 0;
    std::uint32_t unused_pe_pairs = 0;
    auto audit = [&] {
        std::uint32_t unused = 0;
        grown = sized = unused_pe_pairs = 0;
        for (std::uint32_t c = 0; c < mem.numChannels(); ++c) {
            const MemChannel& ch = mem.channel(c);
            for (std::uint32_t p = 0; p < ch.numPorts(); ++p) {
                const auto& req = ch.reqPort(p);
                const auto& resp = ch.respPort(p);
                grown += req.storageSlots() * req.slotBytes() +
                         resp.storageSlots() * resp.slotBytes();
                sized += req.capacity() * req.slotBytes() +
                         resp.capacity() * resp.slotBytes();
                if (req.storageSlots() == 0 && resp.storageSlots() == 0) {
                    ++unused;
                    unused_pe_pairs += p < s.config().num_pes;
                }
            }
        }
        return unused;
    };
    EXPECT_EQ(audit(), 512u);  // nothing before the run
    EXPECT_EQ(grown, 0u);
    EXPECT_EQ(sized, 512 * (256 * TimedQueue<MemReq>::slotBytes() +
                            64 * TimedQueue<MemResp>::slotBytes()));

    const RunResult r = accel.run();
    EXPECT_EQ(r.iterations, 2u);
    EXPECT_EQ(audit(), 240u);
    EXPECT_EQ(unused_pe_pairs, 0u);
    EXPECT_LE(grown * 50, sized) << grown << " of " << sized << " B";
}

TEST(HbmSystem, ValidateRules)
{
    auto problems = [](AccelConfig cfg) {
        return cfg.validateProblems();
    };
    auto mentions = [](const std::vector<std::string>& ps,
                       const char* needle) {
        for (const auto& p : ps)
            if (p.find(needle) != std::string::npos)
                return true;
        return false;
    };

    EXPECT_TRUE(problems(smallHbm()).empty());
    EXPECT_TRUE(problems(AccelConfig::hbmTwoLevel()).empty());

    AccelConfig one = smallHbm();
    one.mem.channels = 1;  // pseudo-channels come in pairs
    one.moms.num_shared_banks = 1;
    EXPECT_TRUE(mentions(problems(one), "mem.channels"));

    AccelConfig many = smallHbm();
    many.mem.channels = 64;
    EXPECT_TRUE(mentions(problems(many), "mem.channels"));
    // DDR4 has its own (tighter) channel bound.
    AccelConfig ddr = AccelConfig::preset(MomsConfig::twoLevel(16), 4);
    ddr.mem.channels = 16;
    EXPECT_TRUE(mentions(problems(ddr), "mem.channels"));

    AccelConfig il = smallHbm();
    il.mem.interleave_bytes = 96;  // not a power of two
    EXPECT_TRUE(mentions(problems(il), "interleave_bytes"));
    il.mem.interleave_bytes = 32;  // below one line
    EXPECT_TRUE(mentions(problems(il), "interleave_bytes"));

    AccelConfig row = smallHbm();
    row.mem.timing.row_bytes = 768;
    EXPECT_TRUE(mentions(problems(row), "row_bytes"));

    AccelConfig banks = smallHbm();
    banks.moms.num_shared_banks = 3;  // not a multiple of 4 channels
    EXPECT_TRUE(mentions(problems(banks), "bank-to-channel"));

    // Every rule accumulates into one list (one-FatalError style).
    AccelConfig multi = smallHbm();
    multi.mem.channels = 1;
    multi.mem.timing.row_bytes = 768;
    multi.mem.interleave_bytes = 96;
    EXPECT_GE(problems(multi).size(), 3u);
}

TEST(HbmSystem, LabelNamesTheSubstrate)
{
    EXPECT_NE(AccelConfig::hbmTwoLevel().label().find("16pc-hbm"),
              std::string::npos);
    EXPECT_NE(AccelConfig::paper18x16TwoLevel().label().find("@4ch"),
              std::string::npos);
}

} // namespace
} // namespace gmoms
