/**
 * @file
 * Crossbar arbitration tests: the shared-MOMS request crossbar accepts
 * at most one request per bank per cycle, which is the bank-conflict
 * bottleneck the private/two-level organizations exist to relieve
 * (Section II: "MOMS bank conflicts ... severely limit throughput").
 */

#include <gtest/gtest.h>

#include "src/cache/moms_system.hh"
#include "src/sim/engine.hh"
#include "src/sim/rng.hh"

namespace gmoms
{
namespace
{

struct XbarHarness
{
    Engine eng;
    DramConfig dram_cfg;
    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<MomsSystem> moms;
    std::uint32_t num_pes;

    XbarHarness(std::uint32_t pes, std::uint32_t banks)
        : num_pes(pes)
    {
        mem = std::make_unique<MemorySystem>(eng, dram_cfg, 1,
                                             banks + pes);
        mem->store().resize(1 << 22);
        MomsConfig cfg = MomsConfig::shared(banks);
        cfg.shared_bank.cache_bytes = 0;  // expose the miss path
        cfg.crossing_latency = 1;
        moms = std::make_unique<MomsSystem>(eng, *mem, 0, pes, cfg);
    }

    /** Each PE sends @p per_pe requests generated by @p addr_for;
     *  returns total cycles until all responses returned. */
    Cycle
    run(std::uint32_t per_pe,
        const std::function<Addr(std::uint32_t pe, std::uint32_t i)>&
            addr_for)
    {
        std::vector<std::uint32_t> sent(num_pes, 0), done(num_pes, 0);
        const Cycle start = eng.now();
        bool ok = eng.runUntil(
            [&] {
                bool all = true;
                for (std::uint32_t p = 0; p < num_pes; ++p) {
                    SourcePort& port = moms->pePort(p);
                    if (sent[p] < per_pe && port.canSend()) {
                        port.send(ReadReq{addr_for(p, sent[p]), 0, p});
                        ++sent[p];
                    }
                    while (port.receive())
                        ++done[p];
                    all &= done[p] == per_pe;
                }
                return all;
            },
            2'000'000);
        EXPECT_TRUE(ok);
        return eng.now() - start;
    }
};

TEST(Crossbar, SingleBankAdmitsOneRequestPerCycle)
{
    // With a single shared bank every request serializes through one
    // pipeline: 8 PEs x 200 requests need >= 1600 cycles regardless of
    // merging (every request is a bank operation).
    XbarHarness h(8, 1);
    const std::uint32_t per_pe = 200;
    Cycle cycles = h.run(per_pe,
                         [&](std::uint32_t pe, std::uint32_t i) {
                             (void)pe;
                             return Addr{i} * kLineBytes;
                         });
    EXPECT_GE(cycles, 8u * per_pe);
}

TEST(Crossbar, MoreBanksRelieveConflictsOnCachedHotSet)
{
    // A hot set that fits the caches: after warmup the bank pipeline
    // (1 hit per bank per cycle) is the bottleneck, so bank count sets
    // throughput. DRAM must not bind, hence cached configuration.
    const std::uint32_t per_pe = 400;
    auto workload = [](std::uint32_t pe, std::uint32_t i) {
        Rng r(pe * 7919 + i);
        return Addr{r.below(128)} * kLineBytes;  // 128-line hot set
    };
    auto run_with_banks = [&](std::uint32_t banks) {
        Engine eng;
        DramConfig dram_cfg;
        MemorySystem mem(eng, dram_cfg, 1, banks + 8);
        mem.store().resize(1 << 22);
        MomsConfig cfg = MomsConfig::shared(banks);
        cfg.shared_bank.cache_bytes = 16 * 1024;  // covers the hot set
        cfg.crossing_latency = 1;
        MomsSystem moms(eng, mem, 0, 8, cfg);
        std::vector<std::uint32_t> sent(8, 0), done(8, 0);
        eng.runUntil(
            [&] {
                bool all = true;
                for (std::uint32_t p = 0; p < 8; ++p) {
                    SourcePort& port = moms.pePort(p);
                    if (sent[p] < per_pe && port.canSend()) {
                        port.send(ReadReq{workload(p, sent[p]), 0, p});
                        ++sent[p];
                    }
                    while (port.receive())
                        ++done[p];
                    all &= done[p] == per_pe;
                }
                return all;
            },
            2'000'000);
        return eng.now();
    };
    const Cycle t1 = run_with_banks(1);
    const Cycle t8 = run_with_banks(8);
    EXPECT_LT(static_cast<double>(t8),
              0.5 * static_cast<double>(t1));
}

TEST(Crossbar, ResponsesRouteToTheIssuingClient)
{
    XbarHarness h(4, 4);
    // Tag requests with (pe << 16 | i) and verify each PE gets exactly
    // its own tags back.
    std::vector<std::set<std::uint64_t>> got(4);
    std::vector<std::uint32_t> sent(4, 0);
    bool ok = h.eng.runUntil(
        [&] {
            bool all = true;
            for (std::uint32_t p = 0; p < 4; ++p) {
                SourcePort& port = h.moms->pePort(p);
                if (sent[p] < 100 && port.canSend()) {
                    port.send(ReadReq{
                        (Addr{p} * 4096 + sent[p]) * kLineBytes,
                        (std::uint64_t{p} << 16) | sent[p], p});
                    ++sent[p];
                }
                while (auto resp = port.receive()) {
                    EXPECT_EQ(resp->tag >> 16, p)
                        << "response delivered to wrong client";
                    got[p].insert(resp->tag);
                }
                all &= got[p].size() == 100;
            }
            return all;
        },
        1'000'000);
    EXPECT_TRUE(ok);
    for (std::uint32_t p = 0; p < 4; ++p)
        EXPECT_EQ(got[p].size(), 100u);
}

/** What a pinned crossbar run produced. */
struct XbarTrace
{
    Cycle cycles = 0;
    std::uint64_t order_hash = 0;  //!< FNV-1a over (cycle, client, tag)
    MomsSystem::XbarStats stats;
};

XbarTrace
runPinnedCrossbar(bool full_tick)
{
    // 12 clients over 9 cache-less shared banks on 3 DDR4 channels:
    // occupancy rows span two words on both crossbar sides. Two-deep
    // bank inputs fill (bank busy), hot lines collide (conflicts), and
    // every third client drains only every 32nd cycle, so four-deep
    // response queues back up (backpressure).
    constexpr std::uint32_t kClients = 12;
    constexpr std::uint32_t kBanks = 9;
    constexpr std::uint32_t kPerClient = 150;
    Engine eng;
    eng.setFullTick(full_tick);
    MemorySystem mem(eng, DramConfig{}, 3, kBanks);
    mem.store().resize(1 << 22);
    MomsConfig cfg = MomsConfig::shared(kBanks);
    cfg.shared_bank.cache_bytes = 0;
    cfg.shared_bank.req_queue_depth = 2;
    cfg.crossbar_queue_depth = 4;
    cfg.crossing_latency = 1;
    MomsSystem moms(eng, mem, 0, kClients, cfg);

    XbarTrace out;
    out.order_hash = 0xcbf29ce484222325ull;
    auto mix = [&out](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            out.order_hash ^= (v >> (8 * i)) & 0xff;
            out.order_hash *= 0x100000001b3ull;
        }
    };
    std::vector<std::uint32_t> sent(kClients, 0), done(kClients, 0);
    Rng rng(2024);
    const bool ok = eng.runUntil(
        [&] {
            bool all = true;
            for (std::uint32_t p = 0; p < kClients; ++p) {
                SourcePort& port = moms.pePort(p);
                if (sent[p] < kPerClient && port.canSend()) {
                    // Half the requests hit a 24-line hot set.
                    const Addr line = rng.below(2) == 0
                                          ? rng.below(24)
                                          : rng.below(1 << 14);
                    port.send(ReadReq{line * kLineBytes,
                                      (std::uint64_t{p} << 16) | sent[p],
                                      p});
                    ++sent[p];
                }
                const bool slow = p % 3 == 0 && eng.now() % 32 != 0;
                while (!slow) {
                    auto resp = port.receive();
                    if (!resp)
                        break;
                    mix(eng.now());
                    mix(p);
                    mix(resp->tag);
                    ++done[p];
                }
                all &= done[p] == kPerClient;
            }
            return all;
        },
        2'000'000);
    EXPECT_TRUE(ok);
    out.cycles = eng.now();
    out.stats = moms.xbarStats();
    return out;
}

TEST(Crossbar, RotatingPriorityGrantOrderAndCountsArePinned)
{
    // Recorded with a full (rr + i) % n scan over every queue: the
    // grant order (through the response arrival sequence), the cycle
    // count and every conflict/backpressure counter, identical in both
    // engine modes.
    for (bool full_tick : {false, true}) {
        SCOPED_TRACE(full_tick ? "full tick" : "idle-aware");
        const XbarTrace t = runPinnedCrossbar(full_tick);
        EXPECT_EQ(t.cycles, 1568u);
        EXPECT_EQ(t.order_hash, 8631146668340302332ull);
        EXPECT_EQ(t.stats.req_conflicts, 3611u);
        EXPECT_EQ(t.stats.req_bank_busy, 202u);
        EXPECT_EQ(t.stats.resp_conflicts, 470u);
        EXPECT_EQ(t.stats.resp_backpressure, 4631u);
    }
}

} // namespace
} // namespace gmoms
