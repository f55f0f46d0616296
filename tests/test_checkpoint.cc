/**
 * @file
 * Warm-session tests: a copy of a warmed Session — the serving pool's
 * checkpoint fork — must reproduce a cold run bit-for-bit (the
 * simulator is deterministic, so a session's inputs are its whole
 * state), every copy must simulate the same result, a failure must
 * repeat on the next copy, the config fingerprint must separate
 * result-relevant configs and ignore result-neutral engine knobs, and
 * a ReplayDescriptor must round-trip through its wire form.
 */

#include <gtest/gtest.h>

#include "src/accel/checkpoint.hh"
#include "src/accel/session.hh"
#include "src/check/check_config.hh"
#include "src/graph/generator.hh"
#include "src/serve/job.hh"

namespace gmoms
{
namespace
{

AccelConfig
smallConfig()
{
    return AccelConfig::preset(MomsConfig::twoLevel(4), /*pes=*/4,
                               /*channels=*/2);
}

Session
makeSession(const CooGraph& g, const AccelConfig& cfg)
{
    return SessionBuilder()
        .dataset(CooGraph(g))
        .config(cfg)
        .preprocessing(Preprocessing::DbgHash)
        .build();
}

/** A session with its plain partition built, as the pool keeps it. */
Session
warmSession(const CooGraph& g, const AccelConfig& cfg)
{
    Session s = makeSession(g, cfg);
    s.partition();
    return s;
}

// ---------------------------------------------------------------------
// Warm session -> copy -> run bit-exactness
// ---------------------------------------------------------------------

TEST(Checkpoint, RestoredSessionReproducesColdRunBitForBit)
{
    const CooGraph g = rmat(10, 6000, RmatParams{}, 13);
    // The matrix that matters: both engine modes x observability
    // on/off. Telemetry and checks change what a run *records* (and so
    // the fingerprint), never its results — the copied session must
    // agree under every combination.
    for (const bool full_tick : {false, true}) {
        for (const bool tlm : {false, true}) {
            for (const bool chk : {false, true}) {
                AccelConfig cfg = smallConfig();
                cfg.full_tick_engine = full_tick;
                cfg.telemetry.enabled = tlm;
                cfg.checks.enabled = chk;
                const std::string label =
                    std::string(full_tick ? "full" : "idle") +
                    (tlm ? "+tlm" : "") + (chk ? "+chk" : "");

                Session cold = makeSession(g, cfg);
                const SessionResult base = cold.pageRank(2);

                const Session warm = warmSession(g, cfg);
                Session forked = warm;
                EXPECT_EQ(&forked.partition(), &warm.partition());
                const SessionResult res = forked.pageRank(2);

                EXPECT_EQ(base.run.cycles, res.run.cycles) << label;
                EXPECT_EQ(base.run.raw_values, res.run.raw_values)
                    << label;
                EXPECT_EQ(
                    serve::valuesChecksum(base.run.raw_values),
                    serve::valuesChecksum(res.run.raw_values))
                    << label;
            }
        }
    }
}

TEST(Checkpoint, TwoForksSimulateIdenticalResults)
{
    const CooGraph g = rmat(9, 4000, RmatParams{}, 19);
    const Session warm = warmSession(g, smallConfig());
    const std::size_t bytes = warm.residentBytes();

    // A warm session holds inputs only: each copy runs the simulation,
    // and determinism makes the runs agree bit for bit.
    Session first = warm;
    const SessionResult a = first.pageRank(3);
    Session second = warm;
    const SessionResult b = second.pageRank(3);
    EXPECT_GT(a.engine.ticks_executed, 0u);
    EXPECT_EQ(a.engine.ticks_executed, b.engine.ticks_executed);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.raw_values, b.run.raw_values);
    EXPECT_EQ(warm.residentBytes(), bytes);

    // Different arguments simulate a different run.
    Session third = warm;
    const SessionResult c = third.pageRank(4);
    EXPECT_NE(a.run.cycles, c.run.cycles);
}

TEST(Checkpoint, RestorePreservesIdMappingAndWeights)
{
    const CooGraph g = rmat(9, 4000, RmatParams{}, 7);
    Session warm = warmSession(g, smallConfig());
    Session forked = warm;
    for (NodeId n = 0; n < g.numNodes(); n += 53) {
        EXPECT_EQ(forked.internalId(n), warm.internalId(n));
        EXPECT_EQ(forked.originalId(forked.internalId(n)), n);
    }
    // SSSP on the copy builds its own weighted view from the
    // synthetic-weight seed it copied.
    const SessionResult a = warm.sssp(3, 4);
    const SessionResult b = forked.sssp(3, 4);
    EXPECT_EQ(a.run.raw_values, b.run.raw_values);
}

TEST(Checkpoint, FailedRunsAreNeverMemoized)
{
    const CooGraph g = rmat(9, 4000, RmatParams{}, 11);
    AccelConfig cfg = smallConfig();
    cfg.checks.enabled = true;
    cfg.max_cycles = 50;  // no run can finish: budget CheckError
    const Session warm = warmSession(g, cfg);

    const auto failure = [&] {
        Session fork = warm;
        try {
            fork.pageRank(2);
        } catch (const CheckError& e) {
            return e.reason();
        }
        return std::string("no CheckError");
    };
    // A copy taken after a failed run re-simulates and fails the same
    // way: the failure leaves nothing behind in the warm session.
    const std::string first = failure();
    EXPECT_NE(first, "no CheckError");
    EXPECT_EQ(failure(), first);
}

// ---------------------------------------------------------------------
// Config fingerprint
// ---------------------------------------------------------------------

TEST(Fingerprint, SeparatesResultRelevantConfigs)
{
    const AccelConfig base = smallConfig();
    const std::uint64_t h = configFingerprint(base);

    auto differs = [&](auto mutate, const std::string& what) {
        AccelConfig cfg = smallConfig();
        mutate(cfg);
        EXPECT_NE(configFingerprint(cfg), h) << what;
    };
    differs([](AccelConfig& c) { c.num_pes = 8; }, "num_pes");
    differs([](AccelConfig& c) { c.mem.channels = 4; },
            "mem.channels");
    differs([](AccelConfig& c) { c.max_cycles /= 2; }, "max_cycles");
    differs([](AccelConfig& c) { c.moms.num_shared_banks = 2; },
            "num_shared_banks");
    differs([](AccelConfig& c) { c.moms.shared_bank.cache_bytes *= 2; },
            "cache_bytes");
    differs([](AccelConfig& c) { c.moms.crossing_latency += 1; },
            "crossing_latency");
    differs([](AccelConfig& c) { c.mem.timing.load_latency_cycles += 1; },
            "load_latency");
    differs([](AccelConfig& c) { c.telemetry.enabled = true; },
            "telemetry.enabled");
    differs([](AccelConfig& c) { c.checks.enabled = true; },
            "checks.enabled");
    differs([](AccelConfig& c) { c.cluster.boards = 2; },
            "cluster.boards");
}

TEST(Fingerprint, IgnoresBitExactEngineKnobs)
{
    // full_tick_engine is bit-exact by contract (pinned by
    // test_engine_skip), so two configs differing only there must pool
    // together.
    const std::uint64_t h = configFingerprint(smallConfig());
    AccelConfig full = smallConfig();
    full.full_tick_engine = true;
    EXPECT_EQ(configFingerprint(full), h);
    // The watchdog interval only matters while checks run.
    AccelConfig wd = smallConfig();
    wd.checks.watchdog_interval *= 2;
    EXPECT_EQ(configFingerprint(wd), h);
    AccelConfig wd_on = wd;
    wd_on.checks.enabled = true;
    AccelConfig on = smallConfig();
    on.checks.enabled = true;
    EXPECT_NE(configFingerprint(wd_on), configFingerprint(on));
}

// ---------------------------------------------------------------------
// Replay descriptors
// ---------------------------------------------------------------------

TEST(Replay, DescriptorRoundTripsThroughItsWireForm)
{
    ReplayDescriptor d;
    d.dataset = "WT";
    d.prep = "dbg+hash";
    d.algo = "SSSP";
    d.iterations = 42;
    d.source = 7;
    d.preset = "paper18x16";
    d.config_fingerprint = 0xDEADBEEFCAFEF00Dull;
    d.fail_cycle = 123456;

    const std::optional<ReplayDescriptor> p =
        ReplayDescriptor::parse(d.serialize());
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->dataset, d.dataset);
    EXPECT_EQ(p->prep, d.prep);
    EXPECT_EQ(p->algo, d.algo);
    EXPECT_EQ(p->iterations, d.iterations);
    EXPECT_EQ(p->source, d.source);
    EXPECT_EQ(p->preset, d.preset);
    EXPECT_EQ(p->config_fingerprint, d.config_fingerprint);
    EXPECT_EQ(p->fail_cycle, d.fail_cycle);
}

TEST(Replay, ParserIsForwardCompatibleAndRejectsGarbage)
{
    ReplayDescriptor d;
    d.dataset = "DB";
    d.algo = "PageRank";
    const std::string wire = d.serialize() + " future_key=whatever";
    const std::optional<ReplayDescriptor> p =
        ReplayDescriptor::parse(wire);
    ASSERT_TRUE(p.has_value());  // unknown keys are ignored
    EXPECT_EQ(p->dataset, "DB");

    EXPECT_FALSE(ReplayDescriptor::parse("not a descriptor"));
    EXPECT_FALSE(ReplayDescriptor::parse("gmoms-replay v999 x=y"));
}

} // namespace
} // namespace gmoms
