/**
 * @file
 * Regression tests for the hardening layer (ISSUE 4): config
 * validation, loud environment-variable parsing, the conservation
 * checkers under injected faults (MSHR leak, dropped crossbar token,
 * stuck response credit), the quiescence watchdog on a wedged
 * component, budget-overrun reporting, and the checks-on bit-exactness
 * contract. Fault injection uses the test-only hooks
 * (MomsSystem::FaultHooks, mshrsForTest), never production paths.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "src/accel/accelerator.hh"
#include "src/accel/session.hh"
#include "src/algo/golden.hh"
#include "src/check/check_config.hh"
#include "src/check/harness.hh"
#include "src/graph/generator.hh"
#include "src/sim/log.hh"
#include "src/sim/parallel.hh"

namespace gmoms
{
namespace
{

/** Set an environment variable for one scope, restoring on exit. */
class EnvGuard
{
  public:
    EnvGuard(const char* name, const char* value) : name_(name)
    {
        const char* old = std::getenv(name);
        if (old != nullptr) {
            had_old_ = true;
            old_ = old;
        }
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~EnvGuard()
    {
        if (had_old_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char* name_;
    bool had_old_ = false;
    std::string old_;
};

/** Small shared-MOMS system: PEs talk to the banks through the
 *  request/response crossbars, which is where the fault hooks sit. */
AccelConfig
smallSharedConfig()
{
    AccelConfig cfg = AccelConfig::preset(MomsConfig::shared(4),
                                          /*pes=*/4, /*channels=*/2);
    cfg.moms.shared_bank.num_mshrs = 128;
    cfg.moms.shared_bank.num_subentries = 2048;
    cfg.moms.shared_bank.cache_bytes = 8192;
    cfg.max_threads = 64;
    return cfg;
}

CooGraph
smallGraph()
{
    return uniformRandom(600, 5000, 21);
}

/** what() of a CheckError (reason + dump) must mention @p needle. */
#define EXPECT_CHECK_ERROR(stmt, needle)                                 \
    do {                                                                 \
        bool threw_ = false;                                             \
        try {                                                            \
            stmt;                                                        \
        } catch (const CheckError& e_) {                                 \
            threw_ = true;                                               \
            EXPECT_NE(std::string(e_.what()).find(needle),               \
                      std::string::npos)                                 \
                << "diagnostic does not mention \"" << needle            \
                << "\":\n"                                               \
                << e_.what();                                            \
        }                                                                \
        EXPECT_TRUE(threw_) << "expected a CheckError";                  \
    } while (0)

// ---------------------------------------------------------------------
// AccelConfig::validate()
// ---------------------------------------------------------------------

TEST(Hardening, ValidateReportsEveryProblemAtOnce)
{
    AccelConfig cfg = smallSharedConfig();
    cfg.num_pes = 0;
    cfg.max_threads = 0;
    cfg.moms.crossbar_queue_depth = 0;
    cfg.moms.shared_bank.num_mshrs = 6;  // not a multiple of 4 tables
    try {
        cfg.validate();
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("num_pes must be > 0"), std::string::npos);
        EXPECT_NE(msg.find("max_threads must be > 0"),
                  std::string::npos);
        EXPECT_NE(msg.find("crossbar_queue_depth"), std::string::npos);
        EXPECT_NE(msg.find("multiple of mshr_tables"),
                  std::string::npos)
            << msg;
    }
}

TEST(Hardening, ValidateAcceptsDefaultsAndPresets)
{
    EXPECT_NO_THROW(AccelConfig{}.validate());
    EXPECT_NO_THROW(AccelConfig::paper18x16TwoLevel().validate());
    EXPECT_NO_THROW(AccelConfig::sharedMoms().validate());
    EXPECT_NO_THROW(AccelConfig::privateMoms().validate());
    EXPECT_NO_THROW(AccelConfig::traditionalNbc().validate());
}

TEST(Hardening, ValidateRejectsStraddlingIntervals)
{
    AccelConfig cfg = smallSharedConfig();
    cfg.nd = 300;
    cfg.ns = 700;  // not a multiple of nd
    EXPECT_THROW(cfg.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Environment-variable parsing fails loudly
// ---------------------------------------------------------------------

TEST(Hardening, FullTickEnvRejectsGarbage)
{
    EnvGuard guard("GMOMS_FULL_TICK", "ture");
    EXPECT_THROW(Engine{}, FatalError);
}

TEST(Hardening, FullTickEnvAcceptsCanonicalValues)
{
    {
        EnvGuard guard("GMOMS_FULL_TICK", "1");
        EXPECT_TRUE(Engine{}.fullTick());
    }
    {
        EnvGuard guard("GMOMS_FULL_TICK", "0");
        EXPECT_FALSE(Engine{}.fullTick());
    }
    {
        EnvGuard guard("GMOMS_FULL_TICK", nullptr);
        EXPECT_NO_THROW(Engine{});
    }
}

TEST(Hardening, JobsParsing)
{
    EXPECT_EQ(ThreadPool::parseWorkers(nullptr), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers(""), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("8"), 8u);
    EXPECT_EQ(ThreadPool::parseWorkers("eight"), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("4x"), 0u);

    {
        EnvGuard guard("GMOMS_JOBS", "3");
        EXPECT_EQ(ThreadPool::defaultWorkers(), 3u);
    }
    {
        EnvGuard guard("GMOMS_JOBS", "eight");
        EXPECT_THROW(ThreadPool::defaultWorkers(), FatalError);
    }
    {
        EnvGuard guard("GMOMS_JOBS", nullptr);
        EXPECT_GE(ThreadPool::defaultWorkers(), 1u);
    }
}

// ---------------------------------------------------------------------
// Conservation checkers under injected faults
// ---------------------------------------------------------------------

TEST(Hardening, MshrLeakIsCaughtByDrainAudit)
{
    CooGraph g = smallGraph();
    AccelConfig cfg = smallSharedConfig();
    cfg.checks.enabled = true;
    // Keep every watchdog checkpoint out of the run: the leak must be
    // reported by the post-drain audit, not as a wedge.
    cfg.checks.watchdog_interval = 50'000'000;
    PartitionedGraph pg(g, cfg.nd, cfg.ns);
    AlgoSpec spec = AlgoSpec::pageRank(g, 2);
    Accelerator accel(cfg, pg, spec);

    // Allocate an MSHR nobody will ever free: a line far outside the
    // graph layout, so no real request can merge into (or erase) it.
    MshrEntry* leaked = accel.momsForTest()
                            .sharedBanks()[0]
                            ->mshrsForTest()
                            .insert(Addr{0x7fffff00});
    ASSERT_NE(leaked, nullptr);

    EXPECT_CHECK_ERROR(accel.run(), "MSHR leak");
}

TEST(Hardening, DroppedCrossbarTokenTripsWatchdog)
{
    CooGraph g = smallGraph();
    AccelConfig cfg = smallSharedConfig();
    cfg.checks.enabled = true;
    cfg.checks.watchdog_interval = 20'000;
    PartitionedGraph pg(g, cfg.nd, cfg.ns);
    AlgoSpec spec = AlgoSpec::pageRank(g, 2);
    Accelerator accel(cfg, pg, spec);

    MomsSystem::FaultHooks hooks;
    hooks.drop_next_request = true;
    accel.momsForTest().setFaultHooks(&hooks);

    try {
        accel.run();
        FAIL() << "expected the watchdog to fire";
    } catch (const CheckError& e) {
        EXPECT_NE(e.reason().find("no forward progress"),
                  std::string::npos)
            << e.reason();
        EXPECT_NE(e.dump().find("request token(s) lost"),
                  std::string::npos)
            << e.dump();
    }
}

TEST(Hardening, StuckResponseCreditTripsWatchdog)
{
    CooGraph g = smallGraph();
    AccelConfig cfg = smallSharedConfig();
    cfg.checks.enabled = true;
    cfg.checks.watchdog_interval = 20'000;
    PartitionedGraph pg(g, cfg.nd, cfg.ns);
    AlgoSpec spec = AlgoSpec::pageRank(g, 2);
    Accelerator accel(cfg, pg, spec);

    MomsSystem::FaultHooks hooks;
    hooks.stuck_client = 0;  // client 0 never accepts a response again
    accel.momsForTest().setFaultHooks(&hooks);

    try {
        accel.run();
        FAIL() << "expected the watchdog to fire";
    } catch (const CheckError& e) {
        EXPECT_NE(e.reason().find("no forward progress"),
                  std::string::npos)
            << e.reason();
        EXPECT_NE(e.dump().find("stuck"), std::string::npos)
            << e.dump();
    }
}

// ---------------------------------------------------------------------
// Quiescence watchdog and budget overrun
// ---------------------------------------------------------------------

namespace
{

/** Always-active component that never makes progress. */
class WedgedComponent : public Component
{
  public:
    WedgedComponent() : Component("wedged") {}
    void tick() override {}
};

} // namespace

TEST(Hardening, WatchdogAbortsWedgedStandaloneComponent)
{
    Engine engine;
    WedgedComponent wedged;
    engine.add(&wedged);

    CheckConfig cfg;
    cfg.enabled = true;
    cfg.watchdog_interval = 1'000;
    CheckHarness harness(engine, cfg, CheckHarness::Wiring{});

    EXPECT_CHECK_ERROR(
        engine.runUntil([] { return false; }, 1'000'000,
                        Engine::Poll::EveryCycle),
        "no forward progress");
    // It must fire shortly after the second checkpoint, not at budget.
    EXPECT_LT(engine.now(), 10'000u);
}

TEST(Hardening, BudgetOverrunThrowsCheckErrorWithDump)
{
    CooGraph g = smallGraph();
    AccelConfig cfg = smallSharedConfig();
    cfg.checks.enabled = true;
    cfg.max_cycles = 500;  // far too small for a whole iteration
    const std::string dump_path =
        testing::TempDir() + "gmoms_watchdog_dump.txt";
    cfg.checks.dump_path = dump_path;
    PartitionedGraph pg(g, cfg.nd, cfg.ns);
    AlgoSpec spec = AlgoSpec::pageRank(g, 2);
    Accelerator accel(cfg, pg, spec);

    EXPECT_CHECK_ERROR(accel.run(), "cycle budget exceeded");

    std::ifstream f(dump_path);
    ASSERT_TRUE(f.good()) << "dump file not written: " << dump_path;
    std::string contents((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("hardening-layer diagnostic dump"),
              std::string::npos);
    EXPECT_NE(contents.find("cycle budget exceeded"),
              std::string::npos);
}

TEST(Hardening, BudgetOverrunWithoutChecksStaysFatalError)
{
    CooGraph g = smallGraph();
    AccelConfig cfg = smallSharedConfig();
    cfg.max_cycles = 500;
    PartitionedGraph pg(g, cfg.nd, cfg.ns);
    AlgoSpec spec = AlgoSpec::pageRank(g, 2);
    Accelerator accel(cfg, pg, spec);
    EXPECT_THROW(accel.run(), FatalError);
}

// ---------------------------------------------------------------------
// Cost contract: checks on never changes simulation results
// ---------------------------------------------------------------------

TEST(Hardening, ChecksOnIsBitIdenticalToChecksOff)
{
    CooGraph g = smallGraph();
    AlgoSpec spec = AlgoSpec::pageRank(g, 3);

    AccelConfig off = smallSharedConfig();
    PartitionedGraph pg_off(g, off.nd, off.ns);
    RunResult base = Accelerator(off, pg_off, spec).run();

    AccelConfig on = smallSharedConfig();
    on.checks.enabled = true;
    PartitionedGraph pg_on(g, on.nd, on.ns);
    RunResult checked = Accelerator(on, pg_on, spec).run();

    EXPECT_EQ(base.cycles, checked.cycles);
    EXPECT_EQ(base.iterations, checked.iterations);
    EXPECT_EQ(base.raw_values, checked.raw_values);
}

TEST(Hardening, HealthyRunPassesDrainAudit)
{
    CooGraph g = smallGraph();
    SessionResult res = SessionBuilder()
                            .dataset(smallGraph())
                            .config(smallSharedConfig())
                            .checks(true)
                            .algo("SCC")
                            .run();
    std::vector<std::uint32_t> golden = goldenMinLabel(g);
    ASSERT_EQ(res.run.raw_values.size(), golden.size());
    EXPECT_EQ(res.run.raw_values, golden);
}

TEST(Hardening, BoundAuditNamesEachBrokenBound)
{
    // 10 cycles on 64-byte channels: the limits are 10 edges per PE,
    // 640 bytes per channel and 10 requests per bank.
    RunBounds run;
    run.cycles = 10;
    run.bus_bytes_per_cycle = 64;
    run.pe_edges = {{"pe0", 10}, {"pe1", 11}};
    run.channel_bytes = {{"mem.ch0", 640}, {"mem.ch1", 641}};
    run.bank_requests = {{"moms.l2.0", 10}, {"moms.l2.1", 12}};
    const std::vector<std::string> v = boundViolations(run);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "pe1: 11 edges gathered in 10 cycles, above 1 per "
                    "cycle");
    EXPECT_EQ(v[1], "mem.ch1: 641 bytes moved in 10 cycles, above 64 "
                    "per cycle");
    EXPECT_EQ(v[2], "moms.l2.1: 12 requests accepted in 10 cycles, "
                    "above 1 per cycle");

    run.cycles = 12;
    run.channel_bytes[1].value = 768;
    EXPECT_TRUE(boundViolations(run).empty());
}

// ---------------------------------------------------------------------
// SessionBuilder entry point
// ---------------------------------------------------------------------

TEST(Hardening, BuilderRunMatchesDirectSessionConstruction)
{
    CooGraph g = uniformRandom(400, 3000, 33);

    Session direct(std::make_shared<const CooGraph>(g),
                   smallSharedConfig(), Preprocessing::DbgHash);
    SessionResult via_direct = direct.pageRank(4);

    SessionResult via_builder =
        SessionBuilder()
            .dataset(std::move(g))
            .config(smallSharedConfig())
            .preprocessing(Preprocessing::DbgHash)
            .algo("PageRank")
            .iterations(4)
            .run();

    EXPECT_EQ(via_direct.run.cycles, via_builder.run.cycles);
    EXPECT_EQ(via_direct.run.raw_values, via_builder.run.raw_values);
}

TEST(Hardening, BuilderRejectsBadInput)
{
    // No dataset.
    EXPECT_THROW(SessionBuilder().algo("PageRank").run(), FatalError);
    // No algorithm selected.
    EXPECT_THROW(
        SessionBuilder().dataset(smallGraph()).run(), FatalError);
    // Unknown algorithm name.
    EXPECT_THROW(SessionBuilder()
                     .dataset(smallGraph())
                     .algo("PageRankk")
                     .run(),
                 FatalError);
    // Empty graph.
    EXPECT_THROW(SessionBuilder()
                     .dataset(CooGraph{})
                     .algo("PageRank")
                     .run(),
                 FatalError);
}

} // namespace
} // namespace gmoms
