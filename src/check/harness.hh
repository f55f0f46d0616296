/**
 * @file
 * CheckHarness: quiescence watchdog + conservation checkers of the
 * hardening layer (ISSUE 4 tentpole).
 *
 * The harness is an engine Component with the same scheduling contract
 * as the telemetry sampler (PR 3): nextActivity() is pinned to
 * checkpoint boundaries and tick() no-ops when woken early, so the
 * idle-aware and full-tick engines observe it at identical cycles and
 * simulation results stay bit-exact with checks on or off. It only
 * *reads* the wired components.
 *
 * Three failure surfaces:
 *  - watchdog: if the progress signature (edges gathered, responses
 *    delivered, lines fetched, DRAM traffic, jobs handed out) does not
 *    move across one whole watchdog_interval while the accelerator is
 *    not drained, the run is wedged — abort with a diagnostic dump
 *    instead of burning the rest of the cycle budget;
 *  - budget: the accelerator calls failBudget() when runUntil() returns
 *    with work outstanding, turning the old one-line fatal into a full
 *    dump;
 *  - drain: verifyDrained() after the end-of-run drain checks the
 *    conservation invariants (MSHR allocate/free balance, subentry
 *    leaks, request/response token balance across the crossbars and
 *    die-crossing queues) that must hold in a truly drained system,
 *    and the physical bounds of boundViolations().
 *
 * Only constructed when AccelConfig::checks.enabled; otherwise no
 * object exists and nothing is ever polled (zero-cost-when-off, see
 * docs/MODEL.md "Invariants & watchdog").
 */

#ifndef GMOMS_CHECK_HARNESS_HH
#define GMOMS_CHECK_HARNESS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/check_config.hh"
#include "src/sim/engine.hh"

namespace gmoms
{

class AccelConfig;
class MemorySystem;
class MomsSystem;
class Pe;
class Scheduler;
class Telemetry;

/** Per-unit totals of a finished run, for the physical-bound audit. */
struct RunBounds
{
    struct Count
    {
        std::string name;
        std::uint64_t value = 0;
    };

    std::uint64_t cycles = 0;
    std::uint64_t bus_bytes_per_cycle = 0;  //!< per channel
    std::vector<Count> pe_edges;       //!< edges gathered, per PE
    std::vector<Count> channel_bytes;  //!< bytes read + written
    std::vector<Count> bank_requests;  //!< requests accepted, per bank
};

/**
 * One line per broken bound, naming the unit: a PE gathers at most one
 * edge per cycle, a channel moves at most bus_bytes_per_cycle per
 * cycle, and a MOMS bank accepts at most one request per cycle.
 */
std::vector<std::string> boundViolations(const RunBounds& run);

class CheckHarness : public Component
{
  public:
    /**
     * Read-only views of the system under check. Every pointer may be
     * null: absent parts simply contribute nothing to the progress
     * signature, conservation math or dump (the standalone watchdog
     * tests wire only an engine).
     */
    struct Wiring
    {
        const MomsSystem* moms = nullptr;
        const MemorySystem* mem = nullptr;
        const Scheduler* sched = nullptr;
        const std::vector<std::unique_ptr<Pe>>* pes = nullptr;
        /** Non-const: a mid-run dump finalizes it for attribution. */
        Telemetry* telemetry = nullptr;
    };

    /** Registers itself with @p engine. */
    CheckHarness(Engine& engine, const CheckConfig& cfg, Wiring wiring);
    ~CheckHarness() override;

    // -- engine integration (telemetry-sampler contract) ----------------
    void tick() override;
    Cycle nextActivity() const override { return next_check_; }

    /**
     * Conservation audit after the end-of-run drain. Throws CheckError
     * when the system still holds work (undrained) or any drained-state
     * invariant is violated (leaked MSHR/subentry, lost token, stuck
     * credit).
     */
    void verifyDrained() const;

    /** The cycle budget ran out with work outstanding: dump + throw. */
    [[noreturn]] void failBudget(std::uint64_t max_cycles) const;

    /** Full diagnostic dump (header, progress signature, conservation
     *  balance, per-component queue depths and status, stall
     *  attribution when telemetry is wired). */
    std::string diagnosticDump(const std::string& reason) const;

  private:
    /** Monotone counter over every progress event in the system; a
     *  wedged simulation is exactly one where this stops moving.
     *  Deliberately excludes stall/idle counters (they advance every
     *  cycle *of* a wedge) and engine tick counts (full tick always
     *  advances them). */
    std::uint64_t progressSignature() const;

    /** Human-readable conservation balance; appends one line per
     *  violated invariant to @p violations ("at_drain" enables the
     *  must-be-empty occupancy checks). */
    std::string conservationReport(
        std::vector<std::string>* violations, bool at_drain) const;

    [[noreturn]] void fail(const std::string& reason) const;

    Engine& engine_;
    CheckConfig cfg_;
    Wiring w_;
    Cycle next_check_ = 0;
    std::uint64_t last_signature_ = 0;
    bool have_signature_ = false;
};

} // namespace gmoms

#endif // GMOMS_CHECK_HARNESS_HH
