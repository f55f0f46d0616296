/**
 * @file
 * Idle-aware cycle simulation engine.
 *
 * The engine advances a global cycle counter and, by default, only ticks
 * components that have useful work to do. Components exchange tokens
 * exclusively through TimedQueue links with latency >= 1 cycle, which
 * makes token *visibility* insensitive to tick order (a token pushed in
 * cycle c is never visible before cycle c+1); see docs/MODEL.md
 * ("Scheduling semantics") for the full invariant, including the one
 * same-cycle effect (backpressure release) the wake calendar preserves.
 *
 * Quiescence contract: after each tick the engine asks the component for
 * its nextActivity() cycle. A component may only report a future cycle
 * (or kCycleNever = "blocked on a link") if every tick until then would
 * be a pure no-op — no state change, no statistics. Anything externally
 * observable per idle cycle (stall counters, round-robin pointers) must
 * either keep the component active or be reconstructed in catchUp().
 * The default nextActivity() of 0 means "always active", so unaudited
 * components are ticked every cycle exactly as the legacy engine did.
 *
 * The legacy tick-everything mode is kept behind setFullTick(true) (or
 * the GMOMS_FULL_TICK=1 environment variable) and both modes are pinned
 * cycle- and stat-exact against each other by tests/test_engine_skip.cc.
 */

#ifndef GMOMS_SIM_ENGINE_HH
#define GMOMS_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/types.hh"

namespace gmoms
{

class Engine;

/**
 * Base class for everything that performs work each simulated cycle.
 */
class Component
{
  public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component() = default;

    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    /** Perform one cycle of work. */
    virtual void tick() = 0;

    /**
     * Earliest cycle of the next useful work, queried right after each
     * tick (and on wakeAll()).
     *
     *  - any value <= now (canonically 0): stay active, tick next cycle;
     *  - a future cycle c: sleep, tick again at c (e.g. a timeout);
     *  - kCycleNever: blocked on a link — sleep until a TimedQueue wake
     *    hook or an explicit Engine::requestWake() fires.
     *
     * Skipped ticks must be pure no-ops (see the quiescence contract in
     * the file header). The default keeps the component always active.
     */
    virtual Cycle nextActivity() const { return 0; }

    /**
     * Reconcile per-cycle accounting over cycles skipped while asleep:
     * called with the current cycle whenever the engine pauses
     * (runUntil exit). Implementations attribute [last-accounted, upto)
     * in bulk (idle counters, free-running round-robin pointers).
     */
    virtual void catchUp(Cycle upto) { (void)upto; }

    /** Hierarchical instance name, for logging and stats. */
    const std::string& name() const { return name_; }

    /** Engine this component is registered with (null before add()). */
    Engine* boundEngine() const { return engine_; }

  protected:
    /** Ask the bound engine to tick this component (again) at @p at. */
    inline void requestSelfWake(Cycle at);

  private:
    Engine* engine_ = nullptr;
    std::size_t engine_index_ = 0;
    std::string name_;

    friend class Engine;
};

/**
 * The simulation engine: owns the cycle counter, the tick list and the
 * wake calendar.
 *
 * Components are registered by pointer and must outlive the engine run.
 */
class Engine
{
  public:
    /** Wall-clock-relevant scheduling counters. */
    struct Stats
    {
        std::uint64_t cycles = 0;          //!< cycles simulated
        std::uint64_t cycles_skipped = 0;  //!< fast-forwarded, no tick
        std::uint64_t ticks_executed = 0;  //!< component ticks run
        std::uint64_t ticks_skipped = 0;   //!< component ticks elided
        std::uint64_t wakes = 0;           //!< requestWake() calls
    };

    /** How often runUntil() may evaluate its predicate. */
    enum class Poll
    {
        /** Evaluate done() every cycle; never fast-forward now_. Safe
         *  for predicates with side effects (test harnesses that drive
         *  queues from the predicate). Idle components are still
         *  skipped — their wake hooks cover predicate-driven pushes. */
        EveryCycle,
        /** done() is pure (reads simulation state only): evaluate it
         *  only after event cycles and fast-forward now_ across gaps
         *  where every component sleeps. */
        OnEvents,
    };

    Engine();

    /**
     * Register a component; rejects null and duplicate registration
     * (a duplicate would silently double-tick) via fatal().
     */
    void add(Component* c);

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /** Advance the simulation by exactly one cycle. */
    void tick();

    /**
     * Run until @p done returns true (checked before ticking) or
     * @p max_cycles elapse.
     *
     * @return true if @p done fired, false if the cycle limit was hit.
     */
    bool runUntil(const std::function<bool()>& done,
                  Cycle max_cycles = kCycleNever,
                  Poll poll = Poll::EveryCycle);

    /**
     * Schedule @p c to be ticked at cycle @p at (earlier requests win).
     * A wake for the current cycle during tick() is honored this cycle
     * when @p c would still tick after the current component in legacy
     * registration order, and next cycle otherwise — preserving exact
     * legacy semantics for same-cycle backpressure release. Unregistered
     * components are ignored (they cannot be ticked anyway).
     */
    void requestWake(Component* c, Cycle at);

    /** Null-safe wake helper for links that may be unbound. */
    static void
    wake(Component* c, Cycle at)
    {
        if (c != nullptr && c->boundEngine() != nullptr)
            c->boundEngine()->requestWake(c, at);
    }

    /**
     * Mark every component runnable at the current cycle. Called at
     * each runUntil() entry so external state mutations between runs
     * (scheduler arming, array swaps, cache invalidation, test pokes)
     * are re-observed without hooks.
     */
    void wakeAll();

    /** Tick every component every cycle (the legacy engine). */
    void setFullTick(bool full) { full_tick_ = full; }
    bool fullTick() const { return full_tick_; }

    const Stats& stats() const { return stats_; }

    /** Number of registered components. */
    std::size_t numComponents() const { return components_.size(); }

  private:
    /** Earliest calendar entry; kCycleNever when everything sleeps.
     *  O(1): wake_min_ is recomputed while the due list is built and
     *  folded on every later calendar write, so it is exact whenever
     *  the engine is between ticks. */
    Cycle nextWake() const { return wake_min_; }

    /** Adaptive fallback for throughput-bound phases: every
     *  kAdaptWindow idle-mode cycles the engine checks how many
     *  component ticks it actually skipped; below kAdaptMinSkipPct
     *  the calendar bookkeeping costs more than the skipped ticks
     *  save, so the engine runs plain full-tick for kAdaptFullSpan
     *  cycles before probing again. Always exact: a full-tick span is
     *  the legacy schedule itself, and the wakeAll() on resume
     *  re-arms every component before the calendar is trusted again. */
    static constexpr Cycle kAdaptWindow = 1024;
    static constexpr Cycle kAdaptFullSpan = 16384;
    static constexpr std::uint64_t kAdaptMinSkipPct = 40;

    /** Consecutive "active" nextActivity() answers before the engine
     *  stops asking for a while (see kQueryDefer). */
    static constexpr std::uint8_t kQueryStreak = 16;
    /** Ticks a long-active component runs without being re-queried.
     *  Keeping a component awake longer is always exact (the legacy
     *  engine ticks everything every cycle), so deferring the query
     *  only amortizes its cost; the worst case is kQueryDefer extra
     *  ticks after the component would first have slept. */
    static constexpr std::uint8_t kQueryDefer = 15;

    /** Tick every component in index order (full-tick / adaptive
     *  spans). */
    void tickAllComponents();

    Cycle now_ = 0;
    Cycle wake_min_ = 0;  //!< cached min of wake_ (see nextWake())
    bool full_tick_ = false;
    Cycle adapt_window_end_ = kAdaptWindow;
    Cycle adapt_full_until_ = 0;   //!< full-tick span end (adaptive)
    std::uint64_t adapt_skip_base_ = 0;    //!< ticks_skipped at window start
    std::uint64_t adapt_cycle_base_ = 0;   //!< cycles at window start
    std::vector<Component*> components_;
    std::vector<Cycle> wake_;        //!< calendar: next tick per component
    std::vector<Cycle> due_stamp_;   //!< cycle a component last entered due_
    std::vector<std::uint8_t> streak_;  //!< consecutive active answers
    std::vector<std::uint8_t> defer_;   //!< remaining unqueried ticks
    std::vector<std::size_t> due_;   //!< indices ticking this cycle, sorted
    std::size_t due_pos_ = 0;        //!< current position within due_
    bool ticking_ = false;
    Stats stats_;
};

inline void
Component::requestSelfWake(Cycle at)
{
    if (engine_ != nullptr)
        engine_->requestWake(this, at);
}

} // namespace gmoms

#endif // GMOMS_SIM_ENGINE_HH
