#include "src/sim/engine.hh"

#include <algorithm>
#include <cstdlib>

#include "src/sim/log.hh"

namespace gmoms
{

namespace
{

bool
envFullTick()
{
    const char* e = std::getenv("GMOMS_FULL_TICK");
    if (e == nullptr || e[0] == '\0')
        return false;
    const std::string v(e);
    // Fail loudly on anything else: a typo like GMOMS_FULL_TICK=ture
    // must not silently pick a mode (either one looks plausible in the
    // output — the two engines are bit-exact).
    if (v == "0")
        return false;
    if (v == "1")
        return true;
    fatal("GMOMS_FULL_TICK must be \"\", \"0\" or \"1\", got \"" + v +
          "\"");
}

} // namespace

Engine::Engine() : full_tick_(envFullTick()) {}

void
Engine::add(Component* c)
{
    if (c == nullptr)
        fatal("Engine::add: null component");
    if (c->engine_ == this)
        fatal("Engine::add: component '" + c->name() +
              "' registered twice (would double-tick)");
    if (c->engine_ != nullptr)
        fatal("Engine::add: component '" + c->name() +
              "' already belongs to another engine");
    c->engine_ = this;
    c->engine_index_ = components_.size();
    components_.push_back(c);
    wake_.push_back(now_);  // new components start awake
    wake_min_ = std::min(wake_min_, now_);
    due_stamp_.push_back(kCycleNever);
    streak_.push_back(0);
    defer_.push_back(0);
}

void
Engine::requestWake(Component* c, Cycle at)
{
    if (c == nullptr || c->engine_ != this)
        return;  // unbound/foreign components cannot be ticked anyway
    const std::size_t i = c->engine_index_;
    ++stats_.wakes;
    if (ticking_ && at <= now_) {
        // Same-cycle wakes are only exact for components the legacy
        // engine would still have ticked after the current one this
        // cycle (tick order == registration order). Everything else
        // observes the event next cycle, exactly as in legacy order.
        if (i > due_[due_pos_]) {
            if (due_stamp_[i] != now_) {
                due_.insert(
                    std::lower_bound(due_.begin() +
                                         static_cast<std::ptrdiff_t>(
                                             due_pos_ + 1),
                                     due_.end(), i),
                    i);
                due_stamp_[i] = now_;
            }
            return;  // ticks later this cycle, observes the event then
        }
        at = now_ + 1;
    }
    wake_[i] = std::min(wake_[i], std::max(at, now_));
    wake_min_ = std::min(wake_min_, wake_[i]);
}

void
Engine::wakeAll()
{
    for (Cycle& w : wake_)
        w = now_;
    wake_min_ = now_;
}

void
Engine::tickAllComponents()
{
    for (Component* c : components_)
        c->tick();
}

void
Engine::tick()
{
    if (full_tick_) {
        tickAllComponents();
        stats_.ticks_executed += components_.size();
        ++stats_.cycles;
        ++now_;
        return;
    }

    if (now_ < adapt_full_until_) {
        // Adaptive full-tick span (see kAdaptWindow in engine.hh):
        // skipping was not paying for its bookkeeping, so run the
        // legacy schedule and leave the calendar stale — ticking
        // everything is exact by definition, and wake hooks that fire
        // meanwhile only ever lower calendar entries, so they cannot
        // cause a wrong fast-forward.
        tickAllComponents();
        stats_.ticks_executed += components_.size();
        ++stats_.cycles;
        ++now_;
        if (now_ >= adapt_full_until_) {
            wakeAll();  // the stale calendar is re-armed before use
            adapt_window_end_ = now_ + kAdaptWindow;
            adapt_skip_base_ = stats_.ticks_skipped;
            adapt_cycle_base_ = stats_.cycles;
        }
        return;
    }

    // Clear due calendar entries up front (not per-tick): wakes set
    // DURING this cycle — e.g. a push whose token arrives in a future
    // cycle — must survive the recipient's own tick this cycle.
    due_.clear();
    Cycle min_rest = kCycleNever;  // earliest wake among sleepers
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (wake_[i] <= now_) {
            due_.push_back(i);
            due_stamp_[i] = now_;
            wake_[i] = kCycleNever;
        } else {
            min_rest = std::min(min_rest, wake_[i]);
        }
    }
    wake_min_ = min_rest;

    ticking_ = true;
    due_pos_ = 0;
    while (due_pos_ < due_.size()) {
        const std::size_t i = due_[due_pos_];
        components_[i]->tick();
        ++stats_.ticks_executed;
        // Long-active components are not re-queried every tick: extra
        // awake ticks are always exact (the full-tick engine runs them
        // all), so the nextActivity() scan cost is amortized over
        // kQueryDefer ticks once a component has answered "active"
        // kQueryStreak times in a row.
        if (defer_[i] > 0) {
            --defer_[i];
            wake_[i] = std::min(wake_[i], now_ + 1);
            wake_min_ = std::min(wake_min_, wake_[i]);
            ++due_pos_;
            continue;
        }
        const Cycle na = components_[i]->nextActivity();
        if (na <= now_) {
            if (streak_[i] < kQueryStreak)
                ++streak_[i];
            else
                defer_[i] = kQueryDefer;
            wake_[i] = std::min(wake_[i], now_ + 1);
        } else {
            streak_[i] = 0;
            if (na != kCycleNever)
                wake_[i] = std::min(wake_[i], na);
        }
        wake_min_ = std::min(wake_min_, wake_[i]);
        ++due_pos_;
    }
    ticking_ = false;

    stats_.ticks_skipped += components_.size() - due_.size();
    ++stats_.cycles;
    ++now_;

    if (now_ >= adapt_window_end_ && !components_.empty()) {
        // Fast-forwarded cycles count toward the window via
        // stats_.cycles/ticks_skipped, which is what we want: they are
        // the best case for staying in idle mode.
        const std::uint64_t skipped =
            stats_.ticks_skipped - adapt_skip_base_;
        const std::uint64_t total =
            (stats_.cycles - adapt_cycle_base_) * components_.size();
        if (total > 0 && skipped * 100 < total * kAdaptMinSkipPct)
            adapt_full_until_ = now_ + kAdaptFullSpan;
        adapt_window_end_ = now_ + kAdaptWindow;
        adapt_skip_base_ = stats_.ticks_skipped;
        adapt_cycle_base_ = stats_.cycles;
    }
}

bool
Engine::runUntil(const std::function<bool()>& done, Cycle max_cycles,
                 Poll poll)
{
    const Cycle deadline =
        max_cycles == kCycleNever ? kCycleNever : now_ + max_cycles;
    // External state may have changed since the last run (iteration
    // arming, swaps, invalidation, direct test mutation): re-observe.
    wakeAll();

    bool fired = false;
    while (now_ < deadline) {
        if (done()) {
            fired = true;
            break;
        }
        if (poll == Poll::OnEvents && !full_tick_) {
            const Cycle next = nextWake();
            if (next == kCycleNever && deadline == kCycleNever)
                panic("runUntil(OnEvents): every component is quiescent "
                      "and there is no cycle limit — deadlock");
            if (next > now_) {
                // Nothing can change before `next` (done() is pure in
                // this mode): fast-forward, clamped to the deadline.
                const Cycle target = std::min(next, deadline);
                const Cycle gap = target - now_;
                stats_.cycles += gap;
                stats_.cycles_skipped += gap;
                stats_.ticks_skipped += components_.size() * gap;
                now_ = target;
                if (now_ >= deadline)
                    break;
            }
        }
        tick();
    }

    // Reconcile bulk per-cycle accounting before the caller reads any
    // statistics (no-op for components that were never skipped).
    for (Component* c : components_)
        c->catchUp(now_);
    return fired || done();
}

} // namespace gmoms
