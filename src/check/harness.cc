#include "src/check/harness.hh"

#include <fstream>
#include <sstream>

#include "src/accel/pe.hh"
#include "src/accel/scheduler.hh"
#include "src/cache/moms_system.hh"
#include "src/mem/memory_system.hh"
#include "src/obs/telemetry.hh"
#include "src/sim/log.hh"

namespace gmoms
{

namespace
{

/** Level-1 banks: what PEs talk to directly. */
const std::vector<std::unique_ptr<MomsBank>>&
level1(const MomsSystem& moms)
{
    return moms.privateBanks().empty() ? moms.sharedBanks()
                                       : moms.privateBanks();
}

std::uint64_t
sumQueued(const std::vector<std::unique_ptr<MomsBank>>& banks,
          bool responses)
{
    std::uint64_t total = 0;
    for (const auto& b : banks)
        total += responses ? b->cpuRespOut().size() : b->cpuReqIn().size();
    return total;
}

} // namespace

std::vector<std::string>
boundViolations(const RunBounds& run)
{
    std::vector<std::string> out;
    auto check = [&](const std::vector<RunBounds::Count>& units,
                     std::uint64_t per_cycle, const char* what) {
        for (const RunBounds::Count& u : units)
            if (u.value > run.cycles * per_cycle)
                out.push_back(u.name + ": " + std::to_string(u.value) +
                              " " + what + " in " +
                              std::to_string(run.cycles) +
                              " cycles, above " +
                              std::to_string(per_cycle) + " per cycle");
    };
    check(run.pe_edges, 1, "edges gathered");
    check(run.channel_bytes, run.bus_bytes_per_cycle, "bytes moved");
    check(run.bank_requests, 1, "requests accepted");
    return out;
}

CheckHarness::CheckHarness(Engine& engine, const CheckConfig& cfg,
                           Wiring wiring)
    : Component("check"), engine_(engine), cfg_(cfg), w_(wiring),
      next_check_(engine.now() + cfg.watchdog_interval)
{
    if (cfg_.watchdog_interval == 0)
        fatal("CheckConfig::watchdog_interval must be nonzero");
    engine_.add(this);
}

CheckHarness::~CheckHarness() = default;

void
CheckHarness::tick()
{
    // Same contract as the telemetry sampler: wakeAll()/full-tick may
    // tick us on any cycle; checkpoints happen only at the pinned
    // boundary so both engine modes observe identical behavior.
    if (engine_.now() < next_check_)
        return;

    const std::uint64_t sig = progressSignature();
    bool drained = w_.moms || w_.mem || w_.sched || w_.pes;
    if (w_.moms && !w_.moms->idle())
        drained = false;
    if (w_.mem && !w_.mem->idle())
        drained = false;
    if (w_.sched && w_.sched->hasJobs())
        drained = false;
    if (w_.pes)
        for (const auto& pe : *w_.pes)
            if (!pe->idle())
                drained = false;

    if (have_signature_ && sig == last_signature_ && !drained)
        fail("quiescence watchdog: no forward progress over " +
             std::to_string(cfg_.watchdog_interval) +
             " cycles with work outstanding (wedged simulation)");

    last_signature_ = sig;
    have_signature_ = true;
    next_check_ = engine_.now() + cfg_.watchdog_interval;
}

std::uint64_t
CheckHarness::progressSignature() const
{
    // Only *progress* events: stall/idle counters advance during a
    // wedge and engine tick counts always advance under full tick, so
    // neither may contribute.
    std::uint64_t sig = 0;
    if (w_.sched)
        sig += w_.sched->jobsPulled();
    if (w_.pes) {
        for (const auto& pe : *w_.pes) {
            const Pe::Stats& s = pe->stats();
            sig += s.jobs + s.edges_processed + s.local_src_reads +
                   s.moms_reads + s.moms_resps;
        }
    }
    if (w_.moms) {
        sig += w_.moms->totalRequests() + w_.moms->totalHits() +
               w_.moms->totalLinesFromMem();
        for (const auto& b : w_.moms->sharedBanks())
            sig += b->stats().responses + b->stats().requests;
        for (const auto& b : w_.moms->privateBanks())
            sig += b->stats().responses;
    }
    if (w_.mem)
        sig += w_.mem->totalBytesRead() + w_.mem->totalBytesWritten();
    return sig;
}

std::string
CheckHarness::conservationReport(std::vector<std::string>* violations,
                                 bool at_drain) const
{
    std::ostringstream out;
    if (!w_.moms)
        return "";
    const MomsSystem& moms = *w_.moms;
    const auto& l1 = level1(moms);
    const bool two_level = !moms.privateBanks().empty() &&
                           !moms.sharedBanks().empty();

    auto violate = [&](const std::string& v) {
        if (violations)
            violations->push_back(v);
        out << "  VIOLATION: " << v << "\n";
    };

    // --- request tokens: PE sends vs level-1 bank receipts -------------
    std::uint64_t pe_sends = 0, pe_recvs = 0;
    if (w_.pes) {
        for (const auto& pe : *w_.pes) {
            pe_sends += pe->stats().moms_reads;
            pe_recvs += pe->stats().moms_resps;
        }
        // PE->L1 in flight: the crossbar queues (Shared topology: the
        // crossbar sits between PEs and the shared banks) plus the
        // banks' input queues.
        std::uint64_t req_inflight = sumQueued(l1, false);
        if (!two_level)
            req_inflight += moms.xbarReqDepth();
        std::uint64_t l1_reqs = 0, l1_resps = 0;
        for (const auto& b : l1) {
            l1_reqs += b->stats().requests;
            l1_resps += b->stats().responses;
        }
        out << "  request tokens: PE sends " << pe_sends
            << " = bank receipts " << l1_reqs << " + in-flight "
            << req_inflight << "\n";
        if (pe_sends > l1_reqs + req_inflight)
            violate(std::to_string(pe_sends - l1_reqs - req_inflight) +
                    " request token(s) lost between the PEs and the "
                    "level-1 banks (crossbar dropped a request?)");
        else if (pe_sends < l1_reqs + req_inflight)
            violate("level-1 banks saw more request tokens than the "
                    "PEs sent (duplicated token?)");

        // --- response tokens: level-1 emissions vs PE receipts ---------
        std::uint64_t resp_inflight = sumQueued(l1, true);
        if (!two_level)
            resp_inflight += moms.xbarRespDepth();
        out << "  response tokens: bank responses " << l1_resps
            << " = PE receipts " << pe_recvs << " + in-flight "
            << resp_inflight << "\n";
        if (l1_resps > pe_recvs + resp_inflight)
            violate(std::to_string(l1_resps - pe_recvs - resp_inflight) +
                    " response token(s) lost between the level-1 banks "
                    "and the PEs");
        if (!at_drain && resp_inflight > 0)
            violate(std::to_string(resp_inflight) +
                    " undelivered response(s) wedged in flight (stuck "
                    "credit or wedged consumer)");
        if (at_drain && resp_inflight > 0)
            violate(std::to_string(resp_inflight) +
                    " response(s) still queued after drain (stuck "
                    "credit)");
        if (at_drain && pe_sends != pe_recvs)
            violate("PE request/response imbalance at drain: sent " +
                    std::to_string(pe_sends) + ", received " +
                    std::to_string(pe_recvs));
    }

    // --- die-crossing / L1->L2 token balance (TwoLevel only) ------------
    if (two_level) {
        std::uint64_t l1_primary = 0, l1_lines = 0;
        for (const auto& b : moms.privateBanks()) {
            l1_primary += b->stats().primary_misses;
            l1_lines += b->stats().lines_from_mem;
        }
        std::uint64_t l2_reqs = 0, l2_resps = 0;
        for (const auto& b : moms.sharedBanks()) {
            l2_reqs += b->stats().requests;
            l2_resps += b->stats().responses;
        }
        const std::uint64_t down_inflight =
            moms.xbarReqDepth() + sumQueued(moms.sharedBanks(), false);
        const std::uint64_t up_inflight =
            moms.xbarRespDepth() + sumQueued(moms.sharedBanks(), true);
        out << "  crossing down: L1 misses " << l1_primary
            << " = L2 receipts " << l2_reqs << " + in-flight "
            << down_inflight << "\n";
        out << "  crossing up: L2 responses " << l2_resps
            << " = L1 lines " << l1_lines << " + in-flight "
            << up_inflight << "\n";
        if (l1_primary > l2_reqs + down_inflight)
            violate("die-crossing request token(s) lost between L1 and "
                    "L2 banks");
        if (l2_resps > l1_lines + up_inflight)
            violate("die-crossing response token(s) lost between L2 and "
                    "L1 banks");
    }

    // --- per-bank occupancy: must be empty in a drained system ----------
    auto audit = [&](const std::vector<std::unique_ptr<MomsBank>>& banks) {
        for (const auto& b : banks) {
            const std::uint64_t mshr_occ = b->mshrs().occupancy();
            const std::uint64_t sub_occ = b->subentries().occupancy();
            if (at_drain && mshr_occ > 0)
                violate("MSHR leak: bank " + b->name() + " holds " +
                        std::to_string(mshr_occ) +
                        " allocated MSHR(s) after drain (allocate/free "
                        "imbalance)");
            if (at_drain && sub_occ > 0)
                violate("subentry leak: bank " + b->name() + " holds " +
                        std::to_string(sub_occ) +
                        " subentries after drain");
            if (at_drain && b->stats().lines_from_mem !=
                                b->stats().primary_misses)
                violate("bank " + b->name() + ": " +
                        std::to_string(b->stats().primary_misses) +
                        " primary misses but " +
                        std::to_string(b->stats().lines_from_mem) +
                        " lines delivered from downstream");
        }
    };
    audit(moms.privateBanks());
    audit(moms.sharedBanks());

    // --- physical bounds over the whole run (drain only: a channel
    //     counts a transaction's bytes before its bus cycles pass) ----
    if (at_drain) {
        RunBounds run;
        run.cycles = engine_.now();
        if (w_.pes)
            for (const auto& pe : *w_.pes)
                run.pe_edges.push_back(
                    {pe->name(), pe->stats().edges_processed});
        if (w_.mem) {
            run.bus_bytes_per_cycle =
                w_.mem->substrate().timing.bus_bytes_per_cycle;
            for (std::uint32_t c = 0; c < w_.mem->numChannels(); ++c) {
                const MemChannel& ch = w_.mem->channel(c);
                run.channel_bytes.push_back(
                    {ch.name(),
                     ch.stats().bytes_read + ch.stats().bytes_written});
            }
        }
        for (const auto* banks : {&moms.privateBanks(), &moms.sharedBanks()})
            for (const auto& b : *banks)
                run.bank_requests.push_back(
                    {b->name(), b->stats().requests});
        for (const std::string& v : boundViolations(run))
            violate("bound: " + v);
    }

    return out.str();
}

std::string
CheckHarness::diagnosticDump(const std::string& reason) const
{
    std::ostringstream out;
    out << "=== hardening-layer diagnostic dump ===\n"
        << "reason: " << reason << "\n"
        << "cycle: " << engine_.now() << "\n";
    if (!cfg_.replay_context.empty())
        out << "replay: " << cfg_.replay_context << " fail_cycle="
            << engine_.now() << "\n";

    if (w_.sched)
        out << "scheduler: jobs pulled " << w_.sched->jobsPulled()
            << ", has jobs: " << (w_.sched->hasJobs() ? "yes" : "no")
            << ", iteration done: "
            << (w_.sched->iterationDone() ? "yes" : "no") << "\n";
    if (w_.mem)
        out << "memory: idle " << (w_.mem->idle() ? "yes" : "no")
            << ", bytes read " << w_.mem->totalBytesRead()
            << ", bytes written " << w_.mem->totalBytesWritten() << "\n";

    if (w_.pes) {
        out << "processing elements:\n";
        for (const auto& pe : *w_.pes)
            out << "  " << pe->statusLine() << "\n";
    }

    if (w_.moms) {
        out << "MOMS (" << (w_.moms->idle() ? "idle" : "busy")
            << "), non-empty queues and occupied structures:\n";
        const std::string queues = w_.moms->queueReport();
        out << (queues.empty() ? std::string("  (all drained)\n")
                               : queues);
        out << "conservation balance:\n"
            << conservationReport(nullptr, false);
    }

    if (w_.telemetry) {
        // Mid-run finalize is safe here: every dump precedes a throw,
        // so no further windows would ever have been sampled.
        out << "stall attribution (telemetry):\n"
            << bottleneckReport(*w_.telemetry->finalize());
    }
    out << "=== end of dump ===\n";
    return out.str();
}

void
CheckHarness::fail(const std::string& reason) const
{
    const std::string dump = diagnosticDump(reason);
    if (!cfg_.dump_path.empty()) {
        std::ofstream f(cfg_.dump_path);
        f << dump;
    }
    throw CheckError(reason, dump);
}

void
CheckHarness::failBudget(std::uint64_t max_cycles) const
{
    fail("cycle budget exceeded: no completion after " +
         std::to_string(max_cycles) +
         " cycles (deadlock or undersized AccelConfig::max_cycles)");
}

void
CheckHarness::verifyDrained() const
{
    std::vector<std::string> violations;
    if (w_.moms && !w_.moms->idle())
        violations.push_back("MOMS not drained after the final drain "
                             "window");
    if (w_.mem && !w_.mem->idle())
        violations.push_back("memory system not drained after the final "
                             "drain window");
    conservationReport(&violations, true);
    if (violations.empty())
        return;
    std::string reason = "post-drain conservation audit failed:";
    for (const std::string& v : violations)
        reason += "\n  - " + v;
    fail(reason);
}

} // namespace gmoms
