#include "src/cache/moms_bank.hh"

#include <algorithm>

#include "src/sim/log.hh"

namespace gmoms
{

MomsBank::MomsBank(const Engine& engine, std::string name,
                   const MomsBankConfig& cfg)
    : Component(std::move(name)), engine_(engine), cfg_(cfg),
      cache_(cfg.cache_bytes, cfg.cache_ways),
      subentries_(cfg.num_subentries),
      cpu_req_in_(engine, cfg.req_queue_depth, cfg.req_latency),
      cpu_resp_out_(engine, cfg.resp_queue_depth, cfg.resp_latency)
{
    if (cfg.assoc_mshr) {
        mshrs_ = std::make_unique<AssocMshr>(cfg.num_mshrs);
    } else {
        mshrs_ = std::make_unique<CuckooMshr>(cfg.num_mshrs,
                                              cfg.mshr_tables,
                                              cfg.max_kicks);
    }
    // Wake on request arrival and on response-queue backpressure
    // release (a blocked hit/drain can proceed).
    cpu_req_in_.setConsumer(this);
    cpu_resp_out_.setProducer(this);
}

Cycle
MomsBank::nextActivity() const
{
    if (drain_cursor_ != kNoSubentry || !drain_pending_.empty())
        return 0;  // drain engine busy (or stalling) every cycle
    if (retry_)
        return 0;  // stalled request retries (and counts) every cycle
    // Cycle-valued: in-flight tokens (requests in the input queue,
    // lines travelling back from downstream) bound the next tick even
    // when they are not poppable yet — queue hooks only cover pushes
    // that happen while the bank is asleep.
    Cycle next = cpu_req_in_.peekReadyCycle();
    if (mshrs_->occupancy() > 0 && down_ != nullptr)
        next = std::min(next, down_->lineReadyCycle());
    return next;
}

void
MomsBank::tick()
{
    if (!down_)
        panic("MomsBank has no downstream connected");

    // 1. Drain engine: deliver one pending subentry response per cycle
    //    through the response output port.
    resp_port_used_ = false;
    if (drain_cursor_ == kNoSubentry && !drain_pending_.empty()) {
        drain_line_ = drain_pending_.front().first;
        drain_cursor_ = drain_pending_.front().second;
        drain_pending_.pop_front();
    }
    if (drain_cursor_ != kNoSubentry) {
        ++stats_.drain_busy;
        if (cpu_resp_out_.canPush()) {
            // Used up before the request pipeline below can append
            // (an append may move the subentry storage).
            const SubentryStore::Subentry& sub =
                subentries_.at(drain_cursor_);
            cpu_resp_out_.push(ReadResp{drain_line_ + sub.line_offset,
                                        sub.tag, sub.client});
            ++stats_.responses;
            drain_cursor_ = subentries_.free(drain_cursor_);
            resp_port_used_ = true;
        } else {
            ++stats_.stall_resp_out;
        }
    }

    // 2. One input operation: a returning line takes priority over a
    //    request (pipeline sharing, Section V-E). Polling downstream
    //    is pointless without outstanding misses.
    if (drain_pending_.size() < 4 && mshrs_->occupancy() > 0) {
        if (std::optional<Addr> line = down_->receive()) {
            MshrEntry* entry = mshrs_->find(*line);
            if (!entry)
                panic("line response without an MSHR entry");
            ++stats_.lines_from_mem;
            drain_pending_.emplace_back(*line, entry->subentry_head);
            mshrs_->erase(*line);
            cache_.fill(*line);
            return;
        }
    }

    // 3. Request pipeline: retry register first, then the input queue.
    if (retry_) {
        if (processRequest(*retry_))
            retry_.reset();
        return;
    }
    if (cpu_req_in_.canPop()) {
        ReadReq req = cpu_req_in_.pop();
        ++stats_.requests;
        if (!processRequest(req))
            retry_ = req;
    }
}

bool
MomsBank::processRequest(const ReadReq& req)
{
    const Addr line = lineOf(req.addr);

    if (MshrEntry* entry = mshrs_->find(line)) {
        // Secondary miss (MSHR hit): equivalent to a cache hit from a
        // throughput perspective — no new memory request.
        if (cfg_.max_subentries_per_miss != 0 &&
            entry->subentry_count >= cfg_.max_subentries_per_miss) {
            ++stats_.stall_subentry;
            return false;
        }
        if (!subentries_.append(*entry, req.tag, req.client,
                                static_cast<std::uint16_t>(
                                    lineOffset(req.addr)))) {
            ++stats_.stall_subentry;
            return false;
        }
        ++stats_.secondary_misses;
        return true;
    }

    if (cache_.contains(line)) {
        // Hit data and drain data contend for the response output port.
        if (resp_port_used_ || !cpu_resp_out_.canPush()) {
            ++stats_.stall_resp_out;
            return false;
        }
        cache_.lookup(line);  // commit LRU update and hit statistics
        cpu_resp_out_.push(ReadResp{req.addr, req.tag, req.client});
        ++stats_.hits;
        ++stats_.responses;
        return true;
    }

    // Primary miss: needs a subentry, an MSHR slot and downstream space.
    if (subentries_.full()) {
        ++stats_.stall_subentry;
        return false;
    }
    if (!down_->canSend(line)) {
        ++stats_.stall_downstream;
        return false;
    }
    MshrEntry* entry = mshrs_->insert(line);
    if (!entry) {
        ++stats_.stall_mshr;
        return false;
    }
    if (!subentries_.append(*entry, req.tag, req.client,
                            static_cast<std::uint16_t>(
                                lineOffset(req.addr))))
        panic("subentry pool exhausted after availability check");
    down_->send(line);
    ++stats_.primary_misses;
    return true;
}

bool
MomsBank::idle() const
{
    return cpu_req_in_.empty() && cpu_resp_out_.empty() && !retry_ &&
           drain_cursor_ == kNoSubentry && drain_pending_.empty() &&
           mshrs_->occupancy() == 0;
}

void
MomsBank::registerStats(StatRegistry& reg) const
{
    stat_eraser_ = reg.scopedPrefix(name() + ".");
    reg.addCounter(name() + ".requests", &stats_.requests);
    reg.addCounter(name() + ".hits", &stats_.hits);
    reg.addCounter(name() + ".primary_misses", &stats_.primary_misses);
    reg.addCounter(name() + ".secondary_misses",
                   &stats_.secondary_misses);
    reg.addCounter(name() + ".responses", &stats_.responses);
    reg.addCounter(name() + ".lines_from_mem", &stats_.lines_from_mem);
    reg.addCounter(name() + ".stall_mshr", &stats_.stall_mshr);
    reg.addCounter(name() + ".stall_subentry", &stats_.stall_subentry);
    reg.addCounter(name() + ".stall_downstream",
                   &stats_.stall_downstream);
    reg.addCounter(name() + ".drain_busy", &stats_.drain_busy);
}

void
MomsBank::registerTelemetry(Telemetry& tele, const std::string& group,
                            StallCause downstream_cause)
{
    tele.addStall(group, StallCause::MshrFull, &stats_.stall_mshr);
    tele.addStall(group, StallCause::SubentryFull,
                  &stats_.stall_subentry);
    tele.addStall(group, downstream_cause, &stats_.stall_downstream);
    tele.addStall(group, StallCause::DownstreamBackpressure,
                  &stats_.stall_resp_out);
    tele.addCounter(group + ".requests", &stats_.requests);
    tele.addCounter(group + ".hits", &stats_.hits);
    tele.addCounter(group + ".secondary_misses",
                    &stats_.secondary_misses);
    tele.addCounter(group + ".lines_from_mem", &stats_.lines_from_mem);
    tele.addLevel(group + ".mshr_occupancy", [this] {
        return static_cast<double>(mshrs_->occupancy());
    });
    cpu_req_in_.attachProbe(tele.makeQueueProbe(
        name() + ".req_in", cpu_req_in_.capacity()));
    cpu_resp_out_.attachProbe(tele.makeQueueProbe(
        name() + ".resp_out", cpu_resp_out_.capacity()));
    drain_pending_.attachProbe(
        tele.makeQueueProbe(name() + ".drain_pending", 0), &engine_);
}

} // namespace gmoms
