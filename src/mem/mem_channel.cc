#include "src/mem/mem_channel.hh"

#include <algorithm>
#include <limits>

#include "src/sim/log.hh"

namespace gmoms
{

MemChannel::MemChannel(const Engine& engine, std::string name,
                       MemKind kind, const DramConfig& cfg,
                       std::uint32_t num_ports)
    : Component(std::move(name)), engine_(engine), kind_(kind), cfg_(cfg),
      req_occupancy_(occupancyRowBytes(num_ports), 0),
      open_row_(cfg.num_banks, std::numeric_limits<std::uint64_t>::max())
{
    if (num_ports == 0)
        fatal("MemChannel needs at least one port");
    req_ports_.reserve(num_ports);
    resp_ports_.reserve(num_ports);
    for (std::uint32_t p = 0; p < num_ports; ++p) {
        req_ports_.push_back(std::make_unique<TimedQueue<MemReq>>(
            engine_, cfg.port_queue_depth, 1));
        resp_ports_.push_back(std::make_unique<TimedQueue<MemResp>>(
            engine_, cfg.resp_queue_depth, 1));
        req_ports_.back()->bindOccupancy(&req_occupancy_[p]);
        // Wake the channel when a request arrives and when a full
        // response queue frees a slot (delivery was backpressured).
        req_ports_.back()->setConsumer(this);
        resp_ports_.back()->setProducer(this);
    }
}

Cycle
MemChannel::serviceCycles(const MemReq& req)
{
    Cycle occupancy = ceilDiv(req.bytes, cfg_.bus_bytes_per_cycle) +
                      cfg_.request_overhead_cycles;
    const std::uint64_t row = req.addr / cfg_.row_bytes;
    const std::uint32_t bank =
        static_cast<std::uint32_t>(row % cfg_.num_banks);
    if (bank == last_bank_ && cfg_.same_bank_gap_cycles > 0) {
        occupancy += cfg_.same_bank_gap_cycles;
        bank_gap_cycles_ += cfg_.same_bank_gap_cycles;
    }
    last_bank_ = bank;
    if (open_row_[bank] == row) {
        ++stats_.row_hits;
    } else {
        ++stats_.row_misses;
        stats_.row_miss_penalty_cycles += cfg_.row_miss_extra_cycles;
        open_row_[bank] = row;
        occupancy += cfg_.row_miss_extra_cycles;
    }
    return occupancy;
}

void
MemChannel::tick()
{
    const Cycle now = engine_.now();

    // Deliver completed transactions (completions are in service order
    // because latency is constant and bus service is serialized).
    while (!in_flight_.empty() && in_flight_.front().complete_at <= now) {
        InFlight& f = in_flight_.front();
        if (!resp_ports_[f.port]->canPush())
            break;  // backpressure: retry next cycle
        resp_ports_[f.port]->push(f.resp);
        in_flight_.pop_front();
    }

    // Accept one new transaction per cycle, round-robin across ports.
    if (bus_free_at_ > now)
        return;  // data bus still busy with the previous transaction
    const std::uint32_t n = numPorts();
    const std::uint32_t p = forEachOccupied(
        req_occupancy_.data(), n, next_port_,
        [this](std::uint32_t i) { return req_ports_[i]->canPop(); });
    if (p == n)
        return;
    MemReq req = req_ports_[p]->pop();
    const Cycle start = std::max(now, bus_free_at_);
    const Cycle occupancy = serviceCycles(req);
    bus_free_at_ = start + occupancy;
    stats_.busy_cycles += occupancy;
    if (req.write) {
        ++stats_.writes;
        stats_.bytes_written += req.bytes;
    } else {
        ++stats_.reads;
        stats_.bytes_read += req.bytes;
    }
    in_flight_.push_back(InFlight{
        MemResp{req.addr, req.bytes, req.tag, req.write}, p,
        bus_free_at_ + cfg_.load_latency_cycles});
    next_port_ = p + 1 == n ? 0 : p + 1;
}

Cycle
MemChannel::nextActivity() const
{
    const Cycle now = engine_.now();
    Cycle next = kCycleNever;
    if (!in_flight_.empty()) {
        if (in_flight_.front().complete_at > now)
            next = in_flight_.front().complete_at;
        else if (resp_ports_[in_flight_.front().port]->canPush())
            return 0;  // deliverable now (tick raced the wake)
        // else: blocked on a full response queue; its producer hook
        // (bound in the constructor) wakes us when a slot frees.
    }
    // In-flight requests count too: a token pushed toward us with
    // arrival cycle r can first be accepted at max(r, bus free), and
    // never before next cycle (we just ticked).
    forEachOccupied(req_occupancy_.data(), numPorts(), 0,
                    [&](std::uint32_t p) {
                        next = std::min(
                            next,
                            std::max({req_ports_[p]->peekReadyCycle(),
                                      bus_free_at_, now + 1}));
                        return false;
                    });
    return next;
}

bool
MemChannel::idle() const
{
    if (!in_flight_.empty())
        return false;
    for (const auto& rq : req_ports_)
        if (!rq->empty())
            return false;
    for (const auto& rp : resp_ports_)
        if (!rp->empty())
            return false;
    return true;
}

void
MemChannel::registerStats(StatRegistry& reg) const
{
    stat_eraser_ = reg.scopedPrefix(name() + ".");
    reg.addCounter(name() + ".reads", &stats_.reads);
    reg.addCounter(name() + ".writes", &stats_.writes);
    reg.addCounter(name() + ".bytes_read", &stats_.bytes_read);
    reg.addCounter(name() + ".bytes_written", &stats_.bytes_written);
    reg.addCounter(name() + ".row_hits", &stats_.row_hits);
    reg.addCounter(name() + ".row_misses", &stats_.row_misses);
    reg.addCounter(name() + ".busy_cycles", &stats_.busy_cycles);
    reg.addCounter(name() + ".row_miss_penalty_cycles",
                   &stats_.row_miss_penalty_cycles);
    if (kind_ == MemKind::Hbm2)
        reg.addCounter(name() + ".bank_gap_cycles", &bank_gap_cycles_);
}

void
MemChannel::registerTelemetry(Telemetry& tele)
{
    // No per-tick backpressure counting here: the delivery-retry loop
    // runs at different tick frequencies under the two engine modes,
    // so a per-tick counter would not be engine-mode exact. Row-miss
    // and same-bank-gap cycles are charged per transaction and are
    // exact. DDR4 channels share the aggregate "dram" group; each HBM2
    // pseudo-channel reports under its own name.
    const bool hbm = kind_ == MemKind::Hbm2;
    const std::string group = hbm ? name() : std::string("dram");
    tele.addStall(group, StallCause::RowMiss,
                  &stats_.row_miss_penalty_cycles);
    if (hbm)
        tele.addStall(group, StallCause::BankConflict, &bank_gap_cycles_);
    tele.addCounter(group + ".bytes_read", &stats_.bytes_read);
    tele.addCounter(group + ".bytes_written", &stats_.bytes_written);
    tele.addCounter(group + ".busy_cycles", &stats_.busy_cycles);
    tele.addCounter(group + ".row_misses", &stats_.row_misses);
    tele.addLevel(group + ".in_flight", [this] {
        return static_cast<double>(in_flight_.size());
    });
    in_flight_.attachProbe(
        tele.makeQueueProbe(name() + ".in_flight", 0), &engine_);
}

} // namespace gmoms
