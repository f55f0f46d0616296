#include "src/cache/moms_system.hh"

#include <algorithm>

#include "src/sim/log.hh"

namespace gmoms
{

// ---------------------------------------------------------------------
// MomsConfig factories and helpers
// ---------------------------------------------------------------------

std::string
MomsConfig::label(std::uint32_t num_pes) const
{
    const bool traditional = shared_bank.assoc_mshr ||
                             private_bank.assoc_mshr;
    const std::string kind = traditional ? "trad" : "moms";
    switch (topology) {
      case Topology::Shared:
        return std::to_string(num_pes) + "/" +
               std::to_string(num_shared_banks) + " shared-" + kind;
      case Topology::Private:
        return std::to_string(num_pes) + " private-" + kind + " " +
               std::to_string(private_bank.cache_bytes / 1024) + "k";
      case Topology::TwoLevel:
        return std::to_string(num_pes) + "/" +
               std::to_string(num_shared_banks) + " " + kind + " " +
               std::to_string(private_bank.cache_bytes / 1024) + "k";
    }
    return "?";
}

MomsConfig
MomsConfig::shared(std::uint32_t banks)
{
    MomsConfig cfg;
    cfg.topology = Topology::Shared;
    cfg.num_shared_banks = banks;
    cfg.shared_bank = MomsBankConfig{};  // 32 kB DM, 512 MSHR, 4096 sub
    return cfg;
}

MomsConfig
MomsConfig::privateOnly()
{
    MomsConfig cfg;
    cfg.topology = Topology::Private;
    cfg.private_bank = MomsBankConfig{};
    cfg.private_bank.cache_ways = 4;  // paper: 4-way when no shared level
    cfg.private_bank.num_subentries = 12288;  // paper 49,152 scaled
    return cfg;
}

MomsConfig
MomsConfig::twoLevel(std::uint32_t banks,
                     std::uint64_t private_cache_bytes)
{
    MomsConfig cfg;
    cfg.topology = Topology::TwoLevel;
    cfg.num_shared_banks = banks;
    cfg.shared_bank = MomsBankConfig{};
    cfg.private_bank = MomsBankConfig{};
    cfg.private_bank.cache_bytes = private_cache_bytes;
    cfg.private_bank.cache_ways = private_cache_bytes ? 4 : 1;
    cfg.private_bank.num_subentries = 12288;  // paper 49,152 scaled
    return cfg;
}

namespace
{

MomsBankConfig
traditionalBank(std::uint64_t cache_bytes, std::uint32_t ways)
{
    MomsBankConfig b;
    b.cache_bytes = cache_bytes;
    b.cache_ways = ways;
    b.assoc_mshr = true;
    b.num_mshrs = 16;
    b.max_subentries_per_miss = 8;
    b.num_subentries = 16 * 8;
    return b;
}

} // namespace

MomsConfig
MomsConfig::traditionalShared(std::uint32_t banks)
{
    MomsConfig cfg;
    cfg.topology = Topology::Shared;
    cfg.num_shared_banks = banks;
    cfg.shared_bank = traditionalBank(1024, 1);
    return cfg;
}

MomsConfig
MomsConfig::traditionalTwoLevel(std::uint32_t banks)
{
    MomsConfig cfg;
    cfg.topology = Topology::TwoLevel;
    cfg.num_shared_banks = banks;
    cfg.shared_bank = traditionalBank(1024, 1);
    cfg.private_bank = traditionalBank(1024, 4);
    return cfg;
}

MomsConfig
MomsConfig::withoutCacheArrays() const
{
    MomsConfig cfg = *this;
    cfg.shared_bank.cache_bytes = 0;
    cfg.private_bank.cache_bytes = 0;
    return cfg;
}

MomsConfig
MomsConfig::withPrivateCache(std::uint64_t bytes) const
{
    MomsConfig cfg = *this;
    cfg.private_bank.cache_bytes = bytes;
    cfg.private_bank.cache_ways = bytes ? 4 : 1;
    return cfg;
}

MomsConfig
MomsConfig::withSharedCache(std::uint64_t bytes) const
{
    MomsConfig cfg = *this;
    cfg.shared_bank.cache_bytes = bytes;
    return cfg;
}

// ---------------------------------------------------------------------
// Internal adapters
// ---------------------------------------------------------------------

/** Memory side of a bank that talks straight to DRAM. */
struct MomsSystem::DramAdapter : public LineDownstream
{
    explicit DramAdapter(MemPort port) : port(port) {}

    bool canSend(Addr line) const override { return port.canSend(line); }
    void
    send(Addr line) override
    {
        if (!port.send(MemReq{line, kLineBytes, line, false}))
            panic("DramAdapter::send after canSend");
    }
    std::optional<Addr>
    receive() override
    {
        if (auto resp = port.receive())
            return resp->addr;
        return std::nullopt;
    }
    Cycle lineReadyCycle() const override
    {
        return port.responseReadyCycle();
    }
    void bindUpstream(Component* bank) override
    {
        port.bindClient(bank);
    }

    MemPort port;
};

/** Memory side of an L1 bank that targets the shared level through the
 *  crossbar (client index = the PE / private-bank index). */
struct MomsSystem::SharedLevelAdapter : public LineDownstream
{
    SharedLevelAdapter(TimedQueue<ReadReq>& req, TimedQueue<ReadResp>& resp,
                       std::uint32_t client)
        : req(req), resp(resp), client(client) {}

    bool canSend(Addr) const override { return req.canPush(); }
    void
    send(Addr line) override
    {
        if (!req.push(ReadReq{line, line, client}))
            panic("SharedLevelAdapter::send after canSend");
    }
    std::optional<Addr>
    receive() override
    {
        if (resp.canPop())
            return lineOf(resp.pop().addr);
        return std::nullopt;
    }
    Cycle lineReadyCycle() const override
    {
        return resp.peekReadyCycle();
    }
    void bindUpstream(Component* bank) override
    {
        req.setProducer(bank);
        resp.setConsumer(bank);
    }

    TimedQueue<ReadReq>& req;
    TimedQueue<ReadResp>& resp;
    std::uint32_t client;
};

/** PE port wired straight into a private bank. */
struct MomsSystem::BankDirectPort : public SourcePort
{
    BankDirectPort(MomsBank& bank, std::uint32_t client)
        : bank(bank), client(client) {}

    bool canSend() const override { return bank.cpuReqIn().canPush(); }
    bool
    send(const ReadReq& req) override
    {
        ReadReq r = req;
        r.client = client;
        return bank.cpuReqIn().push(r);
    }
    std::optional<ReadResp>
    receive() override
    {
        if (bank.cpuRespOut().canPop())
            return bank.cpuRespOut().pop();
        return std::nullopt;
    }
    Cycle responseReadyCycle() const override
    {
        return bank.cpuRespOut().peekReadyCycle();
    }
    void bindClient(Component* pe) override
    {
        bank.cpuReqIn().setProducer(pe);
        bank.cpuRespOut().setConsumer(pe);
    }

    MomsBank& bank;
    std::uint32_t client;
};

/** PE port wired into the crossbar (shared-only topology). */
struct MomsSystem::CrossbarPort : public SourcePort
{
    CrossbarPort(TimedQueue<ReadReq>& req, TimedQueue<ReadResp>& resp,
                 std::uint32_t client)
        : req(req), resp(resp), client(client) {}

    bool canSend() const override { return req.canPush(); }
    bool
    send(const ReadReq& r) override
    {
        ReadReq rr = r;
        rr.client = client;
        return req.push(rr);
    }
    std::optional<ReadResp>
    receive() override
    {
        if (resp.canPop())
            return resp.pop();
        return std::nullopt;
    }
    Cycle responseReadyCycle() const override
    {
        return resp.peekReadyCycle();
    }
    void bindClient(Component* pe) override
    {
        req.setProducer(pe);
        resp.setConsumer(pe);
    }

    TimedQueue<ReadReq>& req;
    TimedQueue<ReadResp>& resp;
    std::uint32_t client;
};

// ---------------------------------------------------------------------
// MomsSystem
// ---------------------------------------------------------------------

MomsSystem::MomsSystem(Engine& engine, MemorySystem& mem,
                       std::uint32_t first_mem_port, std::uint32_t num_pes,
                       const MomsConfig& cfg,
                       const std::string& name_prefix)
    : Component(name_prefix + "moms"), engine_(engine), mem_(mem),
      cfg_(cfg),
      num_pes_(num_pes), num_channels_(mem.numChannels())
{
    const bool has_shared = cfg.topology != MomsConfig::Topology::Private;
    const bool has_private = cfg.topology != MomsConfig::Topology::Shared;

    if (num_pes == 0)
        fatal("MomsSystem needs at least one PE port");

    if (has_shared) {
        if (cfg.num_shared_banks == 0 ||
            cfg.num_shared_banks % num_channels_ != 0)
            fatal("shared bank count must be a nonzero multiple of the "
                  "channel count (static bank-to-channel binding)");
        for (std::uint32_t b = 0; b < cfg.num_shared_banks; ++b) {
            shared_banks_.push_back(std::make_unique<MomsBank>(
                engine, name_prefix + "moms.shared" + std::to_string(b),
                cfg.shared_bank));
            if (cfg.dynaburst) {
                assemblers_.push_back(std::make_unique<BurstAssembler>(
                    engine,
                    name_prefix + "moms.dynaburst" + std::to_string(b),
                    cfg.dynaburst_cfg,
                    mem.port(first_mem_port + mem_ports_used_)));
                engine.add(assemblers_.back().get());
                shared_banks_.back()->connectDownstream(
                    assemblers_.back().get());
            } else {
                downstreams_.push_back(std::make_unique<DramAdapter>(
                    mem.port(first_mem_port + mem_ports_used_)));
                shared_banks_.back()->connectDownstream(
                    downstreams_.back().get());
            }
            ++mem_ports_used_;
            engine.add(shared_banks_.back().get());
            // The crossbar (this component) feeds the bank's request
            // queue and drains its response queue.
            shared_banks_.back()->cpuReqIn().setProducer(this);
            shared_banks_.back()->cpuRespOut().setConsumer(this);
        }
        bank_resp_occupancy_.assign(
            occupancyRowBytes(shared_banks_.size()), 0);
        for (std::size_t b = 0; b < shared_banks_.size(); ++b)
            shared_banks_[b]->cpuRespOut().bindOccupancy(
                &bank_resp_occupancy_[b]);
    }

    // Crossbar client queues: one pair per PE/private bank.
    if (has_shared) {
        const std::size_t cap = std::max<std::size_t>(
            cfg.crossbar_queue_depth, cfg.crossing_latency + 2);
        xbar_req_occupancy_.assign(occupancyRowBytes(num_pes), 0);
        for (std::uint32_t c = 0; c < num_pes; ++c) {
            xbar_req_.push_back(std::make_unique<TimedQueue<ReadReq>>(
                engine, cap, cfg.crossing_latency));
            xbar_resp_.push_back(std::make_unique<TimedQueue<ReadResp>>(
                engine, cap, cfg.crossing_latency));
            xbar_req_.back()->bindOccupancy(&xbar_req_occupancy_[c]);
            xbar_req_.back()->setConsumer(this);
            xbar_resp_.back()->setProducer(this);
        }
    }

    if (has_private) {
        for (std::uint32_t p = 0; p < num_pes; ++p) {
            private_banks_.push_back(std::make_unique<MomsBank>(
                engine,
                name_prefix + "moms.private" + std::to_string(p),
                cfg.private_bank));
            LineDownstream* down = nullptr;
            if (cfg.topology == MomsConfig::Topology::Private) {
                if (cfg.dynaburst) {
                    assemblers_.push_back(
                        std::make_unique<BurstAssembler>(
                            engine,
                            name_prefix + "moms.dynaburst" +
                                std::to_string(p),
                            cfg.dynaburst_cfg,
                            mem.port(first_mem_port +
                                     mem_ports_used_)));
                    engine.add(assemblers_.back().get());
                    down = assemblers_.back().get();
                } else {
                    downstreams_.push_back(
                        std::make_unique<DramAdapter>(mem.port(
                            first_mem_port + mem_ports_used_)));
                    down = downstreams_.back().get();
                }
                ++mem_ports_used_;
            } else {
                downstreams_.push_back(
                    std::make_unique<SharedLevelAdapter>(
                        *xbar_req_[p], *xbar_resp_[p], p));
                down = downstreams_.back().get();
            }
            private_banks_.back()->connectDownstream(down);
            engine.add(private_banks_.back().get());
        }
    }

    for (std::uint32_t p = 0; p < num_pes; ++p) {
        if (has_private) {
            pe_ports_.push_back(std::make_unique<BankDirectPort>(
                *private_banks_[p], p));
        } else {
            pe_ports_.push_back(std::make_unique<CrossbarPort>(
                *xbar_req_[p], *xbar_resp_[p], p));
        }
    }

    engine.add(this);
}

MomsSystem::~MomsSystem() = default;

std::uint32_t
MomsSystem::bankOf(Addr line) const
{
    const std::uint32_t per_channel =
        static_cast<std::uint32_t>(shared_banks_.size()) / num_channels_;
    const std::uint32_t ch = mem_.channelOf(line);
    const std::uint64_t h = (line / kLineBytes) * 0x9e3779b97f4a7c15ull;
    const std::uint32_t sub =
        static_cast<std::uint32_t>((h >> 33) % per_channel);
    return ch * per_channel + sub;
}

Cycle
MomsSystem::nextActivity() const
{
    if (shared_banks_.empty())
        return kCycleNever;  // private-only: tick is a no-op
    // Cycle-valued over in-flight tokens (see LineDownstream): a token
    // already travelling through a crossbar queue or a bank response
    // port bounds the next arbitration cycle even if not poppable yet.
    Cycle next = kCycleNever;
    forEachOccupied(xbar_req_occupancy_.data(),
                    static_cast<std::uint32_t>(xbar_req_.size()), 0,
                    [&](std::uint32_t c) {
                        next = std::min(next,
                                        xbar_req_[c]->peekReadyCycle());
                        return false;
                    });
    forEachOccupied(bank_resp_occupancy_.data(),
                    static_cast<std::uint32_t>(shared_banks_.size()), 0,
                    [&](std::uint32_t b) {
                        next = std::min(
                            next,
                            shared_banks_[b]->cpuRespOut().peekReadyCycle());
                        return false;
                    });
    return next;
}

void
MomsSystem::catchUp(Cycle upto)
{
    if (shared_banks_.empty() || upto <= rr_accounted_until_)
        return;
    // Under full tick the arbitration pointers advance once per cycle
    // whether or not any token moves; reproduce the skipped increments
    // (uint32 wraparound matches repeated ++).
    const std::uint32_t gap =
        static_cast<std::uint32_t>(upto - rr_accounted_until_);
    xbar_req_rr_ += gap;
    xbar_resp_rr_ += gap;
    rr_accounted_until_ = upto;
}

void
MomsSystem::tick()
{
    if (shared_banks_.empty())
        return;  // private-only: banks talk to DRAM directly

    // Account arbitration-pointer drift over any skipped cycles; this
    // tick's own increments (below) cover the current cycle.
    catchUp(engine_.now());
    rr_accounted_until_ = engine_.now() + 1;

    const std::uint32_t clients =
        static_cast<std::uint32_t>(xbar_req_.size());
    const std::uint32_t banks =
        static_cast<std::uint32_t>(shared_banks_.size());

    // Request crossbar: each bank accepts at most one request per
    // cycle. Single pass over the clients holding a request, in
    // rotating priority order from rr % n (the order of a (rr + i) % n
    // scan until rr + i wraps 2^32, four billion cycles in): a client
    // whose head request targets an already-claimed bank loses the
    // conflict this cycle (that is the bank-conflict bottleneck of
    // Section II).
    // Claim markers are epoch stamps (claimed == stamp equals this
    // tick's epoch), so an arbitration pass costs no O(banks) clear on
    // the many cycles where nothing moves.
    bank_claimed_.resize(banks, 0);
    client_claimed_.resize(clients, 0);
    const std::uint64_t epoch = ++claim_epoch_;
    forEachOccupied(
        xbar_req_occupancy_.data(), clients, xbar_req_rr_ % clients,
        [&](std::uint32_t c) {
            TimedQueue<ReadReq>& in = *xbar_req_[c];
            if (!in.canPop())
                return false;
            const std::uint32_t b = bankOf(lineOf(in.front().addr));
            if (bank_claimed_[b] == epoch) {
                ++xbar_stats_.req_conflicts;
                return false;
            }
            MomsBank& bank = *shared_banks_[b];
            if (!bank.cpuReqIn().canPush()) {
                ++xbar_stats_.req_bank_busy;
                return false;
            }
            if (faults_ && faults_->drop_next_request) {
                faults_->drop_next_request = false;
                in.pop();  // token vanishes: never reaches a bank
                bank_claimed_[b] = epoch;
                return false;
            }
            bank.cpuReqIn().push(in.pop());
            bank_claimed_[b] = epoch;
            return false;
        });
    ++xbar_req_rr_;

    // Response crossbar: each client receives at most one response per
    // cycle; single pass over the banks holding a response, in
    // rotating priority order.
    forEachOccupied(
        bank_resp_occupancy_.data(), banks, xbar_resp_rr_ % banks,
        [&](std::uint32_t b) {
            TimedQueue<ReadResp>& out = shared_banks_[b]->cpuRespOut();
            if (!out.canPop())
                return false;
            const std::uint32_t c = out.front().client;
            if (client_claimed_[c] == epoch) {
                ++xbar_stats_.resp_conflicts;
                return false;
            }
            if (faults_ && faults_->stuck_client ==
                               static_cast<std::int32_t>(c)) {
                ++xbar_stats_.resp_backpressure;  // credit never returns
                return false;
            }
            if (!xbar_resp_[c]->canPush()) {
                ++xbar_stats_.resp_backpressure;
                return false;
            }
            xbar_resp_[c]->push(out.pop());
            client_claimed_[c] = epoch;
            return false;
        });
    ++xbar_resp_rr_;
}

void
MomsSystem::invalidateCaches()
{
    for (auto& b : shared_banks_)
        b->invalidateCache();
    for (auto& b : private_banks_)
        b->invalidateCache();
}

bool
MomsSystem::idle() const
{
    for (const auto& b : shared_banks_)
        if (!b->idle())
            return false;
    for (const auto& b : private_banks_)
        if (!b->idle())
            return false;
    for (const auto& q : xbar_req_)
        if (!q->empty())
            return false;
    for (const auto& q : xbar_resp_)
        if (!q->empty())
            return false;
    return true;
}

std::uint64_t
MomsSystem::totalRequests() const
{
    std::uint64_t total = 0;
    const auto& level1 = private_banks_.empty() ? shared_banks_
                                                : private_banks_;
    for (const auto& b : level1)
        total += b->stats().requests;
    return total;
}

std::uint64_t
MomsSystem::totalHits() const
{
    std::uint64_t total = 0;
    for (const auto& b : shared_banks_)
        total += b->stats().hits;
    for (const auto& b : private_banks_)
        total += b->stats().hits;
    return total;
}

std::uint64_t
MomsSystem::totalSecondaryMisses() const
{
    std::uint64_t total = 0;
    for (const auto& b : shared_banks_)
        total += b->stats().secondary_misses;
    for (const auto& b : private_banks_)
        total += b->stats().secondary_misses;
    return total;
}

std::uint64_t
MomsSystem::totalLinesFromMem() const
{
    std::uint64_t total = 0;
    const auto& last_level = shared_banks_.empty() ? private_banks_
                                                   : shared_banks_;
    for (const auto& b : last_level)
        total += b->stats().lines_from_mem;
    return total;
}

std::uint64_t
MomsSystem::xbarReqDepth() const
{
    std::uint64_t total = 0;
    for (const auto& q : xbar_req_)
        total += q->size();
    return total;
}

std::uint64_t
MomsSystem::xbarRespDepth() const
{
    std::uint64_t total = 0;
    for (const auto& q : xbar_resp_)
        total += q->size();
    return total;
}

std::string
MomsSystem::queueReport() const
{
    std::string out;
    auto queue = [&out](const std::string& name, std::uint64_t size,
                        std::uint64_t cap) {
        if (size == 0)
            return;
        out += "  " + name + ": " + std::to_string(size) + "/" +
               std::to_string(cap) + "\n";
    };
    for (std::size_t c = 0; c < xbar_req_.size(); ++c) {
        queue("moms.xbar.req" + std::to_string(c), xbar_req_[c]->size(),
              xbar_req_[c]->capacity());
        queue("moms.xbar.resp" + std::to_string(c), xbar_resp_[c]->size(),
              xbar_resp_[c]->capacity());
    }
    auto banks = [&](const std::vector<std::unique_ptr<MomsBank>>& bs) {
        for (const auto& b : bs) {
            queue(b->name() + ".req_in", b->cpuReqIn().size(),
                  b->cpuReqIn().capacity());
            queue(b->name() + ".resp_out", b->cpuRespOut().size(),
                  b->cpuRespOut().capacity());
            if (std::uint64_t occ = b->mshrs().occupancy())
                out += "  " + b->name() + ".mshrs: " +
                       std::to_string(occ) + "/" +
                       std::to_string(b->mshrs().capacity()) + "\n";
            if (std::uint64_t occ = b->subentries().occupancy())
                out += "  " + b->name() + ".subentries: " +
                       std::to_string(occ) + "/" +
                       std::to_string(b->subentries().capacity()) + "\n";
        }
    };
    banks(private_banks_);
    banks(shared_banks_);
    return out;
}

double
MomsSystem::hitRate() const
{
    const std::uint64_t reqs = totalRequests();
    return reqs == 0 ? 0.0
                     : static_cast<double>(totalHits()) / reqs;
}

void
MomsSystem::registerStats(StatRegistry& reg) const
{
    for (const auto& b : shared_banks_)
        b->registerStats(reg);
    for (const auto& b : private_banks_)
        b->registerStats(reg);
    if (!shared_banks_.empty()) {
        stat_eraser_ = reg.scopedPrefix("moms.xbar.");
        reg.addCounter("moms.xbar.req_conflicts",
                       &xbar_stats_.req_conflicts);
        reg.addCounter("moms.xbar.req_bank_busy",
                       &xbar_stats_.req_bank_busy);
        reg.addCounter("moms.xbar.resp_conflicts",
                       &xbar_stats_.resp_conflicts);
        reg.addCounter("moms.xbar.resp_backpressure",
                       &xbar_stats_.resp_backpressure);
    }
}

void
MomsSystem::registerTelemetry(Telemetry& tele)
{
    const bool two_level =
        cfg_.topology == MomsConfig::Topology::TwoLevel;
    for (auto& b : shared_banks_)
        b->registerTelemetry(tele,
                             two_level ? "moms.l2" : "moms.shared",
                             StallCause::DownstreamBackpressure);
    for (auto& b : private_banks_)
        b->registerTelemetry(tele,
                             two_level ? "moms.l1" : "moms.private",
                             two_level
                                 ? StallCause::CrossingCredit
                                 : StallCause::DownstreamBackpressure);
    if (!shared_banks_.empty()) {
        tele.addStall("moms.xbar", StallCause::BankConflict,
                      &xbar_stats_.req_conflicts);
        tele.addStall("moms.xbar", StallCause::BankConflict,
                      &xbar_stats_.resp_conflicts);
        tele.addStall("moms.xbar", StallCause::DownstreamBackpressure,
                      &xbar_stats_.req_bank_busy);
        tele.addStall("moms.xbar", StallCause::DownstreamBackpressure,
                      &xbar_stats_.resp_backpressure);
        for (std::size_t c = 0; c < xbar_req_.size(); ++c) {
            xbar_req_[c]->attachProbe(tele.makeQueueProbe(
                "moms.xbar.req" + std::to_string(c),
                xbar_req_[c]->capacity()));
            xbar_resp_[c]->attachProbe(tele.makeQueueProbe(
                "moms.xbar.resp" + std::to_string(c),
                xbar_resp_[c]->capacity()));
        }
    }
    for (auto& a : assemblers_)
        a->registerTelemetry(tele);
}

} // namespace gmoms
