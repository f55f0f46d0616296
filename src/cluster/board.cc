#include "src/cluster/board.hh"

#include "src/sim/log.hh"

namespace gmoms
{

Board::Board(Engine& engine, const AccelConfig& cfg, const AlgoSpec& spec,
             const ClusterPartition& cp, std::uint32_t b)
    : cfg_(cfg), spec_(spec), cp_(&cp), shard_(&cp.shard(b)), board_(b),
      pg_(shard_->local, cfg.nd, cfg.ns)
{
    if (shard_->empty())
        fatal("Board: shard " + std::to_string(b) +
              " owns no nodes (skip empty shards in the driver)");
    if (cfg_.nd != cp.nd())
        fatal("Board: config nd does not match the cluster partition");
    if (spec_.weighted != pg_.weighted())
        fatal("algorithm/graph weighted mismatch");

    const std::string prefix = "b" + std::to_string(b) + ".";

    const std::uint32_t dma_ports = cfg_.num_pes;
    const std::uint32_t moms_ports =
        cfg_.moms.memPortsNeeded(cfg_.num_pes);
    mem_ = std::make_unique<MemorySystem>(engine, cfg_.mem,
                                          dma_ports + moms_ports, prefix);

    // The DRAM image holds board-LOCAL node ids; the id-dependent spec
    // callbacks (BFS/SSSP source, PageRank out-degrees) are answered in
    // global id space. Padding slots get inert values.
    GraphLayout::Options opts;
    opts.has_const = spec_.has_const;
    opts.synchronous = spec_.synchronous;
    opts.packed = cfg_.packed_edges;
    opts.init_value = [this](NodeId local) {
        const NodeId g = shard_->to_global[local];
        return g == kNoGlobalId ? 0u : spec_.initialValue(g);
    };
    if (spec_.has_const)
        opts.const_value = [this](NodeId local) {
            const NodeId g = shard_->to_global[local];
            return g == kNoGlobalId ? 0u : spec_.constValue(g);
        };
    layout_ = std::make_unique<GraphLayout>(pg_, opts);
    layout_->build(pg_, mem_->store());

    moms_ = std::make_unique<MomsSystem>(engine, *mem_, dma_ports,
                                         cfg_.num_pes, cfg_.moms, prefix);
    sched_ = std::make_unique<Scheduler>(pg_, *layout_, numJobs());

    for (std::uint32_t p = 0; p < cfg_.num_pes; ++p) {
        pes_.push_back(std::make_unique<Pe>(
            engine, prefix + "pe" + std::to_string(p), p, cfg_, spec_,
            *sched_, mem_->port(p), moms_->pePort(p), mem_->store()));
        engine.add(pes_.back().get());
    }

    if (cfg_.telemetry.enabled) {
        TelemetryConfig tcfg = cfg_.telemetry;
        tcfg.label = "b" + std::to_string(b) + ":" +
                     (tcfg.label.empty() ? cfg_.label() : tcfg.label);
        tele_ = std::make_unique<Telemetry>(engine, tcfg);
        moms_->registerTelemetry(*tele_);
        for (auto& pe : pes_)
            pe->registerTelemetry(*tele_);
        for (std::uint32_t c = 0; c < cfg_.mem.channels; ++c)
            mem_->channel(c).registerTelemetry(*tele_);
        tele_->addStall("link", StallCause::BoardLink,
                        &link_wait_cycles_);
    }

    // Seed delta detection with the initial values: peers initialize
    // their ghost slots from the same spec.initialValue(global), so an
    // unchanged export never needs to travel.
    const std::uint32_t boards = cp.boards();
    last_sent_.resize(boards);
    for (std::uint32_t p = 0; p < boards; ++p) {
        const auto& exp = cp.exportsTo(board_, p);
        last_sent_[p].reserve(exp.size());
        for (NodeId g : exp)
            last_sent_[p].push_back(spec_.initialValue(g));
    }
}

Board::~Board() = default;

void
Board::startIteration()
{
    if (tele_)
        tele_->beginPhase("iter" + std::to_string(iterations_));
    sched_->startIteration();
}

bool
Board::finishIteration()
{
    // Per-board mirror of Accelerator::updateActiveFlags, restricted to
    // the owned destination intervals (the only ones with jobs/edges).
    std::vector<bool> active(pg_.qs(), false);
    const auto& updated = sched_->updatedFlags();
    bool any = false;
    for (std::uint32_t d = 0; d < numJobs(); ++d) {
        if (!updated[d])
            continue;
        any = true;
        const NodeId base = pg_.dstIntervalBase(d);
        const NodeId last = base + pg_.dstIntervalNodes(d) - 1;
        for (std::uint32_t s = base / pg_.ns(); s <= last / pg_.ns();
             ++s)
            active[s] = true;
    }
    for (std::uint32_t s = 0; s < pg_.qs(); ++s)
        for (std::uint32_t d = 0; d < numJobs(); ++d)
            layout_->setActive(mem_->store(), s, d, active[s]);
    if (spec_.synchronous)
        layout_->swapInOut();
    ++iterations_;
    return any;
}

std::vector<GhostUpdate>
Board::collectExports(std::uint32_t p)
{
    const auto& exp = cp_->exportsTo(board_, p);
    std::vector<GhostUpdate> out;
    auto& last = last_sent_[p];
    for (std::size_t k = 0; k < exp.size(); ++k) {
        const NodeId local = cp_->localId(board_, exp[k]);
        const std::uint32_t v =
            mem_->store().read32(layout_->vInAddr(local));
        if (v == last[k])
            continue;
        last[k] = v;
        out.push_back(GhostUpdate{exp[k], v});
    }
    return out;
}

std::uint32_t
Board::applyGhostUpdates(const std::vector<GhostUpdate>& ups)
{
    std::uint32_t changed = 0;
    std::vector<bool> srcs_hit(pg_.qs(), false);
    BackingStore& store = mem_->store();
    for (const GhostUpdate& u : ups) {
        const NodeId local = cp_->localId(board_, u.node);
        if (local == kNoLocalId || local < shard_->ghost_base)
            panic("applyGhostUpdates: update for a non-ghost node");
        if (store.read32(layout_->vInAddr(local)) == u.value)
            continue;
        store.write32(layout_->vInAddr(local), u.value);
        // Keep the other array current too: jobs never write ghost
        // slots, so after the next swap the value must still be there.
        if (spec_.synchronous)
            store.write32(layout_->vOutAddr(local), u.value);
        ++changed;
        srcs_hit[pg_.srcIntervalOf(local)] = true;
    }
    for (std::uint32_t s = 0; s < pg_.qs(); ++s) {
        if (!srcs_hit[s])
            continue;
        // A changed ghost re-activates its source interval's shards.
        for (std::uint32_t d = 0; d < numJobs(); ++d)
            layout_->setActive(store, s, d, true);
    }
    return changed;
}

void
Board::readOwnedValues(std::vector<std::uint32_t>& global) const
{
    const BackingStore& store = mem_->store();
    for (NodeId local = 0; local < shard_->num_owned; ++local)
        global[shard_->to_global[local]] =
            store.read32(layout_->vInAddr(local));
}

void
Board::registerLinkStall(const std::uint64_t* counter)
{
    if (tele_)
        tele_->addStall("link", StallCause::BoardLink, counter);
}

EdgeId
Board::edgesProcessed() const
{
    EdgeId total = 0;
    for (const auto& pe : pes_)
        total += pe->stats().edges_processed;
    return total;
}

std::uint64_t
Board::peRawStalls() const
{
    std::uint64_t total = 0;
    for (const auto& pe : pes_)
        total += pe->stats().raw_stalls;
    return total;
}

std::shared_ptr<const TelemetrySummary>
Board::finalizeTelemetry()
{
    if (!tele_)
        return nullptr;
    return tele_->finalize();
}

void
Board::beginPhase(const std::string& name)
{
    if (tele_)
        tele_->beginPhase(name);
}

} // namespace gmoms
