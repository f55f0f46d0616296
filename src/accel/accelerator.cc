#include "src/accel/accelerator.hh"

#include "src/sim/log.hh"

namespace gmoms
{

Accelerator::Accelerator(const AccelConfig& cfg,
                         const PartitionedGraph& pg, const AlgoSpec& spec)
    : cfg_(cfg), pg_(&pg), spec_(spec)
{
    if (cfg_.nd != pg.nd() || cfg_.ns != pg.ns()) {
        // Follow the partition geometry: the PE BRAM must fit it.
        cfg_.nd = pg.nd();
        cfg_.ns = pg.ns();
    }
    cfg_.validate();
    if (spec_.weighted != pg.weighted())
        fatal("algorithm/graph weighted mismatch");
    if (cfg_.full_tick_engine)
        engine_.setFullTick(true);

    // Memory ports: one DMA port per PE, then the MOMS's ports.
    const std::uint32_t dma_ports = cfg_.num_pes;
    const std::uint32_t moms_ports =
        cfg_.moms.memPortsNeeded(cfg_.num_pes);
    mem_ = std::make_unique<MemorySystem>(engine_, cfg_.mem,
                                          dma_ports + moms_ports);

    // Build the DRAM image (Fig. 4).
    GraphLayout::Options opts;
    opts.has_const = spec_.has_const;
    opts.synchronous = spec_.synchronous;
    opts.packed = cfg_.packed_edges;
    opts.init_value = [this](NodeId n) { return spec_.initialValue(n); };
    if (spec_.has_const)
        opts.const_value = [this](NodeId n) {
            return spec_.constValue(n);
        };
    layout_ = std::make_unique<GraphLayout>(pg, opts);
    layout_->build(pg, mem_->store());

    moms_ = std::make_unique<MomsSystem>(engine_, *mem_, dma_ports,
                                         cfg_.num_pes, cfg_.moms);
    sched_ = std::make_unique<Scheduler>(pg, *layout_);

    for (std::uint32_t p = 0; p < cfg_.num_pes; ++p) {
        pes_.push_back(std::make_unique<Pe>(
            engine_, "pe" + std::to_string(p), p, cfg_, spec_, *sched_,
            mem_->port(p), moms_->pePort(p), mem_->store()));
        engine_.add(pes_.back().get());
    }

    if (cfg_.telemetry.enabled) {
        TelemetryConfig tcfg = cfg_.telemetry;
        if (tcfg.label.empty())
            tcfg.label = cfg_.label();
        tele_ = std::make_unique<Telemetry>(engine_, tcfg);
        moms_->registerTelemetry(*tele_);
        for (auto& pe : pes_)
            pe->registerTelemetry(*tele_);
        for (std::uint32_t c = 0; c < cfg_.mem.channels; ++c)
            mem_->channel(c).registerTelemetry(*tele_);
    }

    if (cfg_.checks.enabled) {
        if (cfg_.checks.shadow_memory) {
            shadow_ = std::make_unique<ShadowMemory>(
                mem_->store(), *layout_, pg.numNodes());
            for (auto& pe : pes_)
                pe->attachShadow(shadow_.get());
        }
        CheckHarness::Wiring wiring;
        wiring.moms = moms_.get();
        wiring.mem = mem_.get();
        wiring.sched = sched_.get();
        wiring.pes = &pes_;
        wiring.telemetry = tele_.get();
        check_ = std::make_unique<CheckHarness>(engine_, cfg_.checks,
                                                wiring);
    }
}

Accelerator::~Accelerator() = default;

bool
Accelerator::updateActiveFlags()
{
    // active_srcs_next[s] = true iff any destination interval that
    // overlaps source interval s was updated this iteration.
    std::vector<bool> active(pg_->qs(), false);
    const auto& updated = sched_->updatedFlags();
    bool any = false;
    for (std::uint32_t d = 0; d < pg_->qd(); ++d) {
        if (!updated[d])
            continue;
        any = true;
        const NodeId base = pg_->dstIntervalBase(d);
        const NodeId last = base + pg_->dstIntervalNodes(d) - 1;
        for (std::uint32_t s = base / pg_->ns(); s <= last / pg_->ns();
             ++s)
            active[s] = true;
    }
    for (std::uint32_t s = 0; s < pg_->qs(); ++s)
        for (std::uint32_t d = 0; d < pg_->qd(); ++d)
            layout_->setActive(mem_->store(), s, d, active[s]);
    return any;
}

RunResult
Accelerator::run()
{
    RunResult result;
    bool cont = true;

    for (std::uint32_t iter = 0;
         iter < spec_.max_iterations && cont; ++iter) {
        if (tele_)
            tele_->beginPhase("iter" + std::to_string(iter));
        sched_->startIteration();
        // Both predicates here are pure (read simulation state only),
        // so the engine may fast-forward across all-quiescent gaps.
        const bool done = engine_.runUntil(
            [this] { return sched_->iterationDone(); }, cfg_.max_cycles,
            Engine::Poll::OnEvents);
        if (!done) {
            if (check_)
                check_->failBudget(cfg_.max_cycles);
            fatal("accelerator exceeded the cycle budget; deadlock or "
                  "undersized budget");
        }
        ++result.iterations;

        cont = updateActiveFlags();
        if (spec_.synchronous)
            layout_->swapInOut();
        // Node arrays changed (swap or in-place update): cached source
        // values are stale.
        moms_->invalidateCaches();
    }

    // Let the queues fully drain (writes are already acked, but DRAM
    // response queues may hold stale timing tokens).
    if (tele_)
        tele_->beginPhase("drain");
    engine_.runUntil([this] { return mem_->idle() && moms_->idle(); },
                     100000, Engine::Poll::OnEvents);
    if (check_)
        check_->verifyDrained();
    if (tele_) {
        tele_->endPhase();
        result.telemetry = tele_->finalize();
    }

    result.cycles = engine_.now();
    result.packed_layout = layout_->packed();
    result.edge_section_bytes = layout_->edgeSectionBytes();
    result.dram_bytes_read = mem_->totalBytesRead();
    result.dram_bytes_written = mem_->totalBytesWritten();
    result.moms_hit_rate = moms_->hitRate();
    result.moms_requests = moms_->totalRequests();
    result.moms_secondary_misses = moms_->totalSecondaryMisses();
    result.moms_lines_from_mem = moms_->totalLinesFromMem();
    for (const auto& pe : pes_) {
        result.edges_processed += pe->stats().edges_processed;
        result.pe_raw_stalls += pe->stats().raw_stalls;
    }
    result.raw_values.resize(pg_->numNodes());
    for (NodeId n = 0; n < pg_->numNodes(); ++n)
        result.raw_values[n] = mem_->store().read32(layout_->vInAddr(n));
    return result;
}

} // namespace gmoms
