#include "src/accel/pe.hh"

#include <algorithm>

#include "src/check/shadow_memory.hh"
#include "src/graph/layout.hh"
#include "src/sim/log.hh"

namespace gmoms
{

Pe::Pe(const Engine& engine, std::string name, std::uint32_t id,
       const AccelConfig& cfg, const AlgoSpec& spec, Scheduler& sched,
       MemPort dma, SourcePort& moms, BackingStore& store)
    : Component(std::move(name)), engine_(engine), id_(id), cfg_(&cfg),
      spec_(&spec), sched_(&sched), dma_(dma), moms_(&moms),
      store_(&store), edge_pending_(cfg.max_edge_bursts)
{
    bram_.resize(cfg.nd);
    vconst_tmp_.resize(cfg.nd);
    if (spec.weighted) {
        // Fig. 10a: free-ID queue plus state memory.
        free_ids_.reserve(cfg.max_threads);
        for (std::uint32_t i = 0; i < cfg.max_threads; ++i)
            free_ids_.push_back(cfg.max_threads - 1 - i);
        thread_state_.resize(cfg.max_threads);
    }
    // Wake on DMA/MOMS responses and on backpressure release.
    dma_.bindClient(this);
    moms_->bindClient(this);
    il_ = dma_.interleaveBytes();
}

Cycle
Pe::nextActivity() const
{
    // A response in flight anywhere (DMA or MOMS, poppable or still
    // travelling through its queue) bounds the next useful tick: the
    // tick at its arrival cycle does real work. Reporting in-flight
    // arrivals here — not just relying on push hooks — keeps the wake
    // alive across intermediate ticks.
    const Cycle resp = std::min(dma_.responseReadyCycle(),
                                moms_->responseReadyCycle());
    return std::min(resp, phaseActivity());
}

Cycle
Pe::phaseActivity() const
{
    switch (phase_) {
      case Phase::Idle:
        return sched_->hasJobs() ? 0 : kCycleNever;
      case Phase::FetchPtrs: {
        const std::uint64_t total = 8ull * job_.qs;
        if (ptr_bytes_received_ >= total)
            return 0;  // phase transition pending
        if (ptr_bytes_requested_ < total &&
            dma_.canSend(job_.ptr_base + ptr_bytes_requested_))
            return 0;
        return kCycleNever;  // waiting on pointer data / port space
      }
      case Phase::Init:
        if (init_nodes_consumed_ >= job_.count)
            return 0;  // phase transition pending
        if (4 * (init_nodes_consumed_ + 1) <= init_bytes_received_)
            return 0;  // nodes to consume
        if (init_bursts_inflight_ < cfg_->init_outstanding_bursts &&
            init_bytes_requested_ < init_bytes_total_ &&
            dma_.canSend(init_region_base_ + init_bytes_requested_))
            return 0;
        return kCycleNever;  // waiting on the outstanding bursts
      case Phase::Stream:
        // A parked response (RAW hazard) or a non-empty decode queue
        // counts stalls every cycle: stay active.
        if (pending_resp_ || !decode_q_.empty())
            return 0;
        if (edge_bursts_inflight_ < cfg_->max_edge_bursts &&
            !shards_.empty() && dma_.canSend(shards_.front().addr))
            return 0;
        if (shards_.empty() && edge_pending_.empty() &&
            threads_outstanding_ == 0)
            return 0;  // phase transition pending
        return kCycleNever;  // waiting on edge bursts / MOMS threads
      case Phase::Writeback:
        // Staging progresses every cycle until the interval is fully
        // written (rollback loops included — legacy re-stages them).
        if (wb_nodes_written_ < job_.count || wb_bytes_staged_ != 0)
            return 0;
        if (wb_writes_unacked_ == 0)
            return 0;  // phase transition pending
        return kCycleNever;  // waiting on write acks
    }
    return 0;
}

void
Pe::catchUp(Cycle upto)
{
    if (upto <= cycle_accounted_until_)
        return;
    // Ticks skipped while asleep would only have bumped the occupancy
    // counters: idle when parked without a job, busy in any phase.
    const std::uint64_t gap = upto - cycle_accounted_until_;
    if (phase_ == Phase::Idle)
        stats_.idle_cycles += gap;
    else
        stats_.busy_cycles += gap;
    cycle_accounted_until_ = upto;
}

void
Pe::tick()
{
    catchUp(engine_.now());
    cycle_accounted_until_ = engine_.now() + 1;

    drainDmaResponses();

    switch (phase_) {
      case Phase::Idle:
        if (std::optional<Job> job = sched_->pull()) {
            startJob(*job);
            ++stats_.busy_cycles;
        } else {
            ++stats_.idle_cycles;
        }
        break;
      case Phase::FetchPtrs:
        tickFetchPtrs();
        ++stats_.busy_cycles;
        break;
      case Phase::Init:
        tickInit();
        ++stats_.busy_cycles;
        break;
      case Phase::Stream:
        tickStream();
        ++stats_.busy_cycles;
        break;
      case Phase::Writeback:
        tickWriteback();
        ++stats_.busy_cycles;
        break;
    }
}

void
Pe::drainDmaResponses()
{
    while (std::optional<MemResp> resp = dma_.receive()) {
        switch (dmaKind(resp->tag)) {
          case DmaKind::Ptr:
            ptr_bytes_received_ += resp->bytes;
            break;
          case DmaKind::InitConst:
          case DmaKind::InitIn: {
            --init_bursts_inflight_;
            // Consumption is strictly sequential, so a completion that
            // overtakes the in-order prefix (bursts on different
            // channels finish out of order) parks until the gap fills.
            init_ooo_.emplace_back(resp->addr, resp->bytes);
            bool advanced = true;
            while (advanced) {
                advanced = false;
                for (std::size_t i = 0; i < init_ooo_.size(); ++i) {
                    if (init_ooo_[i].first !=
                        init_region_base_ + init_bytes_received_)
                        continue;
                    init_bytes_received_ += init_ooo_[i].second;
                    init_ooo_[i] = init_ooo_.back();
                    init_ooo_.pop_back();
                    advanced = true;
                    break;
                }
            }
            break;
          }
          case DmaKind::Edge: {
            const std::uint64_t seq = resp->tag & 0xffffffffffffffull;
            EdgeSegment* seg = edge_pending_.find(seq);
            if (seg == nullptr)
                panic("edge burst response with unknown sequence");
            if (shadow_)
                shadow_->checkEdgeSegment(seg->addr, 4ull * seg->words);
            decode_q_.push_back(*seg);
            edge_pending_.erase(seq);
            --edge_bursts_inflight_;
            break;
          }
          case DmaKind::Write:
            --wb_writes_unacked_;
            break;
        }
    }
}

void
Pe::startJob(const Job& job)
{
    job_ = job;
    updated_ = false;
    phase_ = Phase::FetchPtrs;
    ptr_bytes_requested_ = 0;
    ptr_bytes_received_ = 0;
}

void
Pe::tickFetchPtrs()
{
    const std::uint64_t total = 8ull * job_.qs;
    while (ptr_bytes_requested_ < total) {
        const Addr a = job_.ptr_base + ptr_bytes_requested_;
        const std::uint64_t chunk =
            std::min(total - ptr_bytes_requested_, il_ - a % il_);
        if (!dma_.send(MemReq{a, static_cast<std::uint32_t>(chunk),
                              dmaTag(DmaKind::Ptr, 0), false}))
            break;
        ptr_bytes_requested_ += chunk;
    }
    if (ptr_bytes_received_ < total)
        return;

    // All pointers arrived: collect active, non-empty shards.
    shards_.clear();
    for (std::uint32_t s = 0; s < job_.qs; ++s) {
        const std::uint64_t p = store_->read64(job_.ptr_base + 8ull * s);
        if (!edgeptr::isActive(p))
            continue;  // Template 1 line 10: skip inactive sources
        if (edgeptr::sizeWords(p) == 0)
            continue;
        shards_.push_back(ShardCursor{s, 4 * edgeptr::startWord(p),
                                      edgeptr::sizeWords(p)});
    }

    // Arm node initialization: V_const first (if present), then V_in.
    init_const_stage_ = spec_->has_const;
    init_region_base_ =
        init_const_stage_ ? job_.v_const_base : job_.v_in_base;
    init_bytes_total_ = 4ull * job_.count;
    init_bytes_requested_ = 0;
    init_bytes_received_ = 0;
    init_nodes_consumed_ = 0;
    init_bursts_inflight_ = 0;
    init_ooo_.clear();
    phase_ = Phase::Init;
}

void
Pe::tickInit()
{
    // Keep up to init_outstanding_bursts node-array bursts in flight
    // (in-order consumption, Section IV-D). One is enough on DDR4,
    // where a burst carries up to init_burst_lines full lines; on
    // HBM's 256 B interleave units the pipelining covers the
    // round-trip latency that a lone small burst would expose.
    while (init_bursts_inflight_ < cfg_->init_outstanding_bursts &&
           init_bytes_requested_ < init_bytes_total_) {
        const Addr a = init_region_base_ + init_bytes_requested_;
        const std::uint64_t chunk = std::min(
            {static_cast<std::uint64_t>(cfg_->init_burst_lines) *
                 kLineBytes,
             init_bytes_total_ - init_bytes_requested_,
             il_ - a % il_});
        const DmaKind kind = init_const_stage_ ? DmaKind::InitConst
                                               : DmaKind::InitIn;
        if (!dma_.send(MemReq{a, static_cast<std::uint32_t>(chunk),
                              dmaTag(kind, 0), false}))
            break;
        init_bytes_requested_ += chunk;
        ++init_bursts_inflight_;
    }

    // Consume up to nodes_per_cycle received node values.
    std::uint32_t budget = cfg_->nodes_per_cycle;
    while (budget > 0 &&
           4 * (init_nodes_consumed_ + 1) <= init_bytes_received_) {
        const std::uint64_t i = init_nodes_consumed_;
        const std::uint32_t raw =
            store_->read32(init_region_base_ + 4 * i);
        if (init_const_stage_) {
            vconst_tmp_[i] = raw;
        } else {
            bram_[i] = spec_->init(
                spec_->has_const ? vconst_tmp_[i] : 0, raw);
        }
        ++init_nodes_consumed_;
        --budget;
    }

    if (init_nodes_consumed_ < job_.count)
        return;

    if (init_const_stage_) {
        // Switch to the V_in stage.
        init_const_stage_ = false;
        init_region_base_ = job_.v_in_base;
        init_bytes_requested_ = 0;
        init_bytes_received_ = 0;
        init_nodes_consumed_ = 0;
        init_bursts_inflight_ = 0;
        init_ooo_.clear();
        return;
    }
    phase_ = Phase::Stream;
}

bool
Pe::rawHazard(std::uint32_t dst_off) const
{
    if (spec_->gather_latency <= 1)
        return false;
    const Cycle now = engine_.now();
    for (const auto& [off, retire] : hazard_)
        if (off == dst_off && retire > now)
            return true;
    return false;
}

void
Pe::executeGather(std::uint32_t dst_off, std::uint32_t src_val,
                  std::uint32_t weight)
{
    const std::uint64_t old = bram_[dst_off];
    const std::uint64_t next = spec_->gather(src_val, old, weight);
    if (next != old || spec_->always_active)
        updated_ = true;
    bram_[dst_off] = next;
    ++stats_.edges_processed;
    if (spec_->gather_latency > 1) {
        // Record the hazard window; recycle expired slots.
        const Cycle retire = engine_.now() + spec_->gather_latency;
        for (auto& slot : hazard_) {
            if (slot.second <= engine_.now()) {
                slot = {dst_off, retire};
                return;
            }
        }
        hazard_.emplace_back(dst_off, retire);
    }
}

void
Pe::tickStream()
{
    // 1. Keep edge bursts in flight (tagged, may return out of order).
    while (edge_bursts_inflight_ < cfg_->max_edge_bursts &&
           !shards_.empty()) {
        ShardCursor& sc = shards_.front();
        const std::uint64_t bytes_left = 4 * sc.words_left;
        const std::uint64_t chunk = std::min(
            {static_cast<std::uint64_t>(cfg_->edge_burst_lines) *
                 kLineBytes,
             bytes_left, il_ - sc.addr % il_});
        if (!dma_.send(MemReq{sc.addr,
                              static_cast<std::uint32_t>(chunk),
                              dmaTag(DmaKind::Edge, edge_burst_seq_),
                              false}))
            break;
        edge_pending_.tryEmplace(
            edge_burst_seq_,
            EdgeSegment{sc.addr, static_cast<std::uint32_t>(chunk / 4),
                        0, sc.s});
        ++edge_burst_seq_;
        ++edge_bursts_inflight_;
        sc.addr += chunk;
        sc.words_left -= chunk / 4;
        if (sc.words_left == 0)
            shards_.pop_front();
    }

    // 2. Gather input: MOMS responses take priority over local edges.
    bool gather_used = false;
    if (!pending_resp_) {
        pending_resp_ = moms_->receive();
        if (pending_resp_)
            ++stats_.moms_resps;
    }
    if (pending_resp_) {
        std::uint32_t dst_off, weight;
        std::uint32_t id = 0;
        if (spec_->weighted) {
            id = static_cast<std::uint32_t>(pending_resp_->tag);
            dst_off = thread_state_[id].first;
            weight = thread_state_[id].second;
        } else {
            dst_off = static_cast<std::uint32_t>(pending_resp_->tag);
            weight = 0;
        }
        if (!rawHazard(dst_off)) {
            if (shadow_)
                shadow_->checkSourceRead(pending_resp_->addr);
            const std::uint32_t src_val =
                store_->read32(pending_resp_->addr);
            executeGather(dst_off, src_val, weight);
            if (spec_->weighted)
                free_ids_.push_back(id);
            --threads_outstanding_;
            pending_resp_.reset();
            gather_used = true;
        } else {
            ++stats_.raw_stalls;
        }
    }

    // 3. Decode and issue at most one edge.
    if (!decode_q_.empty()) {
        EdgeSegment& seg = decode_q_.front();
        bool have_edge = false;
        std::uint32_t dst_off = 0, src_off = 0, weight = 0, advance = 0;
        if (job_.packed) {
            // Packed half-word CSR: the cursor counts 16-bit
            // half-words. Padding and selector half-words are consumed
            // instantly (the hardware decodes a whole 512-bit line at
            // once); only destination half-words take the one-edge-
            // per-cycle issue slot below.
            const std::uint32_t halves = 2 * seg.words;
            const auto half = [&](std::uint32_t h) {
                const std::uint32_t w =
                    store_->read32(seg.addr + 4ull * (h / 2));
                return static_cast<std::uint16_t>(h % 2 ? w >> 16
                                                        : w & 0xffffu);
            };
            while (seg.cursor < halves) {
                const std::uint16_t hw = half(seg.cursor);
                if (packedcsr::isPad(hw)) {
                    ++seg.cursor;
                } else if (packedcsr::isSelector(hw)) {
                    seg.open_src = packedcsr::srcOff(hw);
                    seg.has_open_src = true;
                    ++seg.cursor;
                } else {
                    break;
                }
            }
            if (seg.cursor >= halves) {
                decode_q_.pop_front();
            } else {
                if (!seg.has_open_src)
                    panic("packed CSR line starts without a selector");
                src_off = seg.open_src;
                dst_off = packedcsr::dstOff(half(seg.cursor));
                weight = spec_->weighted ? half(seg.cursor + 1) : 0;
                advance = spec_->weighted ? 2 : 1;
                have_edge = true;
            }
        } else {
            // Discard terminating/padding words instantly (the
            // hardware drops the remainder of the last 512-bit word).
            while (seg.cursor < seg.words &&
                   edgeword::isTerminating(
                       store_->read32(seg.addr + 4ull * seg.cursor)))
                ++seg.cursor;
            if (seg.cursor >= seg.words) {
                decode_q_.pop_front();
            } else {
                const std::uint32_t word =
                    store_->read32(seg.addr + 4ull * seg.cursor);
                dst_off = edgeword::dstOff(word);
                src_off = edgeword::srcOff(word);
                weight = spec_->weighted
                             ? store_->read32(seg.addr +
                                              4ull * (seg.cursor + 1))
                             : 0;
                advance = spec_->weighted ? 2 : 1;
                have_edge = true;
            }
        }
        if (have_edge) {
            const NodeId src =
                static_cast<NodeId>(seg.s) * cfg_->ns + src_off;

            const bool local =
                spec_->use_local_src && src >= job_.base &&
                src < job_.base + job_.count;
            if (local) {
                if (!gather_used && !rawHazard(dst_off)) {
                    executeGather(
                        dst_off,
                        static_cast<std::uint32_t>(
                            bram_[src - job_.base]),
                        weight);
                    ++stats_.local_src_reads;
                    seg.cursor += advance;
                }
            } else {
                const bool slot_free =
                    spec_->weighted
                        ? !free_ids_.empty()
                        : threads_outstanding_ < cfg_->max_threads;
                if (!slot_free) {
                    ++stats_.thread_stalls;
                } else if (!moms_->canSend()) {
                    ++stats_.moms_send_stalls;
                } else {
                    std::uint64_t tag;
                    if (spec_->weighted) {
                        const std::uint32_t id = free_ids_.back();
                        free_ids_.pop_back();
                        thread_state_[id] = {dst_off, weight};
                        tag = id;
                    } else {
                        tag = dst_off;  // Fig. 10b optimization
                    }
                    moms_->send(ReadReq{
                        job_.v_in_global + 4ull * src, tag, id_});
                    ++threads_outstanding_;
                    ++stats_.moms_reads;
                    seg.cursor += advance;
                }
            }
        }
    }

    // 4. Job's edge phase completes when nothing remains in flight.
    if (shards_.empty() && edge_pending_.empty() && decode_q_.empty() &&
        !pending_resp_ && threads_outstanding_ == 0) {
        wb_nodes_written_ = 0;
        wb_bytes_staged_ = 0;
        wb_writes_unacked_ = 0;
        phase_ = Phase::Writeback;
    }
}

void
Pe::tickWriteback()
{
    std::uint32_t budget = cfg_->nodes_per_cycle;
    while (budget > 0 && wb_nodes_written_ < job_.count) {
        if (wb_bytes_staged_ == 0)
            wb_burst_addr_ = job_.v_out_base + 4 * wb_nodes_written_;
        if (shadow_)
            shadow_->checkNodeWrite(job_.v_out_base +
                                    4 * wb_nodes_written_);
        // Functional write commits at issue; the burst models timing.
        store_->write32(job_.v_out_base + 4 * wb_nodes_written_,
                        spec_->apply(bram_[wb_nodes_written_]));
        ++wb_nodes_written_;
        wb_bytes_staged_ += 4;
        --budget;

        const Addr next = wb_burst_addr_ + wb_bytes_staged_;
        const bool boundary =
            next % il_ == 0 ||
            wb_bytes_staged_ >=
                static_cast<std::uint64_t>(cfg_->init_burst_lines) *
                    kLineBytes ||
            wb_nodes_written_ == job_.count;
        if (boundary) {
            if (!dma_.send(MemReq{
                    wb_burst_addr_,
                    static_cast<std::uint32_t>(wb_bytes_staged_),
                    dmaTag(DmaKind::Write, wb_seq_++), true})) {
                // Port full: roll the staging back and retry next cycle
                // (the functional writes are already committed, which
                // is fine — only timing is deferred).
                wb_nodes_written_ -= wb_bytes_staged_ / 4;
                wb_bytes_staged_ = 0;
                return;
            }
            ++wb_writes_unacked_;
            wb_bytes_staged_ = 0;
        }
    }

    if (wb_nodes_written_ == job_.count && wb_bytes_staged_ == 0 &&
        wb_writes_unacked_ == 0) {
        sched_->complete(job_.d, updated_);
        ++stats_.jobs;
        phase_ = Phase::Idle;
    }
}

void
Pe::registerTelemetry(Telemetry& tele)
{
    tele.addStall("pe", StallCause::RawHazard, &stats_.raw_stalls);
    tele.addStall("pe", StallCause::ThreadSlotsFull,
                  &stats_.thread_stalls);
    tele.addStall("pe",
                  cfg_->moms.topology == MomsConfig::Topology::Shared
                      ? StallCause::CrossingCredit
                      : StallCause::DownstreamBackpressure,
                  &stats_.moms_send_stalls);
    // idle_cycles/busy_cycles are reconstructed in bulk by catchUp(),
    // so their *totals* are engine-mode exact while individual window
    // deltas may shift by a wake gap (see docs/MODEL.md).
    tele.addStall("pe", StallCause::UpstreamEmpty, &stats_.idle_cycles);
    tele.addCounter("pe.edges", &stats_.edges_processed);
    tele.addCounter("pe.moms_reads", &stats_.moms_reads);
    tele.addCounter("pe.busy", &stats_.busy_cycles);
    tele.addLevel("pe.threads_outstanding", [this] {
        return static_cast<double>(threads_outstanding_);
    });
    decode_q_.attachProbe(
        tele.makeQueueProbe(name() + ".decode_q", 0), &engine_);
}

std::string
Pe::statusLine() const
{
    static const char* kPhaseNames[] = {"Idle", "FetchPtrs", "Init",
                                        "Stream", "Writeback"};
    std::string s = name();
    s += ": phase=";
    s += kPhaseNames[static_cast<int>(phase_)];
    if (phase_ == Phase::Idle)
        return s;
    s += " job.d=" + std::to_string(job_.d);
    s += " shards=" + std::to_string(shards_.size());
    s += " bursts_inflight=" + std::to_string(edge_bursts_inflight_);
    s += " decode_q=" + std::to_string(decode_q_.size());
    s += " threads_outstanding=" + std::to_string(threads_outstanding_);
    if (pending_resp_)
        s += " pending_resp(raw-parked)";
    if (phase_ == Phase::Writeback)
        s += " wb_written=" + std::to_string(wb_nodes_written_) + "/" +
             std::to_string(job_.count) +
             " unacked=" + std::to_string(wb_writes_unacked_);
    return s;
}

} // namespace gmoms
