#include "src/accel/checkpoint.hh"

#include <sstream>

#include "src/sim/log.hh"

namespace gmoms
{

namespace
{

/** FNV-1a 64-bit over explicitly fed words (field-order stable). */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

void
mixBank(Fnv& f, const MomsBankConfig& b)
{
    f.mix(b.cache_bytes);
    f.mix(b.cache_ways);
    f.mix(b.num_mshrs);
    f.mix(b.mshr_tables);
    f.mix(b.max_kicks);
    f.mix(b.assoc_mshr ? 1 : 0);
    f.mix(b.num_subentries);
    f.mix(b.max_subentries_per_miss);
    f.mix(b.req_queue_depth);
    f.mix(b.resp_queue_depth);
    f.mix(b.req_latency);
    f.mix(b.resp_latency);
}

std::size_t
graphBytes(const CooGraph& g)
{
    return g.numEdges() * sizeof(Edge) +
           static_cast<std::size_t>(g.numNodes()) * sizeof(NodeId);
}

} // namespace

std::uint64_t
configFingerprint(const AccelConfig& cfg)
{
    Fnv f;
    f.mix(cfg.max_cycles);
    f.mix(cfg.num_pes);
    f.mix(static_cast<std::uint64_t>(cfg.mem.kind));
    f.mix(cfg.mem.channels);
    f.mix(cfg.mem.interleave_bytes);
    f.mix(cfg.packed_edges ? 1 : 0);
    f.mix(cfg.nd);
    f.mix(cfg.ns);
    f.mix(cfg.max_threads);
    f.mix(cfg.edge_burst_lines);
    f.mix(cfg.max_edge_bursts);
    f.mix(cfg.init_burst_lines);
    f.mix(cfg.init_outstanding_bursts);
    f.mix(cfg.nodes_per_cycle);
    // MOMS hierarchy
    f.mix(static_cast<std::uint64_t>(cfg.moms.topology));
    f.mix(cfg.moms.num_shared_banks);
    mixBank(f, cfg.moms.shared_bank);
    mixBank(f, cfg.moms.private_bank);
    f.mix(cfg.moms.crossing_latency);
    f.mix(cfg.moms.crossbar_queue_depth);
    f.mix(cfg.moms.dynaburst ? 1 : 0);
    f.mix(cfg.moms.dynaburst_cfg.window_lines);
    f.mix(cfg.moms.dynaburst_cfg.wait_cycles);
    f.mix(cfg.moms.dynaburst_cfg.max_open_windows);
    // Memory substrate timing
    f.mix(cfg.mem.timing.bus_bytes_per_cycle);
    f.mix(cfg.mem.timing.request_overhead_cycles);
    f.mix(cfg.mem.timing.row_miss_extra_cycles);
    f.mix(cfg.mem.timing.load_latency_cycles);
    f.mix(cfg.mem.timing.num_banks);
    f.mix(cfg.mem.timing.row_bytes);
    f.mix(cfg.mem.timing.same_bank_gap_cycles);
    f.mix(cfg.mem.timing.port_queue_depth);
    f.mix(cfg.mem.timing.resp_queue_depth);
    f.mix(cfg.mem.timing.capacity_bytes);
    // Observability toggles change run *records* (telemetry summary,
    // check signatures), so they separate pool entries; the engine mode
    // (full_tick_engine) is bit-exact by contract and deliberately NOT
    // mixed in.
    f.mix(cfg.telemetry.enabled ? 1 : 0);
    f.mix(cfg.checks.enabled ? 1 : 0);
    f.mix(cfg.checks.enabled ? cfg.checks.watchdog_interval : 0);
    f.mix(cfg.checks.enabled && cfg.checks.shadow_memory ? 1 : 0);
    // Board topology: boards always separates entries; the mode,
    // partitioner and link knobs only matter once the cluster is
    // enabled (at boards == 1 they are ignored by construction, so
    // single-board sessions differing only there share checkpoints).
    f.mix(cfg.cluster.boards);
    if (cfg.cluster.enabled()) {
        f.mix(static_cast<std::uint64_t>(cfg.cluster.mode));
        f.mix(static_cast<std::uint64_t>(cfg.cluster.partitioner));
        f.mix(cfg.cluster.link_bytes_per_cycle);
        f.mix(cfg.cluster.link_latency);
        f.mix(cfg.cluster.link_credits);
        f.mix(cfg.cluster.link_max_packet_bytes);
    }
    return f.h;
}

struct SessionCheckpoint::State
{
    std::uint32_t version = kFormatVersion;
    AccelConfig config;
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const CooGraph> src;
    std::shared_ptr<const std::vector<NodeId>> to_internal;
    std::shared_ptr<const std::vector<NodeId>> to_original;
    std::uint32_t weight_seed = 97;
    std::shared_ptr<const CooGraph> plain;
    std::shared_ptr<const CooGraph> weighted;
    std::shared_ptr<const PartitionedGraph> pg_plain;
    std::shared_ptr<const PartitionedGraph> pg_weighted;
};

SessionCheckpoint
SessionCheckpoint::capture(Session& session, bool warm_weighted)
{
    session.ensurePlain();
    if (warm_weighted)
        session.ensureWeighted();

    auto st = std::make_shared<State>();
    st->config = session.config_;
    st->fingerprint = configFingerprint(session.config_);
    st->src = session.src_;
    st->to_internal = session.to_internal_;
    st->to_original = session.to_original_;
    st->weight_seed = session.weight_seed_;
    st->plain = session.plain_;
    st->weighted = session.weighted_;
    st->pg_plain = session.pg_plain_;
    st->pg_weighted = session.pg_weighted_;

    SessionCheckpoint cp;
    cp.state_ = std::move(st);
    return cp;
}

Session
SessionCheckpoint::restore() const
{
    if (!state_)
        fatal("SessionCheckpoint::restore on an empty checkpoint");
    if (state_->version != kFormatVersion)
        fatal("SessionCheckpoint: format version " +
              std::to_string(state_->version) + " does not match " +
              std::to_string(kFormatVersion));
    Session s;
    s.config_ = state_->config;
    s.src_ = state_->src;
    s.to_internal_ = state_->to_internal;
    s.to_original_ = state_->to_original;
    s.weight_seed_ = state_->weight_seed;
    s.plain_ = state_->plain;
    s.weighted_ = state_->weighted;
    s.pg_plain_ = state_->pg_plain;
    s.pg_weighted_ = state_->pg_weighted;
    return s;
}

std::size_t
SessionCheckpoint::residentBytes() const
{
    if (!state_)
        return 0;
    // Approximate and double-count-free: views aliasing src (prep
    // None) are counted once.
    std::size_t total = sizeof(State);
    total += graphBytes(*state_->src);
    if (state_->plain && state_->plain != state_->src)
        total += graphBytes(*state_->plain);
    if (state_->weighted && state_->weighted != state_->src &&
        state_->weighted != state_->plain)
        total += graphBytes(*state_->weighted);
    // A partition re-buckets every edge once plus interval metadata.
    if (state_->pg_plain)
        total += graphBytes(*state_->plain);
    if (state_->pg_weighted)
        total += graphBytes(*state_->weighted);
    if (state_->to_internal)
        total += state_->to_internal->size() * sizeof(NodeId) * 2;
    return total;
}

std::uint64_t
SessionCheckpoint::fingerprint() const
{
    return state_ ? state_->fingerprint : 0;
}

bool
SessionCheckpoint::hasWeighted() const
{
    return state_ && state_->pg_weighted;
}

std::string
ReplayDescriptor::serialize() const
{
    std::ostringstream os;
    os << "gmoms-replay v" << kVersion << " dataset=" << dataset
       << " prep=" << prep << " algo=" << algo
       << " iters=" << iterations << " source=" << source;
    if (!preset.empty())
        os << " preset=" << preset;
    os << " config=" << std::hex << config_fingerprint << std::dec;
    if (fail_cycle != 0)
        os << " fail_cycle=" << fail_cycle;
    return os.str();
}

std::optional<ReplayDescriptor>
ReplayDescriptor::parse(const std::string& s)
{
    std::istringstream is(s);
    std::string magic, vtag;
    is >> magic >> vtag;
    if (magic != "gmoms-replay" ||
        vtag != "v" + std::to_string(kVersion))
        return std::nullopt;
    ReplayDescriptor d;
    std::string tok;
    while (is >> tok) {
        const auto eq = tok.find('=');
        if (eq == std::string::npos)
            return std::nullopt;
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        try {
            if (key == "dataset")
                d.dataset = val;
            else if (key == "prep")
                d.prep = val;
            else if (key == "algo")
                d.algo = val;
            else if (key == "iters")
                d.iterations =
                    static_cast<std::uint32_t>(std::stoul(val));
            else if (key == "source")
                d.source = static_cast<NodeId>(std::stoul(val));
            else if (key == "preset")
                d.preset = val;
            else if (key == "config")
                d.config_fingerprint = std::stoull(val, nullptr, 16);
            else if (key == "fail_cycle")
                d.fail_cycle = std::stoull(val);
            // unknown keys: forward-compatible, ignored
        } catch (...) {
            return std::nullopt;
        }
    }
    return d;
}

} // namespace gmoms
