#include "src/algo/reference.hh"

#include "src/sim/log.hh"

namespace gmoms
{

ReferenceResult
runReference(const PartitionedGraph& pg, const AlgoSpec& spec)
{
    const NodeId n = pg.numNodes();
    ReferenceResult result;

    std::vector<std::uint32_t> v_in(n), v_const;
    for (NodeId i = 0; i < n; ++i)
        v_in[i] = spec.initialValue(i);
    if (spec.has_const) {
        v_const.resize(n);
        for (NodeId i = 0; i < n; ++i)
            v_const[i] = spec.constValue(i);
    }
    // Synchronous: distinct out array, swapped per iteration.
    // Asynchronous: out aliases in.
    std::vector<std::uint32_t> v_out_storage;
    if (spec.synchronous)
        v_out_storage = v_in;
    std::vector<std::uint32_t>* v_out =
        spec.synchronous ? &v_out_storage : &v_in;

    std::vector<bool> active_srcs(pg.qs(), true);
    bool cont = true;

    std::vector<std::uint64_t> bram(pg.nd());

    for (std::uint32_t iter = 0;
         iter < spec.max_iterations && cont; ++iter) {
        std::vector<bool> active_next(pg.qs(), false);
        cont = false;
        ++result.iterations;

        for (std::uint32_t d = 0; d < pg.qd(); ++d) {
            const NodeId base = pg.dstIntervalBase(d);
            const std::uint32_t count = pg.dstIntervalNodes(d);
            bool interval_updated = false;

            for (std::uint32_t i = 0; i < count; ++i)
                bram[i] = spec.init(
                    spec.has_const ? v_const[base + i] : 0,
                    v_in[base + i]);

            for (std::uint32_t s = 0; s < pg.qs(); ++s) {
                if (!active_srcs[s])
                    continue;
                const NodeId src_base = pg.srcIntervalBase(s);
                const auto words = pg.shardWords(s, d);
                const auto weights = pg.shardWeights(s, d);
                for (std::size_t i = 0; i < words.size(); ++i) {
                    const std::uint32_t dst_off =
                        edgeword::dstOff(words[i]);
                    const NodeId src =
                        src_base + edgeword::srcOff(words[i]);
                    std::uint32_t src_val;
                    if (spec.use_local_src && pg.dstIntervalOf(src) == d) {
                        src_val =
                            static_cast<std::uint32_t>(bram[src - base]);
                    } else {
                        src_val = v_in[src];
                        ++result.remote_src_reads;
                    }
                    const std::uint64_t next = spec.gather(
                        src_val, bram[dst_off],
                        weights.empty() ? 0 : weights[i]);
                    if (next != bram[dst_off] || spec.always_active) {
                        interval_updated = true;
                        cont = true;
                    }
                    bram[dst_off] = next;
                    ++result.edges_processed;
                }
            }

            for (std::uint32_t i = 0; i < count; ++i)
                (*v_out)[base + i] = spec.apply(bram[i]);

            if (interval_updated) {
                // Mark every source interval overlapping this
                // destination interval active for the next iteration
                // (Template 1, line 17).
                const std::uint32_t s_lo = base / pg.ns();
                const std::uint32_t s_hi =
                    (base + count - 1) / pg.ns();
                for (std::uint32_t s = s_lo; s <= s_hi; ++s)
                    active_next[s] = true;
            }
        }

        active_srcs = active_next;
        if (spec.synchronous)
            std::swap(v_in, v_out_storage);
    }

    result.raw_values = std::move(v_in);
    return result;
}

} // namespace gmoms
