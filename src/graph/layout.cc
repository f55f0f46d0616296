#include "src/graph/layout.hh"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/sim/log.hh"

namespace gmoms
{

namespace
{

/**
 * Encodes shards in the packed half-word CSR: edges grouped by source
 * (stable, so each source's destinations keep their plain order),
 * source groups opened by selectors, lines kept self-contained (see
 * packedcsr in layout.hh). Deterministic, so the layout constructor
 * (sizing) and build() (content) agree exactly.
 *
 * One packer serves all shards of a pass: its buffers only grow, to
 * the largest shard, so encoding a shard allocates nothing. Grouping
 * is a stable counting sort on src_off over the range of sources the
 * shard touches, and an insertion sort for shards too small to pay
 * for the count.
 */
class ShardPacker
{
  public:
    explicit ShardPacker(const PartitionedGraph& pg)
        : pg_(pg), weighted_(pg.weighted()), counts_(pg.ns(), 0)
    {
    }

    /** Half-word stream of shard E_{s->d}, padded to whole 64-byte
     *  lines; valid until the next call. */
    const std::vector<std::uint16_t>&
    encode(std::uint32_t s, std::uint32_t d)
    {
        groupBySource(pg_.shardWords(s, d), pg_.shardWeights(s, d));

        constexpr std::uint32_t hpl = packedcsr::kHalfwordsPerLine;
        const std::uint32_t dst_units = weighted_ ? 2 : 1;

        out_.clear();
        std::uint32_t open_src = ~0u;
        for (const Unit& u : sorted_) {
            const std::uint32_t src_off = edgeword::srcOff(u.word);
            const std::uint32_t pos = out_.size() % hpl;
            // Lines are self-contained: re-open the source group at
            // every line start.
            bool need_sel = pos == 0 || src_off != open_src;
            if (hpl - pos < (need_sel ? 1 : 0) + dst_units) {
                out_.insert(out_.end(), hpl - pos, packedcsr::kPad);
                need_sel = true;
            }
            if (need_sel) {
                out_.push_back(packedcsr::selector(src_off));
                open_src = src_off;
            }
            out_.push_back(packedcsr::destination(edgeword::dstOff(u.word)));
            if (weighted_)
                out_.push_back(static_cast<std::uint16_t>(u.weight));
        }
        // Tail padding; an empty shard still gets one all-pad line so
        // its edge pointer never carries size zero.
        const std::size_t tail = out_.size() % hpl;
        if (out_.empty() || tail != 0)
            out_.insert(out_.end(), hpl - tail, packedcsr::kPad);
        return out_;
    }

  private:
    /** One edge word and its weight (0 when unweighted). */
    struct Unit
    {
        std::uint32_t word;
        std::uint32_t weight;
    };

    /** Shards up to this size are insertion-sorted: cheaper than
     *  counting over the range of sources they touch. */
    static constexpr std::size_t kInsertionSortMax = 32;

    /** Stable-sort a shard's edges by source offset into sorted_. */
    void
    groupBySource(std::span<const std::uint32_t> words,
                  std::span<const std::uint32_t> weights)
    {
        const auto unit = [&](std::size_t i) {
            return Unit{words[i], weights.empty() ? 0u : weights[i]};
        };
        sorted_.resize(words.size());
        if (words.size() <= kInsertionSortMax) {
            for (std::size_t i = 0; i < words.size(); ++i) {
                const std::uint32_t k = edgeword::srcOff(words[i]);
                std::size_t j = i;
                for (; j > 0 && edgeword::srcOff(sorted_[j - 1].word) > k;
                     --j)
                    sorted_[j] = sorted_[j - 1];
                sorted_[j] = unit(i);
            }
            return;
        }
        std::uint32_t lo = pg_.ns(), hi = 0;
        for (const std::uint32_t w : words) {
            const std::uint32_t k = edgeword::srcOff(w);
            ++counts_[k];
            lo = std::min(lo, k);
            hi = std::max(hi, k);
        }
        // Counts become each source's first output slot.
        std::uint32_t next = 0;
        for (std::uint32_t k = lo; k <= hi; ++k)
            next += std::exchange(counts_[k], next);
        for (std::size_t i = 0; i < words.size(); ++i)
            sorted_[counts_[edgeword::srcOff(words[i])]++] = unit(i);
        std::fill(counts_.begin() + lo, counts_.begin() + hi + 1, 0);
    }

    const PartitionedGraph& pg_;
    const bool weighted_;
    std::vector<std::uint32_t> counts_;  //!< per src_off, zero between
    std::vector<Unit> sorted_;
    std::vector<std::uint16_t> out_;
};

/** Whether the packed encoding can represent @p pg (15-bit offsets,
 *  a reserved all-ones pad word, 16-bit weights). */
bool
packEligible(const PartitionedGraph& pg)
{
    if (pg.ns() > 32767 || pg.nd() > 32768)
        return false;
    return std::ranges::none_of(pg.weights(), [](std::uint32_t w) {
        return w > 0xffffu;
    });
}

} // namespace

GraphLayout::GraphLayout(const PartitionedGraph& pg, const Options& opts)
    : has_const_(opts.has_const), synchronous_(opts.synchronous),
      weighted_(pg.weighted()), qs_(pg.qs()), qd_(pg.qd()),
      num_nodes_(pg.numNodes()), opts_(opts)
{
    if (!opts_.init_value)
        fatal("GraphLayout requires an init_value function");
    if (has_const_ && !opts_.const_value)
        fatal("GraphLayout: has_const set but no const_value function");

    const std::uint64_t node_bytes = 4ull * num_nodes_;
    Addr cursor = 0;
    v_in_base_ = cursor;
    cursor = alignUp(cursor + node_bytes, kInterleaveBytes);
    if (has_const_) {
        v_const_base_ = cursor;
        cursor = alignUp(cursor + node_bytes, kInterleaveBytes);
    }
    if (synchronous_) {
        v_out_base_ = cursor;
        cursor = alignUp(cursor + node_bytes, kInterleaveBytes);
    } else {
        v_out_base_ = v_in_base_;  // asynchronous: same array
    }

    edge_base_ = cursor;
    packed_ = opts_.packed && packEligible(pg);
    std::uint64_t edge_words = 0;
    if (packed_) {
        // Exact packed size: the encoder is deterministic, so build()
        // will reproduce these shard extents half-word for half-word.
        ShardPacker packer(pg);
        for (std::uint32_t d = 0; d < qd_; ++d)
            for (std::uint32_t s = 0; s < qs_; ++s)
                edge_words += packer.encode(s, d).size() / 2;
    } else {
        const std::uint32_t words_per_edge = weighted_ ? 2 : 1;
        // Each shard: its edges, one terminating edge, padded to 64 B.
        for (std::uint32_t d = 0; d < qd_; ++d) {
            for (std::uint32_t s = 0; s < qs_; ++s) {
                const std::uint64_t w =
                    (pg.shardSize(s, d) + 1) * words_per_edge;
                edge_words += ceilDiv(w, 16) * 16;  // 16 words = 64 B
            }
        }
    }
    cursor = alignUp(cursor + 4ull * edge_words, kInterleaveBytes);
    ptr_base_ = cursor;
    cursor += 8ull * qs_ * qd_;
    total_bytes_ = alignUp(cursor, kInterleaveBytes);
}

void
GraphLayout::build(const PartitionedGraph& pg, BackingStore& store)
{
    if (store.size() < total_bytes_)
        store.resize(total_bytes_);

    for (NodeId n = 0; n < num_nodes_; ++n) {
        store.write32(vInAddr(n), opts_.init_value(n));
        if (has_const_)
            store.write32(vConstAddr(n), opts_.const_value(n));
        if (synchronous_)
            store.write32(vOutAddr(n), opts_.init_value(n));
    }

    const std::uint32_t words_per_edge = weighted_ ? 2 : 1;
    std::uint64_t word = edge_base_ / 4;
    if (packed_) {
        ShardPacker packer(pg);
        for (std::uint32_t d = 0; d < qd_; ++d) {
            for (std::uint32_t s = 0; s < qs_; ++s) {
                const std::uint64_t start = word;
                const std::vector<std::uint16_t>& hw = packer.encode(s, d);
                for (std::size_t i = 0; i < hw.size(); i += 2)
                    store.write32(4 * word++,
                                  static_cast<std::uint32_t>(hw[i]) |
                                      (static_cast<std::uint32_t>(
                                           hw[i + 1])
                                       << 16));
                store.write64(ptrAddr(s, d),
                              edgeptr::pack(start, word - start, true));
            }
        }
        return;
    }
    for (std::uint32_t d = 0; d < qd_; ++d) {
        for (std::uint32_t s = 0; s < qs_; ++s) {
            const std::uint64_t start = word;
            const std::span<const std::uint32_t> words =
                pg.shardWords(s, d);
            if (!weighted_) {
                // The partition already holds the Fig. 4 words.
                if (!words.empty())
                    store.writeBytes(4 * word, words.data(),
                                     4 * words.size());
                word += words.size();
            } else {
                const std::span<const std::uint32_t> weights =
                    pg.shardWeights(s, d);
                for (std::size_t i = 0; i < words.size(); ++i) {
                    store.write32(4 * word++, words[i]);
                    store.write32(4 * word++, weights[i]);
                }
            }
            // Terminating edge, then pad the remainder of the last line
            // with terminating words so out-of-order DMA never decodes
            // stale data.
            const std::uint64_t payload =
                (pg.shardSize(s, d) + 1) * words_per_edge;
            const std::uint64_t padded = ceilDiv(payload, 16) * 16;
            for (std::uint64_t i = payload - words_per_edge; i < padded;
                 ++i)
                store.write32(4 * (start + i), edgeword::kTerminating);
            word = start + padded;
            // All shards start active; the scheduler updates the flags
            // between iterations (Template 1, line 22).
            store.write64(ptrAddr(s, d),
                          edgeptr::pack(start, padded, true));
        }
    }
}

void
GraphLayout::swapInOut()
{
    if (!synchronous_)
        panic("swapInOut on an asynchronous layout");
    std::swap(v_in_base_, v_out_base_);
}

void
GraphLayout::setActive(BackingStore& store, std::uint32_t s,
                       std::uint32_t d, bool active) const
{
    std::uint64_t p = store.read64(ptrAddr(s, d));
    p = active ? (p | edgeptr::kActive) : (p & ~edgeptr::kActive);
    store.write64(ptrAddr(s, d), p);
}

bool
GraphLayout::isActive(const BackingStore& store, std::uint32_t s,
                      std::uint32_t d) const
{
    return edgeptr::isActive(store.read64(ptrAddr(s, d)));
}

} // namespace gmoms
