/**
 * @file
 * DRAM image of a partitioned graph (Fig. 4 of the paper).
 *
 * Layout, low to high addresses:
 *   (i)   node arrays: V_DRAM,in, optional V_const, optional V_DRAM,out
 *         (synchronous execution), each 32 bits per node;
 *   (ii)  edges, organized by shard (destination-major), in 32-bit
 *         compressed format with a terminating edge per shard;
 *   (iii) edge pointers, one 64-bit entry per shard, carrying start
 *         address, size and the active_srcs flag.
 *
 * Compressed edge word (edgeword in partition.hh, which holds every
 * edge in this form): [31] isTerminatingEdge, [30:15] source offset in
 * its source interval (16 bits), [14:0] destination offset in its
 * destination interval (15 bits). Weighted edges append a 32-bit weight
 * word. Shards start 64-byte aligned; padding words carry the
 * terminating flag so PEs ignore trailing data in the last DRAM word.
 */

#ifndef GMOMS_GRAPH_LAYOUT_HH
#define GMOMS_GRAPH_LAYOUT_HH

#include <cstdint>
#include <functional>

#include "src/graph/partition.hh"
#include "src/mem/backing_store.hh"
#include "src/sim/types.hh"

namespace gmoms
{

/**
 * Packed half-word CSR (degree-aware vertex packing).
 *
 * Edges of a shard are grouped by source (a stable sort on src_off)
 * and encoded as a stream of 16-bit half-words in self-contained
 * 64-byte lines (32 half-words per line):
 *
 *   selector     [15]=1, [14:0] src_off — opens a source group; all
 *                following destination half-words until the next
 *                selector are out-edges of this source.
 *   destination  [15]=0, [14:0] dst_off — one out-edge of the open
 *                source. Weighted shards append one raw 16-bit weight
 *                half-word after each destination.
 *   0xFFFF       padding — skipped instantly; fills the tail of a line
 *                when the next unit would straddle the line boundary,
 *                and the tail of the shard.
 *
 * Why group by source: consecutive edges of one source go to distinct
 * destinations (unless the graph repeats an edge), so a multi-cycle
 * gather (PageRank's float add) does not wait on a read-after-write
 * hazard between neighbouring edges, as it does when a destination's
 * in-edges follow each other. A source's run of reads targets one
 * vertex line, so the MOMS merges all but the first into hits and
 * secondary misses, which cost about what hits cost. Selectors
 * amortize over a high-degree source's out-edges in the shard.
 *
 * Every line begins with a selector (re-issued across line breaks), so
 * any 64-byte burst decodes without state from earlier lines. A
 * (destination, weight) pair never splits across lines. 0xFFFF can
 * never be a real selector because eligibility requires ns <= 32767.
 *
 * Eligibility (checked per layout; ineligible partitions silently fall
 * back to the plain 32-bit encoding): ns <= 32767, nd <= 32768 (15-bit
 * dst_off), and every weight <= 65535.
 */
namespace packedcsr
{

inline constexpr std::uint16_t kSelector = 0x8000u;
inline constexpr std::uint16_t kPad = 0xffffu;
inline constexpr std::uint32_t kHalfwordsPerLine = kLineBytes / 2;

constexpr std::uint16_t
selector(std::uint32_t src_off)
{
    return static_cast<std::uint16_t>(kSelector | (src_off & 0x7fffu));
}

constexpr std::uint16_t
destination(std::uint32_t dst_off)
{
    return static_cast<std::uint16_t>(dst_off & 0x7fffu);
}

constexpr bool isPad(std::uint16_t h) { return h == kPad; }
constexpr bool isSelector(std::uint16_t h)
{
    return (h & kSelector) != 0;
}
/** Source offset carried by a selector half-word. */
constexpr std::uint32_t srcOff(std::uint16_t h) { return h & 0x7fffu; }
/** Destination offset carried by a destination half-word. */
constexpr std::uint32_t dstOff(std::uint16_t h) { return h & 0x7fffu; }

} // namespace packedcsr

/** 64-bit edge-pointer entry helpers: [63] active, [62:40] size in
 *  32-bit words, [39:0] start word address. */
namespace edgeptr
{

inline constexpr std::uint64_t kActive = 1ull << 63;

constexpr std::uint64_t
pack(std::uint64_t start_word, std::uint64_t size_words, bool active)
{
    return (active ? kActive : 0) | ((size_words & 0x7fffffull) << 40) |
           (start_word & 0xffffffffffull);
}

constexpr bool isActive(std::uint64_t p) { return p & kActive; }
constexpr std::uint64_t sizeWords(std::uint64_t p)
{
    return (p >> 40) & 0x7fffffull;
}
constexpr std::uint64_t startWord(std::uint64_t p)
{
    return p & 0xffffffffffull;
}

} // namespace edgeptr

/**
 * Builds and indexes the DRAM image of one partitioned graph.
 *
 * The builder writes into a BackingStore; all section base addresses are
 * then available for the scheduler to hand to PEs as job parameters.
 */
class GraphLayout
{
  public:
    struct Options
    {
        bool has_const = false;    //!< allocate/populate V_const
        bool synchronous = false;  //!< allocate V_DRAM,out
        /** Request the packed half-word CSR edge encoding (see
         *  packedcsr above); silently ignored when the partition is
         *  ineligible — check packed() after construction. */
        bool packed = false;
        /** Initial value of V_DRAM,in for a node. */
        std::function<std::uint32_t(NodeId)> init_value;
        /** Value of V_const for a node (used when has_const). */
        std::function<std::uint32_t(NodeId)> const_value;
    };

    GraphLayout(const PartitionedGraph& pg, const Options& opts);

    /** Total bytes needed; call before build() to size the store. */
    std::uint64_t totalBytes() const { return total_bytes_; }

    /** Write the full image into @p store (resizing if needed). */
    void build(const PartitionedGraph& pg, BackingStore& store);

    // --- section bases --------------------------------------------------
    Addr vInBase() const { return v_in_base_; }
    Addr vOutBase() const { return v_out_base_; }
    Addr vConstBase() const { return v_const_base_; }
    Addr edgeBase() const { return edge_base_; }
    Addr ptrBase() const { return ptr_base_; }

    Addr vInAddr(NodeId n) const { return v_in_base_ + 4ull * n; }
    Addr vOutAddr(NodeId n) const { return v_out_base_ + 4ull * n; }
    Addr vConstAddr(NodeId n) const { return v_const_base_ + 4ull * n; }

    /** Address of the edge-pointer entry for shard E_{s->d}. */
    Addr
    ptrAddr(std::uint32_t s, std::uint32_t d) const
    {
        return ptr_base_ +
               8ull * (static_cast<std::uint64_t>(d) * qs_ + s);
    }

    /** Swap the in/out node arrays (synchronous execution only). */
    void swapInOut();

    /** Set/clear the active_srcs flag of shard E_{s->d} in the store. */
    void setActive(BackingStore& store, std::uint32_t s, std::uint32_t d,
                   bool active) const;
    bool isActive(const BackingStore& store, std::uint32_t s,
                  std::uint32_t d) const;

    bool synchronous() const { return synchronous_; }
    bool weighted() const { return weighted_; }
    bool hasConst() const { return has_const_; }
    /** Whether the edge section actually uses the packed half-word
     *  CSR (requested AND eligible). */
    bool packed() const { return packed_; }
    std::uint32_t qs() const { return qs_; }
    std::uint32_t qd() const { return qd_; }

    /** Bytes occupied by the edge section (useful traffic accounting). */
    std::uint64_t edgeSectionBytes() const { return ptr_base_ - edge_base_; }

  private:
    bool has_const_ = false;
    bool synchronous_ = false;
    bool weighted_ = false;
    bool packed_ = false;
    std::uint32_t qs_ = 0, qd_ = 0;
    NodeId num_nodes_ = 0;
    Options opts_;

    Addr v_in_base_ = 0;
    Addr v_const_base_ = 0;
    Addr v_out_base_ = 0;
    Addr edge_base_ = 0;
    Addr ptr_base_ = 0;
    std::uint64_t total_bytes_ = 0;
};

} // namespace gmoms

#endif // GMOMS_GRAPH_LAYOUT_HH
