/**
 * @file
 * Graph file I/O: the accelerator accepts graphs in coordinate (COO)
 * format (Section III-C). Two on-disk representations:
 *  - text edge lists ("src dst [weight]" per line, '#'/'%' comments),
 *    compatible with SNAP / KONECT downloads;
 *  - a compact binary format for fast reloads: a header (magic, node
 *    count, edge count, weighted flag; 64 bits each), then one 12-byte
 *    (src, dst, weight) record of 32-bit words per edge, weight 0 when
 *    unweighted.
 */

#ifndef GMOMS_GRAPH_IO_HH
#define GMOMS_GRAPH_IO_HH

#include <string>

#include "src/graph/coo.hh"

namespace gmoms
{

/**
 * Parse a text edge list. Node ids are used as-is; num_nodes becomes
 * max(id) + 1 unless @p num_nodes_hint is larger. A third column, when
 * present on every edge, is read as the weight.
 * @throws FatalError on malformed input or missing file.
 */
CooGraph loadEdgeList(const std::string& path, NodeId num_nodes_hint = 0);

/** Write "src dst [weight]" lines. */
void saveEdgeList(const CooGraph& g, const std::string& path);

/** Binary round-trip format (header + 12-byte edge records). */
CooGraph loadBinary(const std::string& path);
void saveBinary(const CooGraph& g, const std::string& path);

} // namespace gmoms

#endif // GMOMS_GRAPH_IO_HH
