#include "src/graph/io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/sim/log.hh"

namespace gmoms
{

namespace
{

constexpr std::uint64_t kBinaryMagic = 0x534d4f4d47ull;  // "GMOMS"

/** Each binary edge record is (src, dst, weight), 32 bits each; the
 *  weight is 0 in an unweighted file. */
constexpr std::size_t kRecordWords = 3;
constexpr std::size_t kRecordBytes = kRecordWords * 4;
/** Records converted per read or write. */
constexpr std::size_t kRecordsPerChunk = 1 << 14;

} // namespace

CooGraph
loadEdgeList(const std::string& path, NodeId num_nodes_hint)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open edge list: " + path);
    std::vector<Edge> edges;
    std::vector<std::uint32_t> weights;  //!< kept while all_weighted
    NodeId max_node = 0;
    bool all_weighted = true;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#' || line[0] == '%')
            continue;
        std::istringstream ss(line);
        std::uint64_t src, dst;
        if (!(ss >> src >> dst))
            fatal("malformed edge at " + path + ":" +
                  std::to_string(line_no));
        edges.push_back(
            Edge{static_cast<NodeId>(src), static_cast<NodeId>(dst)});
        std::uint64_t weight;
        if (!(ss >> weight)) {
            all_weighted = false;
            std::vector<std::uint32_t>().swap(weights);
        } else if (all_weighted) {
            weights.push_back(static_cast<std::uint32_t>(weight));
        }
        max_node = std::max(max_node,
                            static_cast<NodeId>(std::max(src, dst)));
    }
    const NodeId n = std::max<NodeId>(
        edges.empty() ? num_nodes_hint : max_node + 1, num_nodes_hint);
    CooGraph g(n, all_weighted && !edges.empty());
    g.edges() = std::move(edges);
    if (g.weighted())
        g.weights() = std::move(weights);
    return g;
}

void
saveEdgeList(const CooGraph& g, const std::string& path)
{
    g.checkWeights("saveEdgeList");
    std::ofstream out(path);
    if (!out)
        fatal("cannot write edge list: " + path);
    out << "# nodes " << g.numNodes() << " edges " << g.numEdges()
        << "\n";
    for (EdgeId i = 0; i < g.numEdges(); ++i) {
        const Edge& e = g.edges()[i];
        out << e.src << ' ' << e.dst;
        if (g.weighted())
            out << ' ' << g.weights()[i];
        out << '\n';
    }
}

CooGraph
loadBinary(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open binary graph: " + path);
    std::uint64_t magic = 0, nodes = 0, edges = 0, weighted = 0;
    in.read(reinterpret_cast<char*>(&magic), 8);
    in.read(reinterpret_cast<char*>(&nodes), 8);
    in.read(reinterpret_cast<char*>(&edges), 8);
    in.read(reinterpret_cast<char*>(&weighted), 8);
    if (!in || magic != kBinaryMagic)
        fatal("not a gmoms binary graph: " + path);
    CooGraph g(static_cast<NodeId>(nodes), weighted != 0);
    g.edges().reserve(edges);
    if (g.weighted())
        g.weights().reserve(edges);
    std::vector<std::uint32_t> records(kRecordWords * kRecordsPerChunk);
    for (std::uint64_t done = 0; done < edges;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kRecordsPerChunk, edges - done));
        in.read(reinterpret_cast<char*>(records.data()),
                static_cast<std::streamsize>(n * kRecordBytes));
        if (!in)
            fatal("truncated binary graph: " + path);
        for (std::size_t i = 0; i < n; ++i)
            g.addEdge(records[3 * i], records[3 * i + 1],
                      records[3 * i + 2]);
        done += n;
    }
    return g;
}

void
saveBinary(const CooGraph& g, const std::string& path)
{
    g.checkWeights("saveBinary");
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write binary graph: " + path);
    const std::uint64_t magic = kBinaryMagic;
    const std::uint64_t nodes = g.numNodes();
    const std::uint64_t edges = g.numEdges();
    const std::uint64_t weighted = g.weighted() ? 1 : 0;
    out.write(reinterpret_cast<const char*>(&magic), 8);
    out.write(reinterpret_cast<const char*>(&nodes), 8);
    out.write(reinterpret_cast<const char*>(&edges), 8);
    out.write(reinterpret_cast<const char*>(&weighted), 8);
    std::vector<std::uint32_t> records(kRecordWords * kRecordsPerChunk);
    for (EdgeId done = 0; done < edges;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<EdgeId>(kRecordsPerChunk, edges - done));
        for (std::size_t i = 0; i < n; ++i) {
            const Edge& e = g.edges()[done + i];
            records[3 * i] = e.src;
            records[3 * i + 1] = e.dst;
            records[3 * i + 2] = g.weight(done + i);
        }
        out.write(reinterpret_cast<const char*>(records.data()),
                  static_cast<std::streamsize>(n * kRecordBytes));
        done += n;
    }
}

} // namespace gmoms
