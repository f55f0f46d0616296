/**
 * @file
 * Tests for COO edge-list and binary graph I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

#include "src/graph/generator.hh"
#include "src/graph/io.hh"
#include "src/sim/log.hh"

namespace gmoms
{
namespace
{

struct TempFile
{
    std::string path;
    explicit TempFile(const char* name)
        : path(std::string(::testing::TempDir()) + name)
    {
    }
    ~TempFile() { std::remove(path.c_str()); }
};

TEST(GraphIo, TextRoundtripUnweighted)
{
    TempFile f("gmoms_text.txt");
    CooGraph g = uniformRandom(100, 500, 3);
    saveEdgeList(g, f.path);
    CooGraph r = loadEdgeList(f.path, 100);
    ASSERT_EQ(r.numEdges(), g.numEdges());
    EXPECT_EQ(r.numNodes(), 100u);
    EXPECT_FALSE(r.weighted());
    for (EdgeId i = 0; i < g.numEdges(); ++i) {
        EXPECT_EQ(r.edges()[i].src, g.edges()[i].src);
        EXPECT_EQ(r.edges()[i].dst, g.edges()[i].dst);
    }
}

TEST(GraphIo, TextRoundtripWeighted)
{
    TempFile f("gmoms_textw.txt");
    CooGraph g = uniformRandom(50, 200, 7);
    addRandomWeights(g, 9);
    saveEdgeList(g, f.path);
    CooGraph r = loadEdgeList(f.path);
    ASSERT_TRUE(r.weighted());
    EXPECT_EQ(r.weights(), g.weights());
}

TEST(GraphIo, SnapStyleCommentsSkipped)
{
    TempFile f("gmoms_snap.txt");
    {
        std::ofstream out(f.path);
        out << "# Directed graph from SNAP\n";
        out << "% KONECT-style comment\n";
        out << "0 1\n2 3\n";
    }
    CooGraph g = loadEdgeList(f.path);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.numNodes(), 4u);  // max id + 1
}

TEST(GraphIo, MalformedLineFails)
{
    TempFile f("gmoms_bad.txt");
    {
        std::ofstream out(f.path);
        out << "0 notanumber\n";
    }
    EXPECT_THROW(loadEdgeList(f.path), FatalError);
}

TEST(GraphIo, MissingFileFails)
{
    EXPECT_THROW(loadEdgeList("/nonexistent/graph.txt"), FatalError);
    EXPECT_THROW(loadBinary("/nonexistent/graph.bin"), FatalError);
}

TEST(GraphIo, BinaryRoundtripExact)
{
    TempFile f("gmoms_bin.bin");
    CooGraph g = rmat(10, 3000, RmatParams{}, 5);
    addRandomWeights(g, 6);
    saveBinary(g, f.path);
    CooGraph r = loadBinary(f.path);
    EXPECT_EQ(r.numNodes(), g.numNodes());
    EXPECT_TRUE(r.weighted());
    ASSERT_EQ(r.numEdges(), g.numEdges());
    for (EdgeId i = 0; i < g.numEdges(); ++i) {
        EXPECT_EQ(r.edges()[i].src, g.edges()[i].src);
        EXPECT_EQ(r.edges()[i].dst, g.edges()[i].dst);
        EXPECT_EQ(r.weight(i), g.weight(i));
    }
}

TEST(GraphIo, BinaryKeepsTwelveByteRecords)
{
    // The file holds a 32-byte header, then one (src, dst, weight)
    // record of 32-bit words per edge, whatever the graph holds in
    // memory; an unweighted graph writes weight 0.
    TempFile f("gmoms_records.bin");
    CooGraph g = uniformRandom(1000, 40000, 8);  // spans several chunks
    saveBinary(g, f.path);
    std::ifstream in(f.path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_EQ(bytes.size(), 32u + 12u * g.numEdges());
    for (const EdgeId i : {0, 16383, 16384, 39999}) {
        std::uint32_t rec[3];
        std::memcpy(rec, bytes.data() + 32 + 12 * i, sizeof(rec));
        EXPECT_EQ(rec[0], g.edges()[i].src);
        EXPECT_EQ(rec[1], g.edges()[i].dst);
        EXPECT_EQ(rec[2], 0u);
    }
    CooGraph r = loadBinary(f.path);
    EXPECT_FALSE(r.weighted());
    EXPECT_TRUE(r.weights().empty());
    ASSERT_EQ(r.numEdges(), g.numEdges());
    for (EdgeId i = 0; i < g.numEdges(); ++i) {
        ASSERT_EQ(r.edges()[i].src, g.edges()[i].src);
        ASSERT_EQ(r.edges()[i].dst, g.edges()[i].dst);
    }
}

TEST(GraphIo, BinaryRejectsWrongMagic)
{
    TempFile f("gmoms_notbin.bin");
    {
        std::ofstream out(f.path, std::ios::binary);
        out << "this is not a gmoms graph";
    }
    EXPECT_THROW(loadBinary(f.path), FatalError);
}

} // namespace
} // namespace gmoms
