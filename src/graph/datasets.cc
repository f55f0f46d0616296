#include "src/graph/datasets.hh"

#include <cstdlib>

#include "src/graph/generator.hh"
#include "src/sim/log.hh"
#include "src/sim/types.hh"

namespace gmoms
{

namespace
{

using Family = DatasetProfile::Family;

/** All node counts are scaled by a uniform 1/256 so that each dataset
 *  keeps its paper ratio between node-set size and the (equally scaled)
 *  cache capacities — the quantity that decides whether caching works
 *  (WT ~42% coverage down to WB ~0.9%). Edge counts are paper/256 too,
 *  but capped at 1.2M so a full figure sweep stays within minutes on
 *  one core; the cap lowers M/N on the giant graphs, which is recorded
 *  as a substitution in DESIGN.md. */
const std::vector<DatasetProfile> kProfiles = {
    {"WT", "wiki-Talk",      2'390'000,     5'020'000,    256,
     Family::Social, false},
    {"DB", "dbpedia-link",   18'300'000,    172'000'000,  256,
     Family::Web,    true},
    {"UK", "uk-2005",        39'500'000,    936'000'000,  256,
     Family::Web,    true},
    {"IT", "it-2004",        41'300'000,    1'150'000'000, 256,
     Family::Web,    true},
    {"SK", "sk-2005",        50'600'000,    1'950'000'000, 256,
     Family::Web,    true},
    {"MP", "twitter_mpi",    52'600'000,    1'960'000'000, 256,
     Family::Social, false},
    {"RV", "twitter_rv",     61'600'000,    1'470'000'000, 256,
     Family::Social, false},
    {"FR", "com-friendster", 65'600'000,    1'810'000'000, 256,
     Family::Social, false},
    {"WB", "webbase-2001",   118'000'000,   1'020'000'000, 256,
     Family::Web,    true},
    {"24", "RMAT-24",        16'800'000,    268'000'000,  256,
     Family::Rmat,   false},
    {"25", "RMAT-25",        33'600'000,    537'000'000,  256,
     Family::Rmat,   false},
    {"26", "RMAT-26",        67'100'000,    1'070'000'000, 256,
     Family::Rmat,   false},
};

std::uint32_t
rmatScaleFor(NodeId nodes)
{
    std::uint32_t s = 0;
    while ((NodeId{1} << s) < nodes)
        ++s;
    return s;
}

} // namespace

const std::vector<DatasetProfile>&
table2Profiles()
{
    return kProfiles;
}

const DatasetProfile&
datasetByTag(const std::string& tag)
{
    for (const DatasetProfile& p : kProfiles)
        if (p.tag == tag)
            return p;
    fatal("unknown dataset tag: " + tag);
}

CooGraph
buildDataset(const DatasetProfile& profile, std::uint64_t seed,
             std::uint32_t boards)
{
    const EdgeId edges = profile.edges(boards);
    CooGraph g;
    switch (profile.family) {
      case Family::Web: {
        // Web graphs: strong clustering in label space and heavy skew.
        // powerLaw with high locality models crawl-order labeling.
        g = powerLaw(profile.nodes(), edges, /*alpha=*/0.72,
                     /*locality=*/0.8,
                     /*window=*/std::max<NodeId>(profile.nodes() / 64, 64),
                     seed);
        break;
      }
      case Family::Social: {
        g = powerLaw(profile.nodes(), edges, /*alpha=*/0.6,
                     /*locality=*/0.15,
                     /*window=*/std::max<NodeId>(profile.nodes() / 64, 64),
                     seed);
        break;
      }
      case Family::Rmat: {
        const std::uint32_t scale = rmatScaleFor(profile.nodes());
        g = rmat(scale, edges, RmatParams{}, seed);
        break;
      }
    }
    if (!profile.labels_preserve_communities) {
        // Model native labelings that scatter communities (Section V-C:
        // FR, MP, RV and the RMATs benefit from DBG because their
        // original labels do not preserve clusters).
        g.relabel(randomPermutation(g.numNodes(), seed ^ 0xabcdef));
    }
    g.name = profile.tag;
    return g;
}

std::vector<std::string>
benchDatasetTags()
{
    if (const char* env = std::getenv("GMOMS_FULL_DATASETS");
        env && env[0] == '1') {
        std::vector<std::string> all;
        for (const DatasetProfile& p : kProfiles)
            all.push_back(p.tag);
        return all;
    }
    // Quick default: one of each family plus the sparse outlier WT.
    return {"WT", "UK", "MP", "24"};
}

} // namespace gmoms
