#include "src/serve/job.hh"

#include <tuple>

#include "src/graph/datasets.hh"
#include "src/sim/log.hh"

namespace gmoms::serve
{

const char*
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Completed:
        return "completed";
      case JobState::Degraded:
        return "degraded";
      case JobState::Failed:
        return "failed";
    }
    return "?";
}

const std::vector<std::string>&
presetNames()
{
    static const std::vector<std::string> names = {
        "paper18x16", "shared", "private", "nbc", "degraded",
    };
    return names;
}

AccelConfig
presetByName(const std::string& name)
{
    if (name == "paper18x16")
        return AccelConfig::paper18x16TwoLevel();
    if (name == "shared")
        return AccelConfig::sharedMoms();
    if (name == "private")
        return AccelConfig::privateMoms();
    if (name == "nbc")
        return AccelConfig::traditionalNbc();
    if (name == "degraded")
        // The graceful-degradation target: smallest sane machine, cheap
        // enough that a job that blew its deadline on a big preset can
        // still finish (on the default cycle budget).
        return AccelConfig::preset(MomsConfig::twoLevel(4), /*pes=*/4,
                                   /*channels=*/2);
    std::string known;
    for (const std::string& n : presetNames())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown accelerator preset \"" + name + "\" (known: " +
          known + ")");
}

ValidatedJob
validateJobSpec(const JobSpec& spec)
{
    ValidatedJob out;
    std::vector<std::string>& problems = out.problems;

    if (spec.tenant.empty())
        problems.push_back("tenant must be nonempty (per-tenant "
                           "fairness and quotas key on it)");

    const bool sourced = spec.algo == "SSSP" || spec.algo == "BFS";
    if (spec.algo != "PageRank" && spec.algo != "SCC" && !sourced)
        problems.push_back("unknown algorithm \"" + spec.algo +
                           "\" (expected PageRank, SCC, SSSP or BFS)");

    const DatasetProfile* profile = nullptr;
    try {
        profile = &datasetByTag(spec.dataset);
    } catch (const FatalError& e) {
        problems.push_back("unknown dataset tag \"" + spec.dataset +
                           "\"");
    }
    if (profile && sourced && spec.source >= profile->nodes())
        problems.push_back(
            "source node " + std::to_string(spec.source) +
            " is outside dataset " + spec.dataset + " (" +
            std::to_string(profile->nodes()) + " nodes)");

    if (spec.max_retries > kMaxRetries)
        problems.push_back("max_retries " +
                           std::to_string(spec.max_retries) +
                           " is above the cap of " +
                           std::to_string(kMaxRetries));

    // Resolve the configuration: explicit config wins over the preset.
    if (spec.config) {
        out.config = *spec.config;
    } else {
        try {
            out.config = presetByName(spec.preset);
        } catch (const FatalError& e) {
            problems.push_back(e.what());
        }
    }

    // Fold in what the service would run with: dataset-geometry
    // intervals (Session overrides nd/ns anyway), the cycle-budget
    // deadline and the watchdog — then collect the config's own
    // problems so the rejection carries the complete story.
    if (profile)
        std::tie(out.config.nd, out.config.ns) =
            defaultIntervalsFor(profile->nodes(), profile->edges());
    if (spec.cycle_budget > 0)
        out.config.max_cycles = spec.cycle_budget;
    out.config.checks.enabled = spec.checks;
    out.config.telemetry.enabled = spec.telemetry;

    // Board topology: the JobSpec fields are authoritative (like the
    // checks/telemetry toggles above). Range problems on boards are
    // caught by validateProblems() below.
    out.config.cluster.boards = spec.boards;
    if (spec.cluster_mode == "bsp")
        out.config.cluster.mode = ClusterConfig::Mode::Bsp;
    else if (spec.cluster_mode == "async")
        out.config.cluster.mode = ClusterConfig::Mode::Async;
    else
        problems.push_back("unknown cluster_mode \"" +
                           spec.cluster_mode +
                           "\" (expected bsp or async)");
    if (spec.cluster_partitioner == "block-edges")
        out.config.cluster.partitioner =
            ClusterConfig::Partitioner::BlockEdges;
    else if (spec.cluster_partitioner == "round-robin")
        out.config.cluster.partitioner =
            ClusterConfig::Partitioner::RoundRobin;
    else
        problems.push_back("unknown cluster_partitioner \"" +
                           spec.cluster_partitioner +
                           "\" (expected block-edges or round-robin)");
    if (spec.boards > 1 && spec.checks)
        // The per-board drivers coordinate through barrier/ghost waits
        // the single-board watchdog would misread as a hang; the
        // cluster path instead verifies its timed values against the
        // functional plane on every run (a stronger end-state check).
        out.config.checks.enabled = false;

    for (const std::string& p : out.config.validateProblems())
        problems.push_back("config: " + p);

    return out;
}

std::uint64_t
valuesChecksum(const std::vector<std::uint32_t>& values)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint32_t v : values)
        for (int byte = 0; byte < 4; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    return h;
}

} // namespace gmoms::serve
