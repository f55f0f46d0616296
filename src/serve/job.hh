/**
 * @file
 * Job model of the serving layer: what a tenant submits, how it is
 * validated up front, and what a terminal job looks like.
 *
 * A JobSpec names everything one run needs — dataset + preprocessing,
 * algorithm, accelerator preset (or explicit config), priority and a
 * simulated-cycle deadline — so the service can vet the whole request
 * at admission time. validateJobSpec() accumulates *every* problem
 * (unknown dataset, bad algorithm, out-of-range source, and the full
 * AccelConfig::validateProblems() list of the resolved config) into one
 * structured rejection, mirroring AccelConfig::validate(): reject with
 * the complete story instead of failing mid-run. The protocol decodes
 * a JobSpec from a submit line (serve/protocol.hh), and every attempt
 * runs it on a fork of a pooled warm Session (serve/checkpoint_pool.hh)
 * through Session::run, the one algorithm dispatch.
 *
 * Deadlines are expressed in *simulated cycles* (the accelerator's own
 * budget), not wall time: a cycle budget is deterministic, so a job
 * that blows it blows it identically on every worker count — the
 * property the retry/degrade policy and its tests rest on.
 */

#ifndef GMOMS_SERVE_JOB_HH
#define GMOMS_SERVE_JOB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/accel/accel_config.hh"
#include "src/graph/reorder.hh"

namespace gmoms::serve
{

/** Service-wide job handle, assigned at admission (monotone from 1). */
using JobId = std::uint64_t;
inline constexpr JobId kInvalidJob = 0;

/** Largest JobSpec::max_retries accepted: a job makes at most
 *  1 + kMaxRetries attempts on its requested config, so a submit that
 *  always fails holds a worker for a bounded time. */
inline constexpr std::uint32_t kMaxRetries = 16;

/** One tenant request: everything needed to run one algorithm once. */
struct JobSpec
{
    /** Tenant name for fairness/quota accounting (required). */
    std::string tenant;

    /** Dataset tag from the Table II registry ("WT", "DB", ...). */
    std::string dataset;
    Preprocessing prep = Preprocessing::DbgHash;

    /** "PageRank", "SCC", "SSSP" or "BFS". */
    std::string algo;
    /** Iteration cap; 0 means the algorithm default
     *  (effectiveIterations(): 10 for PageRank, 1000 for the
     *  convergence-bound kernels). */
    std::uint32_t iterations = 0;
    /** SSSP/BFS source node in the preprocessed dataset's id space. */
    NodeId source = 0;

    /** Named accelerator preset (see presetByName()); ignored when
     *  @ref config is set. */
    std::string preset = "paper18x16";
    /** Explicit configuration, overriding @ref preset. */
    std::optional<AccelConfig> config;

    /** Larger value = dispatched earlier (see AdmissionQueue). */
    std::uint32_t priority = 0;

    /**
     * Deadline as a simulated-cycle budget; 0 keeps the config's
     * max_cycles. A run that exhausts the budget is aborted by the
     * hardening layer (CheckError) and enters the retry/degrade path.
     */
    std::uint64_t cycle_budget = 0;

    /** Extra attempts with the *same* config after a failed run before
     *  the service degrades to its fallback preset; at most
     *  kMaxRetries. */
    std::uint32_t max_retries = 1;

    /** Run under the PR-4 watchdog (bit-exact either way; on by
     *  default so wedged jobs abort with a dump instead of hanging). */
    bool checks = true;
    /** Collect PR-3 telemetry for this job's simulation. */
    bool telemetry = false;

    // -- board topology (folded into the resolved config's cluster) ------

    /** Simulated boards: 1 = single board (default), 2-8 = multi-board
     *  cluster. The values checksum is identical either way (the
     *  cluster determinism contract, docs/MODEL.md). */
    std::uint32_t boards = 1;
    /** Coordination mode: "bsp" or "async" (ignored at boards == 1). */
    std::string cluster_mode = "bsp";
    /** Partitioner: "block-edges" or "round-robin" (ignored at
     *  boards == 1). */
    std::string cluster_partitioner = "block-edges";
};

/** Terminal (or in-flight) state of an admitted job. */
enum class JobState : std::uint8_t
{
    Queued,     //!< admitted, waiting for a worker
    Running,    //!< dispatched to a worker
    Completed,  //!< finished with the requested configuration
    Degraded,   //!< finished, but only on the fallback preset
    Failed,     //!< all attempts and the fallback (if any) failed
};

const char* jobStateName(JobState s);

/** What poll() returns: spec echo, lifecycle, latency breakdown and a
 *  compact result summary (full per-node values stay inside the run —
 *  the checksum is what cross-worker-count determinism is asserted
 *  on). */
struct JobRecord
{
    JobId id = kInvalidJob;
    std::string tenant;
    std::string dataset;
    std::string algo;
    std::uint32_t priority = 0;

    JobState state = JobState::Queued;
    std::uint32_t attempts = 0;      //!< runs started (incl. fallback)
    bool used_fallback = false;
    /** Completed straight from the deterministic result cache — no
     *  simulation ran; the result fields (and values_checksum) are the
     *  pinned cold-run values (src/serve/result_cache.hh). */
    bool from_cache = false;
    std::string error;               //!< last failure reason, if any
    /** ReplayDescriptor of the last attempt (the fallback config's
     *  once the job degrades): paste into a fresh process to re-run
     *  the exact simulation — deterministic, so a failing run's dump
     *  is restorable (see src/accel/checkpoint.hh). */
    std::string replay;

    // Latency breakdown (wall seconds).
    double queue_seconds = 0;  //!< admission -> dispatch
    double prep_seconds = 0;   //!< dataset build/fetch + partitioning
    double sim_seconds = 0;    //!< successful simulation run
    double total_seconds = 0;  //!< admission -> terminal

    // Result summary of the successful run.
    Cycle cycles = 0;
    std::uint32_t iterations = 0;
    EdgeId edges_processed = 0;
    std::uint64_t dram_bytes_read = 0;
    std::uint64_t dram_bytes_written = 0;
    double moms_hit_rate = 0;
    double gteps = 0;
    std::uint64_t values_checksum = 0;  //!< FNV-1a over raw values

    bool
    terminal() const
    {
        return state == JobState::Completed ||
               state == JobState::Degraded ||
               state == JobState::Failed;
    }
};

/**
 * Accelerator preset by service-facing name: "paper18x16", "shared",
 * "private", "nbc", or "degraded" (the small 4-PE config the service
 * falls back to). Throws FatalError on an unknown name listing the
 * known ones.
 */
AccelConfig presetByName(const std::string& name);

/** The names presetByName() accepts, for error messages and CLIs. */
const std::vector<std::string>& presetNames();

/** Outcome of up-front validation: the fully resolved config (preset
 *  applied, dataset-geometry intervals, budget and checks folded in)
 *  plus every problem found. The config is only meaningful when
 *  problems is empty. */
struct ValidatedJob
{
    AccelConfig config;
    std::vector<std::string> problems;

    bool ok() const { return problems.empty(); }
};

/**
 * Vet @p spec without running anything: tenant/algo/dataset/preset
 * checks, source bounds against the dataset profile, and the resolved
 * config's own validateProblems() — all problems in one list.
 */
ValidatedJob validateJobSpec(const JobSpec& spec);

/** FNV-1a 64-bit over @p values' bytes: the per-job result fingerprint
 *  used for cross-worker-count bit-identity checks. */
std::uint64_t valuesChecksum(const std::vector<std::uint32_t>& values);

} // namespace gmoms::serve

#endif // GMOMS_SERVE_JOB_HH
