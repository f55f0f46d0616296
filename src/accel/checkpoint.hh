/**
 * @file
 * Warm-session checkpoint/restore and deterministic replay descriptors.
 *
 * A SessionCheckpoint is a versioned snapshot of everything a warmed
 * Session carries *between* runs: the preprocessed graph views, their
 * partitions, the id-translation tables, the synthetic-weight seed and
 * the bound configuration. Because the simulator is deterministic,
 * those inputs are the complete state — all microarchitectural state
 * (MOMS/MSHR contents, wake calendar, in-flight queues) is
 * reconstructed exactly by re-running, so every fork simulates a
 * bit-identical result. A checkpoint holds no results: repeat jobs are
 * answered by the serving layer's ResultCache. restore()/fork() is
 * copy-on-restore: the forked Session shares every immutable view by
 * shared_ptr and owns only its lazily materialized remainder, so a
 * fork costs O(1) regardless of graph size.
 *
 * ReplayDescriptor is the restore side of watchdog/diagnostic dumps: a
 * one-line, versioned recipe (dataset tag, preprocessing, config
 * preset or fingerprint, algorithm + arguments, failure cycle) that a
 * developer — or tooling — can feed back through SessionBuilder to
 * deterministically re-execute a failed run up to the recorded cycle
 * ("time-travel debugging" without serializing the machine).
 */

#ifndef GMOMS_ACCEL_CHECKPOINT_HH
#define GMOMS_ACCEL_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/accel/session.hh"

namespace gmoms
{

/**
 * Order-independent digest of every AccelConfig field that can change
 * simulation results or run records. Deliberately EXCLUDES
 * full_tick_engine (both engine modes are bit-identical) and
 * output-only knobs (dump paths, labels), so sessions differing only
 * in those share checkpoints. Unit-tested field-by-field in
 * tests/test_checkpoint.cc: any new result-relevant field must be
 * added here or that test's sensitivity sweep will miss it.
 */
std::uint64_t configFingerprint(const AccelConfig& cfg);

class SessionCheckpoint
{
  public:
    /** Snapshot layout version; bumped on any semantic change to what
     *  a checkpoint carries. restore() refuses other versions. */
    static constexpr std::uint32_t kFormatVersion = 2;

    /**
     * Capture @p session. Warms the plain view (and, with
     * @p warm_weighted, the weighted one) so every fork starts fully
     * preprocessed.
     */
    static SessionCheckpoint capture(Session& session,
                                     bool warm_weighted = false);

    /** Copy-on-restore fork: a Session sharing all immutable state. */
    Session restore() const;

    /** Approximate resident bytes (graph views + partitions). */
    std::size_t residentBytes() const;

    /** Whether the weighted (SSSP) view is warm. */
    bool hasWeighted() const;

    /** Fingerprint of the captured config (pool key ingredient). */
    std::uint64_t fingerprint() const;

  private:
    SessionCheckpoint() = default;

    struct State;
    std::shared_ptr<const State> state_;
};

/**
 * One-line, versioned recipe for deterministically re-executing a run
 * (recorded in JobRecords and appended to diagnostic dumps via
 * CheckConfig::replay_context). Only preset-named configurations are
 * reconstructable from the line alone; explicit configs are identified
 * by fingerprint for matching against a live config in code.
 */
struct ReplayDescriptor
{
    static constexpr std::uint32_t kVersion = 1;

    std::string dataset;      //!< dataset tag (e.g. "WT")
    std::string prep;         //!< Preprocessing name (e.g. "DbgHash")
    std::string algo;         //!< "PageRank" / "SCC" / "SSSP" / "BFS"
    std::uint32_t iterations = 0;
    NodeId source = 0;        //!< ORIGINAL id (SSSP/BFS)
    std::string preset;       //!< preset name; empty = explicit config
    std::uint64_t config_fingerprint = 0;
    Cycle fail_cycle = 0;     //!< 0 = unset (filled by dump site)

    /** "gmoms-replay v1 dataset=… prep=… algo=… …" */
    std::string serialize() const;
    /** Inverse of serialize(); nullopt on malformed/wrong version. */
    static std::optional<ReplayDescriptor> parse(const std::string& s);
};

} // namespace gmoms

#endif // GMOMS_ACCEL_CHECKPOINT_HH
