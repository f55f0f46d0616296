/**
 * @file
 * What identifies a warm session and a run: the config fingerprint and
 * the replay descriptor.
 *
 * configFingerprint digests the result-relevant AccelConfig fields; the
 * serving layer keys its pool of warm Sessions (serve/checkpoint_pool)
 * and its result cache by it. The pool's checkpoint is the warm Session
 * itself: copying one is O(1) (session.hh), and because the simulator
 * is deterministic its inputs are its whole state.
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
#include <optional>
#include <string>

#include "src/accel/session.hh"

namespace gmoms
{

/**
 * Order-independent digest of every AccelConfig field that can change
 * simulation results or run records. Deliberately EXCLUDES
 * full_tick_engine (both engine modes are bit-identical) and
 * output-only knobs (dump paths, labels), so configs differing only
 * in those share one pooled warm session. Unit-tested field-by-field in
 * tests/test_checkpoint.cc: any new result-relevant field must be
 * added here or that test's sensitivity sweep will miss it.
 */
std::uint64_t configFingerprint(const AccelConfig& cfg);

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
