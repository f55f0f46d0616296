/**
 * @file
 * Machine-readable result export: RunResult and counter snapshots as
 * JSON, so downstream tooling (plotting scripts, CI tracking) can
 * consume bench output without scraping tables.
 */

#ifndef GMOMS_SIM_REPORT_HH
#define GMOMS_SIM_REPORT_HH

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "src/sim/engine.hh"

namespace gmoms
{

/** Wall-clock stopwatch for simulator-speed reporting. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    void restart() { start_ = std::chrono::steady_clock::now(); }

    /** Seconds since construction or the last restart(). */
    double
    elapsedSeconds() const
    {
        const auto d = std::chrono::steady_clock::now() - start_;
        return std::chrono::duration<double>(d).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** A flat JSON-object builder (string/number/bool leaves, plus
 *  pre-serialized Raw values for nesting sub-objects). */
class JsonReport
{
  public:
    /** A pre-serialized JSON fragment emitted verbatim as the value —
     *  the caller guarantees it is itself valid JSON (e.g. another
     *  JsonReport's str()). Lets flat reports nest sub-objects, which
     *  the Chrome trace exporter uses for per-event "args". */
    struct Raw
    {
        std::string json;
    };

    using Value =
        std::variant<std::string, double, std::uint64_t, bool, Raw>;

    JsonReport& set(const std::string& key, Value value)
    {
        entries_.emplace_back(key, std::move(value));
        return *this;
    }

    /** Serialize as a single JSON object (keys in insertion order):
     *  `os << str()`, so the stream's own formatting flags never leak
     *  into the output. */
    void write(std::ostream& os) const;

    /** The key/value entries in insertion order (the protocol encoder
     *  flattens result payloads into v1-shaped responses). */
    const std::vector<std::pair<std::string, Value>>& entries() const
    {
        return entries_;
    }

    /** The one serializer: appends into a single reserved string.
     *  Doubles print as `%g` (what a default-formatted ostream prints),
     *  non-finite doubles as null. */
    std::string str() const;

    /** Append @p s to @p out as a JSON string literal (quotes,
     *  backslashes and all control characters escaped). */
    static void appendEscaped(std::string& out, const std::string& s);

    /** appendEscaped() for stream writers. */
    static void writeEscaped(std::ostream& os, const std::string& s);

  private:
    std::vector<std::pair<std::string, Value>> entries_;
};

/**
 * Engine-speed report: simulated cycles, ticks executed/skipped and
 * the simulated-cycles-per-wall-second rate, as a flat JSON object
 * (the payload of BENCH_engine.json, see bench/bench_common.hh).
 */
JsonReport engineReport(const Engine::Stats& stats,
                        double wall_seconds);

} // namespace gmoms

#endif // GMOMS_SIM_REPORT_HH
