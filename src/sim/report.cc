#include "src/sim/report.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace gmoms
{

void
JsonReport::appendEscaped(std::string& out, const std::string& s)
{
    out += '"';
    // Copy runs of plain bytes in one append; escape the rest.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default: {
            // Remaining control characters are invalid raw in JSON
            // strings; emit the generic escape.
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
          }
        }
    }
    out.append(s, run, std::string::npos);
    out += '"';
}

void
JsonReport::writeEscaped(std::ostream& os, const std::string& s)
{
    std::string out;
    appendEscaped(out, s);
    os << out;
}

void
JsonReport::write(std::ostream& os) const
{
    os << str();
}

std::string
JsonReport::str() const
{
    // Size the buffer once: escapes may still grow it, but the common
    // report never reallocates.
    std::size_t estimate = 2;
    for (const auto& [key, value] : entries_) {
        estimate += key.size() + 4;
        if (const auto* s = std::get_if<std::string>(&value))
            estimate += s->size() + 2;
        else if (const auto* r = std::get_if<Raw>(&value))
            estimate += r->json.size();
        else
            estimate += 24;
    }
    std::string out;
    out.reserve(estimate);

    out += '{';
    bool first = true;
    for (const auto& [key, value] : entries_) {
        if (!first)
            out += ',';
        first = false;
        appendEscaped(out, key);
        out += ':';
        if (const auto* s = std::get_if<std::string>(&value)) {
            appendEscaped(out, *s);
        } else if (const auto* d = std::get_if<double>(&value)) {
            if (std::isfinite(*d)) {
                char buf[32];
                const int n = std::snprintf(buf, sizeof(buf), "%g", *d);
                out.append(buf, static_cast<std::size_t>(n));
            } else {
                out += "null";
            }
        } else if (const auto* u = std::get_if<std::uint64_t>(&value)) {
            char buf[24];
            const auto res = std::to_chars(buf, buf + sizeof(buf), *u);
            out.append(buf, res.ptr);
        } else if (const auto* r = std::get_if<Raw>(&value)) {
            out += r->json;
        } else {
            out += std::get<bool>(value) ? "true" : "false";
        }
    }
    out += '}';
    return out;
}

JsonReport
engineReport(const Engine::Stats& stats, double wall_seconds)
{
    const std::uint64_t ticks_total =
        stats.ticks_executed + stats.ticks_skipped;
    JsonReport report;
    report.set("sim_cycles", stats.cycles)
        .set("cycles_skipped", stats.cycles_skipped)
        .set("ticks_executed", stats.ticks_executed)
        .set("ticks_skipped", stats.ticks_skipped)
        .set("tick_skip_fraction",
             ticks_total ? static_cast<double>(stats.ticks_skipped) /
                               static_cast<double>(ticks_total)
                         : 0.0)
        .set("wakes", stats.wakes)
        .set("wall_seconds", wall_seconds)
        .set("cycles_per_sec",
             wall_seconds > 0.0
                 ? static_cast<double>(stats.cycles) / wall_seconds
                 : 0.0);
    return report;
}

} // namespace gmoms
