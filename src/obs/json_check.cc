#include "src/obs/json_check.hh"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace gmoms
{

std::optional<std::uint64_t>
JsonValue::exactUint64() const
{
    if (kind != Kind::Number)
        return std::nullopt;
    // from_chars takes no sign for an unsigned type, stops at a
    // fraction or exponent, and reports overflow instead of saturating.
    const char* end = raw.data() + raw.size();
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(raw.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

const JsonValue*
JsonValue::find(const std::string& key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto& [k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

namespace
{

class Parser
{
  public:
    Parser(std::string_view text, std::string* error)
        : text_(text), error_(error)
    {
    }

    std::optional<JsonValue>
    run()
    {
        JsonValue v;
        if (!parseValue(v))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after value");
            return std::nullopt;
        }
        return v;
    }

  private:
    void
    fail(const std::string& what)
    {
        if (error_ != nullptr && error_->empty())
            *error_ = what + " at offset " + std::to_string(pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    expect(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        fail(std::string("expected '") + c + "'");
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word) {
            fail("bad literal");
            return false;
        }
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(JsonValue& out)
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        switch (text_[pos_]) {
          case '{':
          case '[': {
            // Containers recurse; a hostile line of a million '[' must
            // fail as a decode error, not overflow the stack.
            if (depth_ == kMaxJsonDepth) {
                fail("nesting deeper than " +
                     std::to_string(kMaxJsonDepth));
                return false;
            }
            ++depth_;
            const bool ok = text_[pos_] == '{' ? parseObject(out)
                                               : parseArray(out);
            --depth_;
            return ok;
          }
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default: return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue& out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_;  // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                return false;
            }
            if (!parseString(key))
                return false;
            skipWs();
            if (!expect(':'))
                return false;
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.object.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            return expect('}');
        }
    }

    bool
    parseArray(JsonValue& out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_;  // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.array.push_back(std::move(v));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            return expect(']');
        }
    }

    bool
    hexDigit(char c, unsigned& out) const
    {
        if (c >= '0' && c <= '9') {
            out = static_cast<unsigned>(c - '0');
            return true;
        }
        if (c >= 'a' && c <= 'f') {
            out = static_cast<unsigned>(c - 'a' + 10);
            return true;
        }
        if (c >= 'A' && c <= 'F') {
            out = static_cast<unsigned>(c - 'A' + 10);
            return true;
        }
        return false;
    }

    void
    appendUtf8(std::string& s, unsigned cp) const
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xF0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    /** The value of the four hex digits of a \uXXXX escape at @p at. */
    std::optional<unsigned>
    hex4(std::size_t at) const
    {
        if (at + 4 > text_.size())
            return std::nullopt;
        unsigned cp = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            unsigned d = 0;
            if (!hexDigit(text_[at + i], d))
                return std::nullopt;
            cp = cp * 16 + d;
        }
        return cp;
    }

    bool
    parseString(std::string& out)
    {
        ++pos_;  // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
                return false;
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (pos_ + 1 >= text_.size()) {
                fail("dangling escape");
                return false;
            }
            const char esc = text_[pos_ + 1];
            pos_ += 2;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return false;
                }
                std::optional<unsigned> cp = hex4(pos_);
                if (!cp) {
                    fail("bad \\u escape");
                    return false;
                }
                pos_ += 4;
                // A high surrogate followed by an escaped low one is one
                // code point past U+FFFF. A lone surrogate is kept as
                // its own 3-byte sequence, as Python's json does.
                if (*cp >= 0xD800 && *cp <= 0xDBFF &&
                    text_.substr(pos_, 2) == "\\u") {
                    const std::optional<unsigned> lo = hex4(pos_ + 2);
                    if (lo && *lo >= 0xDC00 && *lo <= 0xDFFF) {
                        cp = 0x10000 + ((*cp - 0xD800) << 10) +
                             (*lo - 0xDC00);
                        pos_ += 6;
                    }
                }
                appendUtf8(out, *cp);
                break;
              }
              default: fail("unknown escape"); return false;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool
    parseNumber(JsonValue& out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        // RFC 8259: the integer part is 0 or starts with 1-9.
        if (pos_ + 1 < text_.size() && text_[pos_] == '0' &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
            fail("leading zero");
            return false;
        }
        auto digits = [&] {
            const std::size_t d = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            return pos_ > d;
        };
        if (!digits()) {
            fail("bad number");
            return false;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits()) {
                fail("bad fraction");
                return false;
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits()) {
                fail("bad exponent");
                return false;
            }
        }
        out.kind = JsonValue::Kind::Number;
        out.raw = std::string(text_.substr(start, pos_ - start));
        out.number = std::strtod(out.raw.c_str(), nullptr);
        return true;
    }

    std::string_view text_;
    std::string* error_;
    std::size_t pos_ = 0;
    int depth_ = 0;  //!< containers open around the current value
};

} // namespace

std::optional<JsonValue>
parseJson(std::string_view text, std::string* error)
{
    if (error != nullptr)
        error->clear();
    return Parser(text, error).run();
}

} // namespace gmoms
