#include "serve/protocol.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>

#include "obs/json.hpp"

namespace culda::serve {

namespace {

// ---------------------------------------------------------------------------
// A deliberately small strict JSON reader — just what the request schema
// needs (objects of strings / unsigned integers / integer arrays), with the
// failure modes spelled out. Internal errors throw ParseFail and surface as
// a bad_request response; nothing here ever throws out of ParseRequestLine.
// ---------------------------------------------------------------------------

struct ParseFail {
  std::string msg;
};

[[noreturn]] void Fail(std::string msg) { throw ParseFail{std::move(msg)}; }

class Reader {
 public:
  explicit Reader(std::string_view s) : p_(s.data()), end_(s.data() + s.size()) {}

  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r')) ++p_;
  }
  bool AtEnd() {
    SkipWs();
    return p_ == end_;
  }
  char Peek() {
    SkipWs();
    if (p_ == end_) Fail("unexpected end of input");
    return *p_;
  }
  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++p_;
  }
  bool TryConsume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++p_;
    return true;
  }

  /// JSON string with the standard escapes; \uXXXX is decoded to UTF-8
  /// (surrogate pairs rejected — request ids are short ASCII in practice).
  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (p_ == end_) Fail("unterminated string");
      const char c = *p_++;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) Fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ == end_) Fail("unterminated escape");
      const char e = *p_++;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (end_ - p_ < 4) Fail("truncated \\u escape");
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= h - '0';
            else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
            else Fail("bad hex digit in \\u escape");
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) Fail("surrogate \\u escapes are not supported");
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: Fail("unknown escape");
      }
    }
  }

  /// Non-negative integer ≤ `max`. The schema has no fractional or signed
  /// fields, so anything else (floats, exponents, minus) fails loudly.
  uint64_t ParseUint(uint64_t max, const char* what) {
    SkipWs();
    if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
      Fail(std::string(what) + " must be a non-negative integer");
    }
    uint64_t v = 0;
    while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
      const uint64_t d = static_cast<uint64_t>(*p_ - '0');
      if (v > (std::numeric_limits<uint64_t>::max() - d) / 10) {
        Fail(std::string(what) + " is out of range");
      }
      v = v * 10 + d;
      ++p_;
    }
    if (p_ < end_ && (*p_ == '.' || *p_ == 'e' || *p_ == 'E')) {
      Fail(std::string(what) + " must be an integer");
    }
    if (v > max) Fail(std::string(what) + " is out of range");
    return v;
  }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace

ServeResponse MakeErrorResponse(std::string id, std::string_view code,
                                std::string detail) {
  ServeResponse r;
  r.id = std::move(id);
  r.ok = false;
  r.error = code;
  r.detail = std::move(detail);
  return r;
}

ParsedLine ParseRequestLine(std::string_view line) {
  ParsedLine out;
  Reader r(line);
  if (r.AtEnd()) {
    out.kind = LineKind::kError;
    out.error.clear();  // blank line: caller skips silently
    return out;
  }
  try {
    r.Expect('{');
    bool have_id = false, have_words = false, have_seed = false,
         have_op = false, have_trace = false;
    if (!r.TryConsume('}')) {
      do {
        const std::string key = r.ParseString();
        r.Expect(':');
        if (key == "id") {
          if (have_id) Fail("duplicate \"id\"");
          have_id = true;
          out.request.id = r.ParseString();
          if (out.request.id.empty()) Fail("\"id\" must be a non-empty string");
        } else if (key == "words") {
          if (have_words) Fail("duplicate \"words\"");
          have_words = true;
          r.Expect('[');
          if (!r.TryConsume(']')) {
            do {
              out.request.words.push_back(static_cast<uint32_t>(
                  r.ParseUint(std::numeric_limits<uint32_t>::max() - 1,
                              "\"words\" entry")));
            } while (r.TryConsume(','));
            r.Expect(']');
          }
        } else if (key == "seed") {
          if (have_seed) Fail("duplicate \"seed\"");
          have_seed = true;
          out.request.seed =
              r.ParseUint(std::numeric_limits<uint64_t>::max(), "\"seed\"");
        } else if (key == "trace") {
          if (have_trace) Fail("duplicate \"trace\"");
          have_trace = true;
          out.request.trace = r.ParseString();
          if (out.request.trace.empty()) {
            Fail("\"trace\" must be a non-empty string");
          }
          if (out.request.trace.size() > 128) {
            Fail("\"trace\" is too long (max 128 bytes)");
          }
        } else if (key == "op") {
          if (have_op) Fail("duplicate \"op\"");
          have_op = true;
          out.op = r.ParseString();
        } else {
          Fail("unknown field \"" + key + "\"");
        }
      } while (r.TryConsume(','));
      r.Expect('}');
    }
    if (!r.AtEnd()) Fail("trailing garbage after request object");

    if (have_op) {
      if (have_words || have_seed || have_trace) {
        Fail("control requests take only \"op\" and an optional \"id\"");
      }
      if (out.op != "reload" && out.op != "stats" && out.op != "drain") {
        Fail("unknown op \"" + out.op + "\" (expected reload|stats|drain)");
      }
      out.kind = LineKind::kControl;
      out.id = out.request.id;
      return out;
    }
    if (!have_id) Fail("missing required field \"id\"");
    if (!have_words) Fail("missing required field \"words\"");
    out.kind = LineKind::kInfer;
    return out;
  } catch (const ParseFail& e) {
    out.kind = LineKind::kError;
    out.id = out.request.id;
    out.error = e.msg;
    return out;
  }
}

std::string FormatResponse(const ServeResponse& response) {
  obs::JsonObject obj;
  obj.Add("id", response.id);
  // Echoed identically on every path (daemon, oneshot, errors), so the
  // daemon-vs-oneshot bit-identity diff is unaffected by tracing.
  if (!response.trace.empty()) obj.Add("trace", response.trace);
  obj.Add("ok", response.ok);
  if (!response.ok) {
    obj.Add("error", response.error);
    if (!response.detail.empty()) obj.Add("detail", response.detail);
    return obj.str();
  }
  obj.Add("generation", response.generation)
      .Add("tokens", response.result.tokens);
  std::string topics = "[";
  for (const auto& dt : response.result.mixture) {
    if (topics.size() > 1) topics += ",";
    topics += '[';
    topics += std::to_string(dt.topic);
    topics += ',';
    topics += obs::JsonNumber(dt.proportion);
    topics += ']';
  }
  topics += "]";
  obj.AddRaw("topics", topics);
  std::string assignments = "[";
  for (const uint16_t z : response.result.assignments) {
    if (assignments.size() > 1) assignments += ",";
    assignments += std::to_string(z);
  }
  assignments += "]";
  obj.AddRaw("assignments", assignments);
  return obj.str();
}

std::string FormatControlAck(std::string_view id, std::string_view op,
                             uint64_t generation,
                             std::string_view payload_json) {
  obs::JsonObject obj;
  if (!id.empty()) obj.Add("id", id);
  obj.Add("ok", true).Add("op", op).Add("generation", generation);
  if (!payload_json.empty()) obj.AddRaw("payload", payload_json);
  return obj.str();
}

}  // namespace culda::serve
