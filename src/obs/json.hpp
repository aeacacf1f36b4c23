// Minimal JSON emission helpers for the observability layer.
//
// Everything obs writes — metrics snapshots, JSONL lines, Chrome trace
// events, profile dumps — is flat-ish JSON built from numbers and short
// strings; a tiny append-only builder avoids a dependency and keeps the
// formatting rules (locale-independent round-trippable doubles, escaped
// strings) in one place.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace culda::obs {

/// `"` / `\` / control characters escaped per RFC 8259. Metric and span
/// names are plain ASCII in practice; this keeps hostile or accidental
/// input from corrupting the output framing.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trippable decimal ("%.17g" is exact for IEEE doubles but
/// ugly; try increasing precision until the value survives a parse). JSON
/// has no inf/nan, so non-finite values become null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Append-only `{...}` builder. Values added in call order; keys are not
/// checked for uniqueness (callers control them).
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, double v) {
    return AddRaw(key, JsonNumber(v));
  }
  JsonObject& Add(std::string_view key, uint64_t v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(std::string_view key, int64_t v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(std::string_view key, int v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonObject& Add(std::string_view key, bool v) {
    return AddRaw(key, v ? "true" : "false");
  }
  JsonObject& Add(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    quoted += JsonEscape(v);
    quoted += '"';
    return AddRaw(key, quoted);
  }
  JsonObject& Add(std::string_view key, const char* v) {
    return Add(key, std::string_view(v));
  }
  /// `raw` must already be valid JSON (nested objects, arrays).
  JsonObject& AddRaw(std::string_view key, std::string_view raw) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += JsonEscape(key);
    body_ += "\":";
    body_ += raw;
    return *this;
  }

  /// Appends every key of `other` at this object's top level.
  JsonObject& Extend(const JsonObject& other) {
    if (other.body_.empty()) return *this;
    if (!body_.empty()) body_ += ",";
    body_ += other.body_;
    return *this;
  }

  bool empty() const { return body_.empty(); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace culda::obs
