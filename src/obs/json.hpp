// Minimal JSON reader for the repo's own canonical emissions.
//
// Everything this codebase writes as JSON -- cache entries
// (engine/run_spec.hpp), metrics snapshots, trace lines, the RunSpec wire
// codec and the swapgamed protocol (docs/SERVICE.md) -- comes from the two
// deterministic writers in trace.hpp (format_json_number /
// append_json_escaped).  This header is the matching single READER: one
// grammar, one error surface, shared by the result-cache parser, the spec
// codec, MetricsRegistry::parse_snapshot and both ends of the service
// protocol, so there is no second ad-hoc parser to drift.
//
// Scope: standard JSON values (object, array, string, number, true/false/
// null) with two repo conventions layered on top by callers, not here:
//   * non-finite doubles travel as the strings "nan"/"inf"/"-inf"
//     (format_json_number); number_or_marker() decodes both shapes;
//   * 64-bit counters are written as bare integer literals; Value keeps
//     the raw literal text so as_u64() round-trips above 2^53 exactly.
// Object key order is preserved (the writers emit fixed orders and the
// byte-diff gates depend on it); duplicate keys are a parse error.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "status.hpp"

namespace swapgame::obs::json {

class Value;

/// Object members in emission order (the writers' fixed layouts are
/// semantic here -- see file comment).
using Member = std::pair<std::string, Value>;

/// One parsed JSON value.  A plain tagged value type: cheap to move,
/// inspected through the is_/as_ accessors below.  as_* on the wrong kind
/// throws std::logic_error -- callers are expected to check kind first (or
/// use the Status-returning helpers at the bottom of this header).
class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Value() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind_ == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The raw number literal as written (e.g. "18446744073709551615");
  /// empty for non-numbers.
  [[nodiscard]] const std::string& raw_number() const;
  /// Exact unsigned decode of the raw literal; throws std::logic_error on
  /// non-numbers and negative/fractional/overflowing literals.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  [[nodiscard]] const std::vector<Member>& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;

  // Builders (used by the parser; handy in tests).
  [[nodiscard]] static Value null();
  [[nodiscard]] static Value boolean(bool b);
  [[nodiscard]] static Value number(double num, std::string raw);
  [[nodiscard]] static Value string(std::string s);
  [[nodiscard]] static Value array(std::vector<Value> items);
  [[nodiscard]] static Value object(std::vector<Member> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string raw_;  ///< number literal text, or the string payload
  std::vector<Value> items_;
  std::vector<Member> members_;
};

/// Parses exactly one JSON value spanning the whole input (trailing
/// whitespace allowed, trailing content is an error).  Errors name the
/// byte offset and what was expected -- they end up verbatim in
/// Status::message() at API boundaries, so they are written for humans.
[[nodiscard]] Status parse(std::string_view text, Value& out);

/// Decodes a double that may be either a JSON number or one of the quoted
/// non-finite markers "nan"/"inf"/"-inf" (the format_json_number
/// convention).  Returns false for any other shape.
[[nodiscard]] bool number_or_marker(const Value& value, double* out) noexcept;

/// Serializes a double the way every writer in this repo does.  Alias for
/// obs::format_json_number, re-exported here so codec code reads
/// symmetrically (json::parse in, json::format_number out).
[[nodiscard]] std::string format_number(double x);

}  // namespace swapgame::obs::json
