// The strict reader behind both JSONL codecs: explorer snapshots
// (checkpoint.cpp) and exported traces (trace_jsonl.cpp). Both write flat
// JSON objects of `"key":value` fields, one per line and without
// whitespace, and read them back by key. Numbers are strict: digits only,
// in range for their field, and followed by the end of the value; a sign
// is read only where a value can be negative (value arrays). Every error
// names the public function that read the line and quotes the line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "subc/runtime/history.hpp"

namespace subc::json_line {

/// Appends `s` to `out`, escaped for a JSON string (`Line::text` undoes it).
void append_escaped(std::string& out, std::string_view s);

/// Reads the unsigned decimal at `p` and moves `p` past it: one or more
/// digits, no sign, at most `max`. Anything else throws `SimError`, naming
/// `who` and quoting `text`.
std::uint64_t read_unsigned(const char*& p, std::uint64_t max, const char* who,
                            const std::string& text);

/// One line as `who` (the public function reading it) parses it.
class Line {
 public:
  Line(const std::string& text, const char* who) : text_(text), who_(who) {}

  /// True when the line has field `key`.
  [[nodiscard]] bool has(std::string_view key) const;
  /// True when field `key` reads `true`, false when it reads `false` or is
  /// absent.
  [[nodiscard]] bool flag(std::string_view key) const;
  /// The unsigned integer field `key`, at most `max`. An absent field
  /// throws, or reads as 0 when `optional`.
  [[nodiscard]] std::uint64_t number(std::string_view key, std::uint64_t max,
                                     bool optional = false) const;
  /// The string field `key`, unescaped.
  [[nodiscard]] std::string text(std::string_view key) const;
  /// The integer array field `key`: signed values, at most
  /// `ValueTuple::kCapacity` of them.
  [[nodiscard]] ValueTuple values(std::string_view key) const;
  /// Throws `SimError` "<who>: <what> in: <line>".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  /// Just past `"key":`, or nullptr when the line has no such field.
  [[nodiscard]] const char* find(std::string_view key) const;
  /// As `find`, throwing when the field is absent.
  [[nodiscard]] const char* require(std::string_view key) const;

  const std::string& text_;
  const char* who_;
};

}  // namespace subc::json_line
