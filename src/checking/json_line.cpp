#include "json_line.hpp"

#include <cstdio>
#include <cstring>
#include <span>

#include "subc/runtime/value.hpp"

namespace subc::json_line {
namespace {

/// Reads the decimal digits at `p` into `out` and moves `p` past them.
/// False when there is no digit or the value exceeds `max`.
bool read_digits(const char*& p, std::uint64_t max, std::uint64_t& out) {
  const char* const start = p;
  std::uint64_t v = 0;
  for (; *p >= '0' && *p <= '9'; ++p) {
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (v > (max - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  out = v;
  return p != start;
}

/// True where a field's value must end.
bool value_end(char c) { return c == ',' || c == '}'; }

std::string quoted(std::string_view key) {
  return std::string("\"").append(key) + '"';
}

}  // namespace

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::uint64_t read_unsigned(const char*& p, std::uint64_t max, const char* who,
                            const std::string& text) {
  std::uint64_t v = 0;
  if (!read_digits(p, max, v)) {
    throw SimError(std::string(who) +
                   ": expected an unsigned integer of at most " +
                   std::to_string(max) + " in: " + text);
  }
  return v;
}

const char* Line::find(std::string_view key) const {
  for (std::size_t at = text_.find(key); at != std::string::npos;
       at = text_.find(key, at + 1)) {
    if (at > 0 && text_[at - 1] == '"' &&
        text_.compare(at + key.size(), 2, "\":") == 0) {
      return text_.c_str() + at + key.size() + 2;
    }
  }
  return nullptr;
}

const char* Line::require(std::string_view key) const {
  const char* p = find(key);
  if (p == nullptr) {
    fail("missing field " + quoted(key));
  }
  return p;
}

void Line::fail(const std::string& what) const {
  throw SimError(std::string(who_) + ": " + what + " in: " + text_);
}

bool Line::has(std::string_view key) const { return find(key) != nullptr; }

bool Line::flag(std::string_view key) const {
  const char* p = find(key);
  if (p == nullptr) {
    return false;
  }
  if (std::strncmp(p, "true", 4) == 0 && value_end(p[4])) {
    return true;
  }
  if (std::strncmp(p, "false", 5) != 0 || !value_end(p[5])) {
    fail("expected true or false for " + quoted(key));
  }
  return false;
}

std::uint64_t Line::number(std::string_view key, std::uint64_t max,
                           bool optional) const {
  const char* p = optional ? find(key) : require(key);
  if (p == nullptr) {
    return 0;
  }
  std::uint64_t v = 0;
  if (!read_digits(p, max, v) || !value_end(*p)) {
    fail("expected an unsigned integer of at most " + std::to_string(max) +
         " for " + quoted(key));
  }
  return v;
}

std::string Line::text(std::string_view key) const {
  const char* p = require(key);
  if (*p != '"') {
    fail("expected a string for " + quoted(key));
  }
  std::string out;
  for (++p; *p != '\0'; ++p) {
    if (*p == '"') {
      return out;
    }
    if (*p != '\\') {
      out += *p;
      continue;
    }
    switch (*++p) {
      case '\0':
        fail("unterminated string");
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = *++p;
          const int digit = h >= '0' && h <= '9'   ? h - '0'
                            : h >= 'a' && h <= 'f' ? h - 'a' + 10
                            : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                                   : -1;
          if (digit < 0) {
            fail("bad \\u escape in " + quoted(key));
          }
          code = code * 16 + static_cast<unsigned>(digit);
        }
        out += static_cast<char>(code);
        break;
      }
      default:
        out += *p;  // \" and \\ (and anything else, verbatim)
    }
  }
  fail("unterminated string");
}

ValueTuple Line::values(std::string_view key) const {
  const char* p = require(key);
  Value values[ValueTuple::kCapacity] = {};
  std::size_t n = 0;
  const auto bad = [this] { fail("bad value array"); };
  if (*p++ != '[') {
    bad();
  }
  while (*p != ']') {
    if (n > 0 && *p++ != ',') {
      bad();
    }
    if (n == ValueTuple::kCapacity) {
      fail("more than " + std::to_string(ValueTuple::kCapacity) +
           " values in " + quoted(key));
    }
    // Any int64 value, down to INT64_MIN (how ⊥ travels).
    const bool negative = *p == '-';
    p += negative ? 1 : 0;
    std::uint64_t magnitude = 0;
    if (!read_digits(p, negative ? std::uint64_t{1} << 63 : INT64_MAX,
                     magnitude)) {
      bad();
    }
    values[n++] = static_cast<Value>(negative ? 0 - magnitude : magnitude);
  }
  if (!value_end(*++p)) {
    bad();
  }
  return ValueTuple(std::span<const Value>(values, n));
}

}  // namespace subc::json_line
