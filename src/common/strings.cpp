#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace sm::common {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> split_whitespace(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

size_t ifind(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return 0;
  if (needle.size() > haystack.size()) return std::string_view::npos;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < needle.size(); ++j) {
      if (std::tolower(static_cast<unsigned char>(haystack[i + j])) !=
          std::tolower(static_cast<unsigned char>(needle[j]))) {
        match = false;
        break;
      }
    }
    if (match) return i;
  }
  return std::string_view::npos;
}

bool icontains(std::string_view haystack, std::string_view needle) {
  return ifind(haystack, needle) != std::string_view::npos;
}

std::optional<long> parse_int(std::string_view s) {
  s = trim(s);
  long value = 0;
  auto [next, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || next != s.data() + s.size() || s.empty())
    return std::nullopt;
  return value;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

namespace {

/// The bytes RFC 8259 requires escaped inside a string.
bool json_special(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

/// The escape of byte `c` (written to `buf` when it needs one), or an
/// empty view when `c` passes through unchanged.
std::string_view json_escape_of(unsigned char c, char (&buf)[6]) {
  if (!json_special(c)) return {};
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\b': return "\\b";
    case '\f': return "\\f";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: {
      static constexpr char kHex[] = "0123456789abcdef";
      buf[0] = '\\';
      buf[1] = 'u';
      buf[2] = '0';
      buf[3] = '0';
      buf[4] = kHex[c >> 4];
      buf[5] = kHex[c & 0xf];
      return {buf, 6};
    }
  }
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  size_t run = 0;  // start of the pending span of bytes that pass through
  char buf[6];
  for (size_t i = 0; i < s.size(); ++i) {
    const std::string_view esc =
        json_escape_of(static_cast<unsigned char>(s[i]), buf);
    if (esc.empty()) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    out += esc;
  }
  out.append(s.data() + run, s.size() - run);
}

char* write_json_escaped(char* out, std::string_view s) {
  char buf[6];
  for (char c : s) {
    const std::string_view esc =
        json_escape_of(static_cast<unsigned char>(c), buf);
    if (esc.empty()) {
      *out++ = c;
    } else {
      out = std::copy(esc.begin(), esc.end(), out);
    }
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_json_escaped(out, s);
  return out;
}

}  // namespace sm::common
