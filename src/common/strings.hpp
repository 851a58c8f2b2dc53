// String helpers shared across the parsers (IDS rule language, HTTP, SMTP,
// DNS names) and report writers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sm::common {

/// Splits on a single character; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on runs of whitespace; drops empty fields.
std::vector<std::string_view> split_whitespace(std::string_view s);

std::string_view trim(std::string_view s);

std::string to_lower(std::string_view s);

bool iequals(std::string_view a, std::string_view b);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Case-insensitive substring search; npos-style return.
size_t ifind(std::string_view haystack, std::string_view needle);
bool icontains(std::string_view haystack, std::string_view needle);

std::optional<long> parse_int(std::string_view s);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Appends `s` escaped for use inside JSON string quotes (RFC 8259):
/// quote, backslash and every control byte below 0x20 are escaped; all
/// other bytes, multibyte UTF-8 included, pass through. The one JSON
/// string escaper: every JSON writer in the tree goes through it.
void append_json_escaped(std::string& out, std::string_view s);
/// The same escape written to `out`, which must have room for
/// 6 * s.size() chars (a control byte becomes \u00XX); returns the end.
char* write_json_escaped(char* out, std::string_view s);
/// append_json_escaped() into a fresh string.
std::string json_escape(std::string_view s);

}  // namespace sm::common
