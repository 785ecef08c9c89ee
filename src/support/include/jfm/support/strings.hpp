#pragma once
// Small string utilities shared by the file formats (.meta files, OMS
// export, schematic/layout serializations) and the extension language.

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace jfm::support {

/// Split on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Split on any whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view text);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Is `name` a legal framework identifier ([a-zA-Z_][a-zA-Z0-9_.-]*)?
/// Both frameworks restrict object names; the mapper relies on this.
bool is_identifier(std::string_view name);

/// Parse all of `text` as a base-10 integer of type `Int`. Returns
/// false (leaving `out` untouched) on an empty field, trailing junk, a
/// sign the type cannot hold, or overflow. Never throws, so file-format
/// parsers can apply it to untrusted fields.
template <typename Int>
bool parse_integer(std::string_view text, Int& out) {
  const char* end = text.data() + text.size();
  auto [p, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && p == end;
}

/// Parse all of `text` as a decimal floating-point number (the general
/// format the persistence writers emit, "inf" and "nan" included).
/// Like parse_integer, false on an empty field, trailing junk or a value
/// outside double's range; never throws.
inline bool parse_real(std::string_view text, double& out) {
  const char* end = text.data() + text.size();
  auto [p, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && p == end;
}

/// Escape/unescape for the line-oriented .meta and OMS export formats:
/// '\\' -> "\\\\", '\n' -> "\\n", '\t' -> "\\t".
std::string escape(std::string_view text);
std::string unescape(std::string_view text);

}  // namespace jfm::support
