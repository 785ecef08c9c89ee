#pragma once
// Small string utilities shared by the file formats (.meta files, OMS
// export, schematic/layout serializations) and the extension language.

#include <array>
#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace jfm::support {

/// Split on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Split on any whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view text);

/// The field separators of the line-oriented file formats: the six
/// ASCII space characters (std::isspace in the C locale), whatever
/// locale the process runs in.
constexpr bool is_ascii_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Allocation-free reader for the line-oriented file formats (the
/// design-file envelope and the schematic, layout and testbench
/// payloads). Walks `text` one '\n'-separated line at a time, trims the
/// line, and splits it into whitespace-separated fields -- the same
/// lines and fields split(text, '\n') + trim + split_ws give in the C
/// locale, except that no line is reported after a final '\n'.
/// Whitespace is is_ascii_space. Lines and fields are views into
/// `text`, which must outlive the tokenizer.
class LineTokenizer {
 public:
  /// Fields kept per line; size() still counts every field, so a
  /// record grammar can reject over-long lines.
  static constexpr std::size_t kMaxFields = 8;

  explicit LineTokenizer(std::string_view text) : text_(text) {}

  /// Advance to the next line; false once the text is exhausted.
  bool next();
  /// The current line, trimmed.
  std::string_view line() const noexcept { return line_; }
  /// Number of fields on the current line.
  std::size_t size() const noexcept { return count_; }
  /// Field `i` of the current line; requires i < min(size(), kMaxFields).
  std::string_view operator[](std::size_t i) const noexcept { return fields_[i]; }
  /// The text after the current line.
  std::string_view rest() const noexcept {
    return pos_ < text_.size() ? text_.substr(pos_) : std::string_view();
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string_view line_;
  std::array<std::string_view, kMaxFields> fields_{};
  std::size_t count_ = 0;
};

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
  Int value{};
  auto [p, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || p != end) return false;
  out = value;
  return true;
}

/// Parse all of `text` as a decimal floating-point number (the general
/// format the persistence writers emit, "inf" and "nan" included).
/// Like parse_integer, false (leaving `out` untouched) on an empty
/// field, trailing junk or a value outside double's range; never throws.
inline bool parse_real(std::string_view text, double& out) {
  const char* end = text.data() + text.size();
  double value = 0;
  auto [p, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || p != end) return false;
  out = value;
  return true;
}

/// Escape/unescape for the line-oriented .meta and OMS export formats:
/// '\\' -> "\\\\", '\n' -> "\\n", '\t' -> "\\t".
std::string escape(std::string_view text);
std::string unescape(std::string_view text);

}  // namespace jfm::support
