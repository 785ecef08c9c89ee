#include "jfm/support/strings.hpp"

#include <cctype>

namespace jfm::support {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

bool LineTokenizer::next() {
  if (pos_ >= text_.size()) return false;
  std::size_t eol = text_.find('\n', pos_);
  if (eol == std::string_view::npos) eol = text_.size();
  std::string_view line = text_.substr(pos_, eol - pos_);
  while (!line.empty() && is_ascii_space(line.front())) line.remove_prefix(1);
  while (!line.empty() && is_ascii_space(line.back())) line.remove_suffix(1);
  line_ = line;
  pos_ = eol + 1;
  count_ = 0;
  std::size_t i = 0;
  while (i < line_.size()) {
    while (i < line_.size() && is_ascii_space(line_[i])) ++i;
    const std::size_t start = i;
    while (i < line_.size() && !is_ascii_space(line_[i])) ++i;
    if (i > start) {
      if (count_ < kMaxFields) fields_[count_] = line_.substr(start, i - start);
      ++count_;
    }
  }
  return true;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

bool is_identifier(std::string_view name) {
  if (name.empty()) return false;
  const unsigned char first = static_cast<unsigned char>(name[0]);
  if (!std::isalpha(first) && first != '_') return false;
  for (char c : name.substr(1)) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && u != '_' && u != '.' && u != '-') return false;
  }
  return true;
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out.push_back(text[i]);
      continue;
    }
    ++i;
    switch (text[i]) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case '\\': out.push_back('\\'); break;
      default: out.push_back(text[i]);
    }
  }
  return out;
}

}  // namespace jfm::support
