#include "check/vectors.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/number.hpp"

namespace mgap::check {

namespace {

using sim::trim;

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

const std::string& Vector::str(const std::string& key) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) {
    throw std::runtime_error{"vector '" + name_ + "': missing field '" + key + "'"};
  }
  return it->second;
}

std::uint64_t Vector::u64(const std::string& key) const {
  const std::string& text = str(key);
  std::string_view s = text;
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
    base = 16;
  }
  std::uint64_t v{};
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v, base);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size()) {
    throw std::runtime_error{"vector '" + name_ + "': field '" + key +
                             "' is not an integer: " + text};
  }
  return v;
}

std::vector<std::uint8_t> Vector::bytes(const std::string& key) const {
  const std::string& text = str(key);
  if (text == "-") return {};
  if (text.size() % 2 != 0) {
    throw std::runtime_error{"vector '" + name_ + "': field '" + key +
                             "' has odd hex length"};
  }
  std::vector<std::uint8_t> out;
  out.reserve(text.size() / 2);
  for (std::size_t i = 0; i < text.size(); i += 2) {
    const int hi = hex_digit(text[i]);
    const int lo = hex_digit(text[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::runtime_error{"vector '" + name_ + "': field '" + key +
                               "' is not hex: " + text};
    }
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

std::vector<Vector> parse_vectors(const std::string& text) {
  std::vector<Vector> out;
  std::string current_name;
  std::map<std::string, std::string> current_fields;
  bool in_vector = false;

  const auto flush = [&] {
    if (in_vector) out.emplace_back(std::move(current_name), std::move(current_fields));
    current_fields.clear();
  };

  std::size_t line_no = 0;
  for (std::string_view line : sim::split(text, '\n')) {
    ++line_no;
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw std::runtime_error{"vectors line " + std::to_string(line_no) +
                                 ": malformed [name]"};
      }
      flush();
      current_name = std::string{trim(line.substr(1, line.size() - 2))};
      in_vector = true;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string_view::npos || !in_vector) {
      throw std::runtime_error{"vectors line " + std::to_string(line_no) +
                               ": expected [name] or key = value"};
    }
    current_fields[std::string{trim(line.substr(0, eq))}] =
        std::string{trim(line.substr(eq + 1))};
  }
  flush();
  return out;
}

std::vector<Vector> load_vectors(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"vectors: cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_vectors(buf.str());
}

}  // namespace mgap::check
