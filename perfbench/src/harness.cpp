#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0);
  return static_cast<double>(ns.count()) * 1e-9;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

Quantile quantile(std::vector<double> values, double q) {
  Quantile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  out.value = values[lo] + (values[hi] - values[lo]) * frac;
  return out;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5).value; }

Trace::Trace(bool enabled) : enabled_{enabled}, origin_{Clock::now()} {}

Trace::Scope::~Scope() {
  if (trace_ != nullptr) trace_->close(index_);
}

Trace::Scope Trace::scope(std::string name) {
  if (!enabled_) return Scope{nullptr, -1};
  return Scope{this, open(std::move(name))};
}

int Trace::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start = seconds_since(origin_);
  span.end = span.start;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Trace::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = seconds_since(origin_);
  // Scopes close in reverse order of opening, so `index` is the innermost.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::string Trace::to_json() const {
  std::string out = "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "  {\"name\": \"";
    append_escaped(out, s.name);
    out += "\", \"start\": " + format_number(s.start) + ", \"end\": " + format_number(s.end) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"run\": " +
           std::to_string(s.run) + "}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

double self_time(const std::vector<Span>& spans, std::size_t index) {
  const Span& parent = spans[index];
  // Union of the children's intervals, clipped to the parent: children that
  // overlap (concurrent work) are not subtracted twice.
  std::vector<std::pair<double, double>> covered;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(index)) continue;
    const double a = std::max(s.start, parent.start);
    const double b = std::min(s.end, parent.end);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0;
  double reach = parent.start;
  for (const auto& [a, b] : covered) {
    const double from = std::max(a, reach);
    if (b > from) busy += b - from;
    reach = std::max(reach, b);
  }
  return (parent.end - parent.start) - busy;
}

std::vector<SpanTotal> totals_by_name(const std::vector<Span>& spans) {
  std::vector<SpanTotal> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const SpanTotal& t) { return t.name == spans[i].name; });
    if (it == totals.end()) {
      totals.push_back(SpanTotal{spans[i].name, 0, 0.0, 0.0});
      it = totals.end() - 1;
    }
    ++it->count;
    it->total += spans[i].end - spans[i].start;
    it->self += self_time(spans, i);
  }
  return totals;
}

bool expect_equal(std::string_view what, double actual, double expected) {
  if (actual == expected) return true;
  std::fprintf(stderr, "perfbench: %.*s is %s, expected %s\n", static_cast<int>(what.size()),
               what.data(), format_number(actual).c_str(), format_number(expected).c_str());
  return false;
}

std::string format_number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc{}) return "null";
  return std::string(buf, end);
}

std::string result_json(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) correct = false;
    if (!body.empty()) body += ", ";
    body += "\"";
    append_escaped(body, m.name);
    body += "\": {\"value\": " + (std::isfinite(m.value) ? format_number(m.value) : "null") +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(tally.attempted()) +
         ", \"failed\": " + std::to_string(tally.failed()) + ", \"metrics\": {" + body + "}}";
}

}  // namespace perfbench
