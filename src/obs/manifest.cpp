#include "obs/manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "core/hash.hpp"
#include "obs/export_file.hpp"
#include "obs/json_text.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ecnd::obs {

namespace {

std::string render_int(std::int64_t v) { return std::to_string(v); }
std::string render_uint(std::uint64_t v) { return std::to_string(v); }

std::string render_string(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

/// FNV-1a 64-bit over the default (sim-domain) metrics dump: a compact,
/// deterministic fingerprint of every counter/gauge/histogram the run
/// produced. Two runs with the same digest did the same simulated work.
std::uint64_t metrics_digest() {
  std::ostringstream dump;
  dump_metrics_json(dump);
  return fnv1a64(dump.str());
}

void write_section(std::ostream& out, const char* name,
                   const std::map<std::string, std::string>& entries,
                   bool trailing_comma) {
  out << "  \"" << name << "\": {";
  const char* sep = "";
  for (const auto& [key, rendered] : entries) {
    out << sep << "\n    " << render_string(key) << ": " << rendered;
    sep = ",";
  }
  out << (entries.empty() ? "}" : "\n  }") << (trailing_comma ? ",\n" : "\n");
}

}  // namespace

RunManifest& RunManifest::param(std::string_view name, double v) {
  params_[std::string(name)] = json_double(v);
  return *this;
}
RunManifest& RunManifest::param(std::string_view name, std::int64_t v) {
  params_[std::string(name)] = render_int(v);
  return *this;
}
RunManifest& RunManifest::param(std::string_view name, std::uint64_t v) {
  params_[std::string(name)] = render_uint(v);
  return *this;
}
RunManifest& RunManifest::param(std::string_view name, bool v) {
  params_[std::string(name)] = v ? "true" : "false";
  return *this;
}
RunManifest& RunManifest::param(std::string_view name, std::string_view v) {
  params_[std::string(name)] = render_string(v);
  return *this;
}

RunManifest& RunManifest::observable(std::string_view name, double v) {
  observables_[std::string(name)] = json_double(v);
  return *this;
}
RunManifest& RunManifest::observable(std::string_view name,
                                     std::optional<double> v) {
  observables_[std::string(name)] = v ? json_double(*v) : "null";
  return *this;
}
RunManifest& RunManifest::observable(std::string_view name, std::int64_t v) {
  observables_[std::string(name)] = render_int(v);
  return *this;
}
RunManifest& RunManifest::observable(std::string_view name, std::uint64_t v) {
  observables_[std::string(name)] = render_uint(v);
  return *this;
}
RunManifest& RunManifest::observable(std::string_view name, bool v) {
  observables_[std::string(name)] = v ? "true" : "false";
  return *this;
}

RunManifest& RunManifest::failure(std::string_view cell,
                                  std::string_view component,
                                  std::string_view variable, double sim_time,
                                  double value, std::string_view detail,
                                  int attempts) {
  std::string obj = "{\"cell\": " + render_string(cell);
  obj += ", \"component\": " + render_string(component);
  obj += ", \"variable\": " + render_string(variable);
  obj += ", \"sim_time\": " + json_double(sim_time);
  obj += ", \"value\": " + json_double(value);
  obj += ", \"attempts\": " + render_int(attempts);
  obj += ", \"detail\": " + render_string(detail);
  obj += "}";
  failures_.push_back(std::move(obj));
  return *this;
}

void RunManifest::write(std::ostream& out) const {
  out << "{\n  \"schema\": \"" << kManifestSchema << "\",\n";
  out << "  \"tool\": " << render_string(tool_) << ",\n";
  write_section(out, "params", params_, /*trailing_comma=*/true);
  write_section(out, "observables", observables_, /*trailing_comma=*/true);

  if (!failures_.empty()) {
    // Quarantined sweep cells, in grid order — present only on faulted runs
    // so healthy manifests stay byte-identical across builds.
    out << "  \"failures\": [";
    const char* sep = "";
    for (const std::string& f : failures_) {
      out << sep << "\n    " << f;
      sep = ",";
    }
    out << "\n  ],\n";
  }

  if (trace_enabled()) {
    // Trace completeness: per-task ring-overflow counts, so a truncated
    // trace is visible right in the manifest instead of only deep in the
    // metrics dump. Emitted only when tracing is armed — untraced manifests
    // stay byte-identical to older ones.
    out << "  \"trace\": {\n    \"dropped_total\": " << trace_dropped_total()
        << ",\n    \"dropped_by_task\": {";
    const char* sep = "";
    for (const auto& [task, dropped] : trace_dropped_by_task()) {
      out << sep << "\n      \"" << task << "\": " << dropped;
      sep = ",";
    }
    out << (*sep == '\0' ? "}" : "\n    }") << "\n  },\n";
  }

  char digest[32];
  std::snprintf(digest, sizeof(digest), "fnv1a:%016llx",
                static_cast<unsigned long long>(metrics_digest()));
  const bool env = std::getenv("ECND_MANIFEST_ENV") != nullptr;
  out << "  \"metrics_digest\": \"" << digest << "\"" << (env ? ",\n" : "\n");

  if (env) {
    // Opt-in machine descriptor: these values vary across hosts and knob
    // settings, so they are excluded from the byte-stable default form.
    const char* threads = std::getenv("ECND_THREADS");
    out << "  \"environment\": {\n"
        << "    \"ecnd_threads\": "
        << (threads != nullptr ? render_string(threads) : "null") << ",\n"
        << "    \"hw_threads\": " << std::thread::hardware_concurrency()
        << "\n  }\n";
  }
  out << "}\n";
}

std::string RunManifest::to_json() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

const char* RunManifest::env_path() { return std::getenv("ECND_MANIFEST"); }

bool RunManifest::write_if_requested() const {
  const char* path = env_path();
  if (path == nullptr) return false;
  return write_export_file("ECND_MANIFEST", path,
                           [this](std::ostream& out) { write(out); });
}

}  // namespace ecnd::obs
