#pragma once
// RunManifest: a self-describing, machine-checkable summary of one harness
// run — the scenario parameters, seeds, derived observables (computed with
// obs/analyzers.hpp) and a digest of the metrics registry — written as JSON
// with deterministic key order and deterministic number formatting.
//
// Contract (enforced by scripts/check.sh --report and the determinism
// suite):
//   * A manifest is bit-identical at any ECND_THREADS, like the PR-3 metric
//     and trace exports: observables come from deterministic sweep results,
//     keys are sorted, and doubles render via shortest-round-trip to_chars.
//     Environment facts that legitimately vary across runs (worker count,
//     hardware threads) are therefore NOT in the default output; set
//     ECND_MANIFEST_ENV=1 to append an "environment" section when you want a
//     machine descriptor more than byte-stable files.
//   * Nothing here touches stdout. The manifest goes only to the
//     ECND_MANIFEST=<path> file; a harness's CSV is byte-identical with the
//     manifest armed or idle.
//
// Usage, at the end of a harness main():
//
//   obs::RunManifest m("bench_fig02");
//   m.param("flows", 2).param("duration_s", 0.06).param("seed", seed);
//   m.observable("queue_mean_kb.fluid.n2", fluid_kb);
//   m.observable("settle_s.n2", settle.settled
//                ? std::optional<double>(settle.settle_t) : std::nullopt);
//   m.write_if_requested();   // no-op unless ECND_MANIFEST is set
//
// The regression reporter (src/report, `ecnd-report`) aggregates these files
// and gates them against bench/expectations.json.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ecnd::obs {

inline constexpr std::string_view kManifestSchema = "ecnd-manifest-v1";

class RunManifest {
 public:
  /// `tool` names the harness (e.g. "bench_fig02") and is the join key the
  /// reporter uses against bench/expectations.json.
  explicit RunManifest(std::string tool) : tool_(std::move(tool)) {}

  // Scenario parameters (knobs the run was configured with). Chainable.
  RunManifest& param(std::string_view name, double v);
  RunManifest& param(std::string_view name, std::int64_t v);
  RunManifest& param(std::string_view name, int v) {
    return param(name, static_cast<std::int64_t>(v));
  }
  RunManifest& param(std::string_view name, std::uint64_t v);
  RunManifest& param(std::string_view name, bool v);
  RunManifest& param(std::string_view name, std::string_view v);
  RunManifest& param(std::string_view name, const char* v) {
    return param(name, std::string_view(v));
  }

  // Derived observables. NaN/inf and nullopt render as JSON null — an
  // undefined observable is recorded as undefined, never as a fake number.
  RunManifest& observable(std::string_view name, double v);
  RunManifest& observable(std::string_view name, std::optional<double> v);
  RunManifest& observable(std::string_view name, std::int64_t v);
  RunManifest& observable(std::string_view name, std::uint64_t v);
  RunManifest& observable(std::string_view name, bool v);

  /// Record one quarantined sweep cell. Takes plain fields rather than a
  /// core Diagnostic (ecnd_obs sits below ecnd_core in the link order); the
  /// bench harnesses copy the fields over from the IsolationReport. The
  /// "failures" section is emitted only when at least one failure was
  /// recorded, so healthy manifests are byte-identical to older ones.
  RunManifest& failure(std::string_view cell, std::string_view component,
                       std::string_view variable, double sim_time,
                       double value, std::string_view detail, int attempts);

  /// Render the manifest JSON (sorted keys; trailing newline). Computes the
  /// metrics-registry digest at call time, so call it after the runs.
  void write(std::ostream& out) const;
  std::string to_json() const;

  /// Write to the ECND_MANIFEST path if the env knob is set. Returns true
  /// only when a file was written. Never touches stdout.
  bool write_if_requested() const;

  /// The ECND_MANIFEST path, or nullptr when unset.
  static const char* env_path();

 private:
  std::string tool_;
  std::map<std::string, std::string> params_;       // name -> rendered JSON
  std::map<std::string, std::string> observables_;  // name -> rendered JSON
  std::vector<std::string> failures_;               // rendered JSON objects
};

}  // namespace ecnd::obs
