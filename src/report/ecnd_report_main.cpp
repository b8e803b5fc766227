// ecnd-report: aggregate run manifests into a Markdown regression report
// gated on bench/expectations.json.
//
// Usage:
//   ecnd-report --expectations bench/expectations.json
//               --manifest-dir build/manifests
//               [--manifest path.json ...]
//               [--out report.md]
//
// Exit status: 0 all expectations pass (warnings allowed), 1 any FAIL,
// 2 usage / I/O / parse error, including a --manifest-dir that is not a
// directory.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "report/report.hpp"

using ecnd::report::Json;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --expectations FILE [--manifest-dir DIR] [--manifest FILE]...\n"
               "       [--out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string expectations_path;
  std::string manifest_dir;
  std::vector<std::string> manifest_paths;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "ecnd-report: " << arg << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--expectations") {
      expectations_path = next();
    } else if (arg == "--manifest-dir") {
      manifest_dir = next();
    } else if (arg == "--manifest") {
      manifest_paths.push_back(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "-h" || arg == "--help") {
      return usage(argv[0]);
    } else {
      std::cerr << "ecnd-report: unknown argument " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (expectations_path.empty()) {
    std::cerr << "ecnd-report: --expectations is required\n";
    return usage(argv[0]);
  }

  try {
    const Json expectations = Json::parse_file(expectations_path);
    const auto schema = expectations.get_string("schema");
    if (!schema || *schema != "ecnd-expectations-v1") {
      std::cerr << "ecnd-report: " << expectations_path
                << ": expected schema ecnd-expectations-v1\n";
      return 2;
    }

    // Enumerate manifests: explicit --manifest paths plus every *.json in
    // --manifest-dir, in sorted order so the report is deterministic.
    if (!manifest_dir.empty()) {
      const std::vector<std::string> found =
          ecnd::report::list_manifest_dir(manifest_dir);
      manifest_paths.insert(manifest_paths.end(), found.begin(), found.end());
    }

    std::vector<Json> manifests;
    int skipped = 0;
    for (const std::string& path : manifest_paths) {
      Json m = Json::parse_file(path);
      const auto mschema = m.get_string("schema");
      if (!mschema || *mschema != "ecnd-manifest-v1") {
        ++skipped;  // unrelated JSON in the directory — not an error
        continue;
      }
      manifests.push_back(std::move(m));
    }

    const ecnd::report::Report report =
        ecnd::report::evaluate(expectations, manifests);

    std::ostringstream meta;
    meta << "expectations: " << expectations_path << " · manifests: "
         << manifests.size();
    if (skipped > 0) meta << " (" << skipped << " non-manifest JSON skipped)";

    if (out_path.empty()) {
      ecnd::report::write_markdown(report, meta.str(), std::cout);
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "ecnd-report: cannot write " << out_path << "\n";
        return 2;
      }
      ecnd::report::write_markdown(report, meta.str(), out);
      std::cerr << "ecnd-report: wrote " << out_path << " ("
                << report.count(ecnd::report::Status::kPass) << " pass, "
                << report.count(ecnd::report::Status::kWarn) << " warn, "
                << report.count(ecnd::report::Status::kFail) << " fail)\n";
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ecnd-report: " << e.what() << "\n";
    return 2;
  }
}
