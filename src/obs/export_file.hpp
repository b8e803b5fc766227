#pragma once
// The one way obs writes an export file (metrics, trace, flight, metrics_ts,
// folded profile, manifest): open the path, let the exporter write, and say
// on stderr when the file could not be opened or the stream went bad while
// writing. An armed export knob never fails silently.

#include <cstdio>
#include <fstream>
#include <string>

namespace ecnd::obs {

/// Writes `path` through `write(std::ostream&)`. `knob` names the env var
/// that armed the export, for the message: "[obs] cannot open <knob> path
/// <path>" or "[obs] write to <knob> path <path> failed". Returns whether
/// the whole file reached the OS.
template <class Writer>
bool write_export_file(const char* knob, const std::string& path,
                       Writer&& write) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[obs] cannot open %s path %s\n", knob, path.c_str());
    return false;
  }
  write(out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "[obs] write to %s path %s failed\n", knob,
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace ecnd::obs
