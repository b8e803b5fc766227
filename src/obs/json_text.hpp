#pragma once
// The two JSON text primitives every exporter shares: string escaping and
// double rendering. Exports (metrics, manifests, snapshots, traces, flight
// postcards) hand-assemble their documents, so these are the only places
// where a value's JSON spelling is decided.

#include <string>
#include <string_view>

namespace ecnd::obs {

/// `s` escaped for use between JSON double quotes (quotes not included):
/// `"` and `\` get a backslash, \n \t \r their short escapes, and every
/// other control byte a \u00XX escape. Everything else passes through.
std::string json_escape(std::string_view s);

/// Shortest-round-trip decimal spelling of `v` (std::to_chars: locale-free,
/// identical on every platform with IEEE doubles). NaN and infinities have
/// no JSON spelling and render as null.
std::string json_double(double v);

}  // namespace ecnd::obs
