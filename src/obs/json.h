// Shared JSON emission primitives for every measurement surface in the
// tree (fleet reports, bench JSON, Chrome traces, trace_inspect --json).
//
// These two helpers used to live as private copies in fleet_report and
// each tool; they are hoisted here so every serializer renders a double
// and escapes a string byte-identically. That byte identity is
// load-bearing: the deterministic fleet/suite --out documents promise
// byte equality across thread counts, and fixed-decimal
// formatting over bit-identical inputs is what makes that promise
// keepable.
#pragma once

#include <string>

namespace roborun::obs {

/// Fixed-decimal double formatting. JSON has no NaN/Inf, so non-finite
/// (or absurdly huge) values render as `null` — visible to any consumer,
/// never silently masked as a fabricated 0.
std::string jsonNumber(double v, int decimals = 6);

/// JSON string escaping for user-controlled text (scenario names, catalog
/// paths, exception messages): quotes, backslashes and control characters
/// must never corrupt the document.
std::string jsonEscape(const std::string& s);

}  // namespace roborun::obs
