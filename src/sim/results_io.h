// Campaign-result serialization: a flat TSV so repeated figure runs can
// reuse one campaign instead of re-simulating 32 (benchmark x policy)
// cells. Human-readable on purpose — the file doubles as the raw-data
// artifact of an experiment run.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/campaign.h"

namespace rlftnoc {

/// Writes one row per (benchmark, policy) cell with every SimResult scalar
/// (the same row printer PrintTo labels).
void write_results(std::ostream& out, const CampaignResults& results);
void write_results_file(const std::string& path, const CampaignResults& results);

/// Parses results written by write_results. Throws std::runtime_error on a
/// malformed file or column mismatch (e.g. written by an older build).
CampaignResults read_results(std::istream& in);
CampaignResults read_results_file(const std::string& path);

}  // namespace rlftnoc
