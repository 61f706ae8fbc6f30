#include "runtime/trace.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/json.h"
#include "runtime/parse_number.h"

namespace roborun::runtime {

namespace {

constexpr const char* kMagic = "# roborun-trace v1";

const std::array<const char*, 29> kColumns = {
    "t",          "x",         "y",          "z",           "zone",
    "velocity",   "cmd_vel",   "visibility", "free_horizon", "deadline",
    "lat_runtime", "lat_pc",   "lat_octomap", "lat_bridge",  "lat_planning",
    "lat_smoothing", "comm_pc", "comm_map",  "comm_traj",   "p0",
    "v0",         "p1",        "v1",         "p2",          "v2",
    "replanned",  "plan_failed", "budget_met", "cpu_util",
};

env::Zone zoneFromIndex(int i) {
  switch (i) {
    case 0: return env::Zone::A;
    case 1: return env::Zone::B;
    case 2: return env::Zone::C;
    default: throw std::runtime_error("trace: bad zone index " + std::to_string(i));
  }
}

int zoneIndex(env::Zone z) { return static_cast<int>(z); }

std::vector<double> parseRow(const std::string& line, std::size_t expected) {
  std::vector<double> values;
  values.reserve(expected);
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t comma = line.find(',', start);
    const std::string_view field =
        std::string_view(line).substr(start,
                                      comma == std::string::npos ? std::string::npos
                                                                 : comma - start);
    // Locale-independent checked parse: std::stod would read "1,5" as 1.5
    // under de_DE (silently mis-splitting rows) and throw an UNCAUGHT
    // std::invalid_argument straight through the tools on garbage.
    double value = 0.0;
    if (!parseNumber(field, value))
      throw std::runtime_error("trace: non-numeric field '" + std::string(field) + "'");
    values.push_back(value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (values.size() != expected)
    throw std::runtime_error("trace: expected " + std::to_string(expected) + " fields, got " +
                             std::to_string(values.size()));
  return values;
}

}  // namespace

void writeTrace(const MissionResult& mission, std::ostream& out) {
  // The trace format is locale-independent by contract: pin the classic
  // ("C") locale so a de_DE global locale can't format 1.5 as "1,5" —
  // which would corrupt the CSV (every ',' is a field separator) and break
  // the write->read->write byte fixpoint.
  out.imbue(std::locale::classic());
  // max_digits10: doubles round-trip bit-exactly through the text format.
  out.precision(17);
  out << kMagic << "\n";
  // `status` carries the full taxonomy (integer code — frozen, see
  // MissionStatus); the four legacy bool keys are still written so older
  // readers keep their verdict, and readers prefer `status` when present.
  out << "# status=" << static_cast<int>(mission.status)
      << " reached_goal=" << mission.reached_goal() << " collided=" << mission.collided()
      << " timed_out=" << mission.timed_out() << " battery_depleted=" << mission.battery_depleted()
      << " fault_blackouts=" << mission.fault_blackouts << " fault_spikes=" << mission.fault_spikes
      << " mission_time=" << mission.mission_time << " flight_energy=" << mission.flight_energy
      << " compute_energy=" << mission.compute_energy << " battery_soc=" << mission.battery_soc
      << " distance_traveled=" << mission.distance_traveled << "\n";
  for (std::size_t i = 0; i < kColumns.size(); ++i)
    out << kColumns[i] << (i + 1 < kColumns.size() ? "," : "\n");
  for (const auto& rec : mission.records) {
    const auto& lat = rec.latencies;
    const auto& pol = rec.policy;
    out << rec.t << ',' << rec.position.x << ',' << rec.position.y << ',' << rec.position.z
        << ',' << zoneIndex(rec.zone) << ',' << rec.velocity << ',' << rec.commanded_velocity
        << ',' << rec.visibility << ',' << rec.known_free_horizon << ',' << rec.deadline << ','
        << lat.runtime << ',' << lat.point_cloud << ',' << lat.octomap << ',' << lat.bridge
        << ',' << lat.planning << ',' << lat.smoothing << ',' << lat.comm_point_cloud << ','
        << lat.comm_map << ',' << lat.comm_trajectory;
    for (const auto& stage : pol.stages) out << ',' << stage.precision << ',' << stage.volume;
    out << ',' << (rec.replanned ? 1 : 0) << ',' << (rec.plan_failed ? 1 : 0) << ','
        << (rec.budget_met ? 1 : 0) << ',' << rec.cpu_utilization << "\n";
  }
}

bool saveTrace(const MissionResult& mission, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  writeTrace(mission, out);
  return static_cast<bool>(out);
}

MissionResult readTrace(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic)
    throw std::runtime_error("trace: missing magic header");

  MissionResult mission;
  if (!std::getline(in, line) || line.rfind("# ", 0) != 0)
    throw std::runtime_error("trace: missing metadata line");
  {
    std::istringstream meta(line.substr(2));
    std::string pair;
    bool saw_status = false;
    while (meta >> pair) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos)
        throw std::runtime_error("trace: malformed metadata '" + pair + "'");
      const std::string key = pair.substr(0, eq);
      // Checked parse, same helper as the row fields: `status=abc` must
      // surface as this file's own "trace: ..." error convention, not an
      // uncaught std::invalid_argument aborting the tool.
      double value = 0.0;
      if (!parseNumber(std::string_view(pair).substr(eq + 1), value))
        throw std::runtime_error("trace: non-numeric metadata value for '" + key +
                                 "': '" + pair.substr(eq + 1) + "'");
      if (key == "status") {
        const int code = static_cast<int>(value);
        if (code < static_cast<int>(MissionStatus::ReachedGoal) ||
            code > static_cast<int>(MissionStatus::Crashed))
          throw std::runtime_error("trace: unknown status code " + pair.substr(eq + 1));
        mission.status = static_cast<MissionStatus>(code);
        saw_status = true;
      }
      // Legacy bool keys (pre-status traces): only read until a
      // `status` key has been seen; TimedOut covers the all-false reading.
      else if (key == "reached_goal" && !saw_status && value != 0.0)
        mission.status = MissionStatus::ReachedGoal;
      else if (key == "collided" && !saw_status && value != 0.0)
        mission.status = MissionStatus::Collided;
      else if (key == "battery_depleted" && !saw_status && value != 0.0)
        mission.status = MissionStatus::EnergyExhausted;
      else if (key == "fault_blackouts")
        mission.fault_blackouts = static_cast<std::size_t>(value);
      else if (key == "fault_spikes")
        mission.fault_spikes = static_cast<std::size_t>(value);
      else if (key == "mission_time") mission.mission_time = value;
      else if (key == "flight_energy") mission.flight_energy = value;
      else if (key == "compute_energy") mission.compute_energy = value;
      else if (key == "battery_soc") mission.battery_soc = value;
      else if (key == "distance_traveled") mission.distance_traveled = value;
      // Unknown keys are ignored: newer writers stay readable.
    }
  }

  if (!std::getline(in, line)) throw std::runtime_error("trace: missing column header");
  {
    std::istringstream header(line);
    std::string column;
    std::size_t i = 0;
    while (std::getline(header, column, ',')) {
      if (i >= kColumns.size() || column != kColumns[i])
        throw std::runtime_error("trace: unexpected column '" + column + "'");
      ++i;
    }
    if (i != kColumns.size()) throw std::runtime_error("trace: truncated column header");
  }

  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto v = parseRow(line, kColumns.size());
    DecisionRecord rec;
    std::size_t i = 0;
    rec.t = v[i++];
    rec.position = {v[i], v[i + 1], v[i + 2]};
    i += 3;
    rec.zone = zoneFromIndex(static_cast<int>(v[i++]));
    rec.velocity = v[i++];
    rec.commanded_velocity = v[i++];
    rec.visibility = v[i++];
    rec.known_free_horizon = v[i++];
    rec.deadline = v[i++];
    rec.latencies.runtime = v[i++];
    rec.latencies.point_cloud = v[i++];
    rec.latencies.octomap = v[i++];
    rec.latencies.bridge = v[i++];
    rec.latencies.planning = v[i++];
    rec.latencies.smoothing = v[i++];
    rec.latencies.comm_point_cloud = v[i++];
    rec.latencies.comm_map = v[i++];
    rec.latencies.comm_trajectory = v[i++];
    for (auto& stage : rec.policy.stages) {
      stage.precision = v[i++];
      stage.volume = v[i++];
    }
    rec.replanned = v[i++] != 0.0;
    rec.plan_failed = v[i++] != 0.0;
    rec.budget_met = v[i++] != 0.0;
    rec.cpu_utilization = v[i++];
    mission.records.push_back(rec);
  }
  return mission;
}

MissionResult loadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return readTrace(in);
}

std::array<ZoneSummary, 3> summarizeZones(const MissionResult& mission) {
  std::array<ZoneSummary, 3> summaries;
  summaries[0].zone = env::Zone::A;
  summaries[1].zone = env::Zone::B;
  summaries[2].zone = env::Zone::C;
  std::array<double, 3> lat_min, lat_max;
  lat_min.fill(1e300);
  lat_max.fill(-1e300);
  for (std::size_t i = 0; i < mission.records.size(); ++i) {
    const auto& rec = mission.records[i];
    auto& s = summaries[static_cast<std::size_t>(zoneIndex(rec.zone))];
    ++s.decisions;
    const double window = (i + 1 < mission.records.size())
                              ? mission.records[i + 1].t - rec.t
                              : std::max(0.0, mission.mission_time - rec.t);
    s.time_in_zone += window;
    s.mean_velocity += rec.commanded_velocity;
    const double latency = rec.latencies.total();
    s.mean_latency += latency;
    s.mean_precision += rec.policy.stage(core::Stage::Perception).precision;
    s.mean_cpu_utilization += rec.cpu_utilization;
    auto& lo = lat_min[static_cast<std::size_t>(zoneIndex(rec.zone))];
    auto& hi = lat_max[static_cast<std::size_t>(zoneIndex(rec.zone))];
    lo = std::min(lo, latency);
    hi = std::max(hi, latency);
  }
  for (std::size_t z = 0; z < summaries.size(); ++z) {
    auto& s = summaries[z];
    if (s.decisions == 0) continue;
    const double n = static_cast<double>(s.decisions);
    s.mean_velocity /= n;
    s.mean_latency /= n;
    s.mean_precision /= n;
    s.mean_cpu_utilization /= n;
    s.latency_spread = lat_max[z] - lat_min[z];
  }
  return summaries;
}

BreakdownSummary normalizedBreakdown(const MissionResult& mission) {
  BreakdownSummary sum;
  std::size_t counted = 0;
  for (const auto& rec : mission.records) {
    const double total = rec.latencies.total();
    if (total <= 0.0) continue;
    sum.runtime += rec.latencies.runtime / total;
    sum.point_cloud += rec.latencies.point_cloud / total;
    sum.octomap += rec.latencies.octomap / total;
    sum.bridge += rec.latencies.bridge / total;
    sum.planning += rec.latencies.planning / total;
    sum.smoothing += rec.latencies.smoothing / total;
    sum.comm += rec.latencies.comm() / total;
    ++counted;
  }
  if (counted > 0) {
    const double n = static_cast<double>(counted);
    sum.runtime /= n;
    sum.point_cloud /= n;
    sum.octomap /= n;
    sum.bridge /= n;
    sum.planning /= n;
    sum.smoothing /= n;
    sum.comm /= n;
  }
  return sum;
}

std::string describeTrace(const MissionResult& mission) {
  std::ostringstream os;
  os.precision(4);
  os << "verdict: " << missionStatusName(mission.status) << "\n";
  os << "mission time: " << mission.mission_time << " s over " << mission.records.size()
     << " decisions\n";
  os << "flight energy: " << mission.flight_energy / 1e3
     << " kJ  (compute: " << mission.compute_energy / 1e3 << " kJ)\n";
  os << "average velocity: " << mission.averageVelocity()
     << " m/s, median latency: " << mission.medianLatency() << " s\n";
  os << "zone  decisions  time(s)  vel(m/s)  latency(s)  spread(s)  precision(m)  cpu\n";
  for (const auto& s : summarizeZones(mission)) {
    os << "  " << env::zoneName(s.zone) << "   " << s.decisions << "  " << s.time_in_zone
       << "  " << s.mean_velocity << "  " << s.mean_latency << "  " << s.latency_spread
       << "  " << s.mean_precision << "  " << s.mean_cpu_utilization << "\n";
  }
  const auto b = normalizedBreakdown(mission);
  os << "stage shares: runtime " << b.runtime << ", pc " << b.point_cloud << ", octomap "
     << b.octomap << ", bridge " << b.bridge << ", planning " << b.planning << ", smoothing "
     << b.smoothing << ", comm " << b.comm << "\n";
  return os.str();
}

void writeTraceJson(std::ostream& os, const MissionResult& mission) {
  const auto num = [](double v) { return obs::jsonNumber(v, 6); };
  os << "{\n";
  os << "  \"schema\": \"roborun-trace-summary-v1\",\n";
  os << "  \"verdict\": \"" << obs::jsonEscape(missionStatusName(mission.status))
     << "\",\n";
  os << "  \"decisions\": " << mission.records.size() << ",\n";
  os << "  \"mission_time_s\": " << num(mission.mission_time) << ",\n";
  os << "  \"flight_energy_j\": " << num(mission.flight_energy) << ",\n";
  os << "  \"compute_energy_j\": " << num(mission.compute_energy) << ",\n";
  os << "  \"average_velocity_mps\": " << num(mission.averageVelocity()) << ",\n";
  os << "  \"median_latency_s\": " << num(mission.medianLatency()) << ",\n";
  os << "  \"zones\": [\n";
  const auto zones = summarizeZones(mission);
  for (std::size_t z = 0; z < zones.size(); ++z) {
    const ZoneSummary& s = zones[z];
    os << "    {\"zone\": \"" << env::zoneName(s.zone)
       << "\", \"decisions\": " << s.decisions
       << ", \"time_in_zone_s\": " << num(s.time_in_zone)
       << ", \"mean_velocity_mps\": " << num(s.mean_velocity)
       << ", \"mean_latency_s\": " << num(s.mean_latency)
       << ", \"latency_spread_s\": " << num(s.latency_spread)
       << ", \"mean_precision_m\": " << num(s.mean_precision)
       << ", \"mean_cpu_utilization\": " << num(s.mean_cpu_utilization) << "}"
       << (z + 1 < zones.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  const BreakdownSummary b = normalizedBreakdown(mission);
  os << "  \"stage_shares\": {\n";
  os << "    \"runtime\": " << num(b.runtime) << ",\n";
  os << "    \"point_cloud\": " << num(b.point_cloud) << ",\n";
  os << "    \"octomap\": " << num(b.octomap) << ",\n";
  os << "    \"bridge\": " << num(b.bridge) << ",\n";
  os << "    \"planning\": " << num(b.planning) << ",\n";
  os << "    \"smoothing\": " << num(b.smoothing) << ",\n";
  os << "    \"comm\": " << num(b.comm) << "\n";
  os << "  }\n";
  os << "}\n";
}

}  // namespace roborun::runtime
