// Console and CSV reporting shared by the benches: every bench prints the
// paper-reported value next to the measured one, so a bench's raw output is
// its paper-vs-measured table (bench/paper_report.cpp covers Figs. 7-11 and
// Tables I-II).
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace roborun::runtime {

/// Fixed-width key/value line ("  velocity            2.41 m/s").
void printMetric(std::ostream& os, const std::string& name, double value,
                 const std::string& unit = "");

/// "paper X vs measured Y (ratio Z)" comparison line.
void printComparison(std::ostream& os, const std::string& name, double paper, double measured,
                     const std::string& unit = "");

/// Minimal CSV writer (no quoting — callers emit numeric tables).
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);

  bool ok() const { return static_cast<bool>(out_); }
  void header(const std::vector<std::string>& columns);
  void row(const std::vector<double>& values);
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
};

/// Section banner for bench output.
void printBanner(std::ostream& os, const std::string& title);

}  // namespace roborun::runtime
