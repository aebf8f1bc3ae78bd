// Shared helpers for the figure-reproduction benchmarks: flag parsing,
// paper-style table output, and machine-readable JSON result files.
#ifndef BLOBSEER_BENCH_BENCH_UTIL_H_
#define BLOBSEER_BENCH_BENCH_UTIL_H_

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace blobseer::bench {

/// --name=value flag lookup.
inline std::string FlagValue(int argc, char** argv, const std::string& name,
                             const std::string& def) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; i++) {
    if (strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return std::string(argv[i]).substr(prefix.size());
  }
  return def;
}

inline uint64_t FlagU64(int argc, char** argv, const std::string& name,
                        uint64_t def) {
  std::string v = FlagValue(argc, argv, name, "");
  return v.empty() ? def : strtoull(v.c_str(), nullptr, 10);
}

inline double FlagDouble(int argc, char** argv, const std::string& name,
                         double def) {
  std::string v = FlagValue(argc, argv, name, "");
  return v.empty() ? def : strtod(v.c_str(), nullptr);
}

inline bool FlagBool(int argc, char** argv, const std::string& name,
                     bool def) {
  std::string v = FlagValue(argc, argv, name, def ? "true" : "false");
  return v == "true" || v == "1" || v == "yes";
}

/// True when the bench should run a seconds-scale smoke workload instead of
/// the full paper-figure sweep: `--quick` on the command line, or
/// BLOBSEER_BENCH_SMOKE set (non-empty, not "0") in the environment. CI uses
/// the environment form so paper benches cannot silently bit-rot.
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--quick") == 0) return true;
  }
  if (FlagBool(argc, argv, "quick", false)) return true;
  const char* env = getenv("BLOBSEER_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && strcmp(env, "0") != 0;
}

/// Aligned table printer: header row then data rows, also echoed as CSV
/// lines prefixed with "csv," for scripting.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> width(columns_.size());
    for (size_t c = 0; c < columns_.size(); c++) width[c] = columns_[c].size();
    for (const auto& r : rows_) {
      for (size_t c = 0; c < r.size() && c < width.size(); c++) {
        if (r[c].size() > width[c]) width[c] = r[c].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& r) {
      printf("  ");
      for (size_t c = 0; c < r.size(); c++) {
        printf("%-*s  ", static_cast<int>(width[c]), r[c].c_str());
      }
      printf("\n");
    };
    print_row(columns_);
    std::string rule;
    for (size_t c = 0; c < columns_.size(); c++) {
      rule += std::string(width[c], '-') + "  ";
    }
    printf("  %s\n", rule.c_str());
    for (const auto& r : rows_) print_row(r);
    // CSV echo for downstream plotting.
    printf("\n");
    auto csv_row = [](const std::vector<std::string>& r) {
      printf("csv");
      for (const auto& cell : r) printf(",%s", cell.c_str());
      printf("\n");
    };
    csv_row(columns_);
    for (const auto& r : rows_) csv_row(r);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

namespace internal {
inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string JsonU64(uint64_t value) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

/// JSON has no NaN or infinity: non-finite values render as null.
inline std::string JsonDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}
}  // namespace internal

class JsonObject;

/// Ordered JSON array builder — the workload benches emit throughput
/// timelines and per-bucket series as arrays alongside JsonObject fields.
class JsonArray {
 public:
  void AddU64(uint64_t value) { items_.push_back(internal::JsonU64(value)); }
  void AddDouble(double value) {
    items_.push_back(internal::JsonDouble(value));
  }
  void AddString(const std::string& value) {
    items_.emplace_back(internal::JsonQuote(value));
  }
  void AddRendered(std::string rendered) {  // pre-rendered object/array
    items_.push_back(std::move(rendered));
  }

  std::string Render() const {
    std::string out = "[";
    for (size_t i = 0; i < items_.size(); i++) {
      if (i > 0) out += ", ";
      out += items_[i];
    }
    return out + "]";
  }

 private:
  std::vector<std::string> items_;
};

/// Insertion-ordered JSON object builder for bench result files. Values are
/// rendered on Put; nested objects nest via PutObject. Only what the
/// benches need — strings are escaped for quotes, backslashes and control
/// characters; non-finite doubles become null.
class JsonObject {
 public:
  void PutU64(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, internal::JsonU64(value));
  }
  void PutDouble(const std::string& key, double value) {
    fields_.emplace_back(key, internal::JsonDouble(value));
  }
  void PutBool(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }
  void PutString(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, internal::JsonQuote(value));
  }
  void PutObject(const std::string& key, const JsonObject& obj) {
    fields_.emplace_back(key, obj.Render());
  }
  void PutArray(const std::string& key, const JsonArray& arr) {
    fields_.emplace_back(key, arr.Render());
  }

  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); i++) {
      if (i > 0) out += ", ";
      out += internal::JsonQuote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One field per counter of a stats struct (common/stats.h), in list order.
template <serde::Record S>
JsonObject StatsJson(const S& s) {
  JsonObject o;
  stats::ForEach(s, [&o](const char* name, uint64_t value) {
    o.PutU64(name, value);
  });
  return o;
}

/// Writes a bench result document to `path` (pretty enough: one object,
/// trailing newline). Honoured destination of the shared --json=PATH flag;
/// returns false (with a note on stderr) when the file cannot be written.
inline bool WriteJsonFile(const std::string& path, const JsonObject& doc) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::string body = doc.Render();
  fprintf(f, "%s\n", body.c_str());
  fclose(f);
  printf("\nresults written to %s\n", path.c_str());
  return true;
}

}  // namespace blobseer::bench

#endif  // BLOBSEER_BENCH_BENCH_UTIL_H_
