// Turns one run's samples into the printed report: end-to-end metrics
// (untraced runs), per-layer metrics and the per-op-kind breakdown (traced
// runs), the determinism-guard counts, the span dump, and the JSON result
// line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace reedbench {

namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The p-quantile, interpolated between the samples at ranks floor and ceil
// of p * (n - 1).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t j = static_cast<std::size_t>(pos);
  if (j + 1 >= v.size()) return v.back();
  return v[j] + (pos - static_cast<double>(j)) * (v[j + 1] - v[j]);
}

// Op time of the end-to-end metrics: the 90th percentile of the run's
// samples of one op kind. The host is slow most of the time, with fast
// phases that come and go over seconds to minutes, so a run's mean or median
// moves with how much of it fell in a fast phase, while its 90th percentile
// sits in the slow state that nearly every run contains. Over 13 runs of
// each backup workload it spread 0.06-0.13 of its median where the trimmed
// mean spread 0.12-0.27 (see README.md).
double OpTimeMs(const std::vector<double>& wall_ms) {
  return Percentile(wall_ms, 0.9);
}

// Quartiles as Python's statistics.quantiles(v, n=4) ("exclusive") gives them.
std::pair<double, double> Quartiles(std::vector<double> v) {
  if (v.size() < 2) return {Median(v), Median(v)};
  std::sort(v.begin(), v.end());
  const double m = static_cast<double>(v.size()) + 1;
  auto at = [&](double pos) {
    pos = std::clamp(pos, 1.0, static_cast<double>(v.size()));
    const std::size_t j = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(j);
    if (j >= v.size()) return v.back();
    return v[j - 1] + frac * (v[j] - v[j - 1]);
  };
  return {at(m / 4), at(3 * m / 4)};
}

// The highest percentile with at least ten samples above it: with n sorted
// samples, the (n-10)th. Returns {value, percentile}.
std::pair<double, double> Tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() <= 10) return {v.empty() ? 0 : v.back(), 100};
  const std::size_t n = v.size();
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) /
                         static_cast<double>(n)};
}

std::vector<const OpSample*> OpsOf(const RunResult& r, OpKind kind) {
  std::vector<const OpSample*> out;
  for (const auto& s : r.ops) {
    if (s.kind == kind) out.push_back(&s);
  }
  return out;
}

std::vector<double> WallMs(const std::vector<const OpSample*>& ops) {
  std::vector<double> out;
  for (const auto* s : ops) out.push_back(s->wall_ms);
  return out;
}

constexpr double kMiB = 1024.0 * 1024.0;

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::vector<Metric> EndToEnd(const RunResult& r) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(r.setup_s), "s"});
  auto throughput = [&](OpKind kind) {
    auto ops = OpsOf(r, kind);
    std::vector<double> bytes;
    for (const auto* s : ops) bytes.push_back(static_cast<double>(s->logical_bytes));
    return Median(bytes) / kMiB / (OpTimeMs(WallMs(ops)) / 1000.0);
  };
  m.push_back({"upload_mb_s", throughput(OpKind::kUpload), "MiB/s"});
  m.push_back({"restore_mb_s", throughput(OpKind::kRestore), "MiB/s"});
  m.push_back({"rekey_lazy_ms", OpTimeMs(WallMs(OpsOf(r, OpKind::kRekeyLazy))), "ms"});
  m.push_back({"rekey_active_ms", OpTimeMs(WallMs(OpsOf(r, OpKind::kRekeyActive))), "ms"});
  m.push_back({"rekey_group_ms", OpTimeMs(WallMs(OpsOf(r, OpKind::kRekeyGroup))), "ms"});
  std::uint64_t disk = 0;
  for (const auto& [kind, bytes] : r.disk_bytes) disk += bytes;
  m.push_back({"storage_ratio",
               static_cast<double>(disk) /
                   static_cast<double>(std::max<std::uint64_t>(1, r.logical_bytes_stored)),
               "ratio"});
  double tx = 0, logical = 0;
  for (const auto* s : OpsOf(r, OpKind::kUpload)) {
    tx += static_cast<double>(s->storage_tx_bytes);
    logical += static_cast<double>(s->logical_bytes);
  }
  m.push_back({"upload_wire_ratio", tx / std::max(1.0, logical), "ratio"});
  return m;
}

// --- traced run: per-op layer values derived from spans + registry deltas

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Total length of the union of [start, end) intervals.
std::int64_t UnionNs(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

const char* OpcodeName(std::uint8_t opcode) {
  switch (opcode) {
    case 1: return "put_chunks";
    case 2: return "get_chunks";
    case 3: return "put_object";
    case 4: return "get_object";
    case 5: return "has_object";
    default: return "other";
  }
}

// Every per-op layer value of one traced op, keyed by per-layer name.
std::map<std::string, double> LayerValues(const OpSample& s,
                                          const std::vector<const Span*>& spans) {
  std::map<std::string, double> v;
  auto reg = [&](const std::string& name) {
    auto it = s.layer.find("reg." + name);
    return it == s.layer.end() ? 0.0 : it->second;
  };
  auto own = [&](const std::string& name) {
    auto it = s.layer.find(name);
    return it == s.layer.end() ? 0.0 : it->second;
  };
  double km_rpc = 0, km_handle = 0, rpc_sum = 0, handler_sum = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> rpc_iv;
  for (const Span* sp : spans) {
    const double d = Ms(sp->end_ns - sp->start_ns);
    if (sp->kind == SpanKind::kRpc) {
      rpc_sum += d;
      rpc_iv.emplace_back(sp->start_ns, sp->end_ns);
      if (sp->endpoint == kKeyManager) km_rpc += d;
    } else if (sp->kind == SpanKind::kHandler) {
      handler_sum += d;
      if (sp->endpoint == kKeyManager) {
        km_handle += d;
      } else {
        v[std::string("server.handle_ms.") + OpcodeName(sp->opcode)] += d;
      }
    }
  }
  const double rpc_union = Ms(UnionNs(rpc_iv));
  v["wall_ms"] = s.wall_ms;
  v["client.self_ms"] = s.wall_ms - rpc_union;
  v["rpc_ms"] = rpc_union;
  v["net.wait_ms"] = rpc_sum - handler_sum;
  v["net.tx_bytes"] = own("net.tx_bytes");
  v["net.rx_bytes"] = own("net.rx_bytes");
  v["net.rpc_calls"] = own("net.rpc_calls");
  v["keymanager.rpc_ms"] = km_rpc;
  v["keymanager.handle_ms"] = km_handle;
  // MleKeyClient's own share of keygen: cache lookups, blinding,
  // unblinding and signature checks around the key manager round trips.
  v["keymanager.client_ms"] = reg("client.upload.keygen_us") / 1000.0 - km_rpc;
  v["keymanager.signatures"] = reg("oprf.server.signatures");
  const double hits = reg("oprf.client.cache_hits");
  const double lookups = hits + reg("oprf.client.cache_misses");
  v["keymanager.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  for (const char* stage : {"chunking", "fingerprint", "keygen", "encode",
                            "wrap", "store", "metadata"}) {
    v[std::string("client.upload.") + stage + "_ms"] =
        reg(std::string("client.upload.") + stage + "_us") / 1000.0;
  }
  for (const char* stage : {"unwrap", "recipe", "fetch", "decode"}) {
    v[std::string("client.download.") + stage + "_ms"] =
        reg(std::string("client.download.") + stage + "_us") / 1000.0;
  }
  const double logical = reg("server.dedup.logical_chunks");
  v["server.dedup_ratio"] =
      logical > 0 ? reg("server.dedup.duplicate_chunks") / logical : 0;
  for (const char* c : {"store.container.appends", "store.container.bytes",
                        "store.index.lookups", "store.wal.appends",
                        "store.wal.syncs", "store.wal.group_rides",
                        "store.wal.append_bytes"}) {
    v[c] = reg(c);
  }
  for (const char* r : {"abe.decrypt_ms", "abe.encrypt_ms", "rsa.wind_ms",
                        "aont.stub_ms"}) {
    v[r] = own(r);
  }
  return v;
}

// Rows of the per-op-kind breakdown: steps that run one after another on
// the op's thread. unattributed_ms = wall - sum(rows); it is negative where
// two rows overlap in time (a restore prefetches batch i+1 while it decodes
// batch i, so its fetch and decode rows overlap).
std::vector<std::pair<std::string, double>> BreakdownRows(
    OpKind kind, const std::map<std::string, double>& v) {
  auto g = [&](const char* k) { return v.at(k); };
  switch (kind) {
    case OpKind::kUpload:
      return {{"client.upload.chunking_ms", g("client.upload.chunking_ms")},
              {"client.upload.fingerprint_ms", g("client.upload.fingerprint_ms")},
              {"keymanager.handle_ms", g("keymanager.handle_ms")},
              {"keymanager.wire_ms", g("keymanager.rpc_ms") - g("keymanager.handle_ms")},
              {"keymanager.client_ms", g("keymanager.client_ms")},
              {"client.upload.encode_ms", g("client.upload.encode_ms")},
              {"client.upload.wrap_ms", g("client.upload.wrap_ms")},
              {"client.upload.metadata_ms", g("client.upload.metadata_ms")}};
    case OpKind::kRestore:
      return {{"client.download.unwrap_ms", g("client.download.unwrap_ms")},
              {"client.download.recipe_ms", g("client.download.recipe_ms")},
              {"client.download.fetch_ms", g("client.download.fetch_ms")},
              {"client.download.decode_ms", g("client.download.decode_ms")}};
    default:
      return {{"abe.decrypt_ms", g("abe.decrypt_ms")},
              {"abe.encrypt_ms", g("abe.encrypt_ms")},
              {"rsa.wind_ms", g("rsa.wind_ms")},
              {"aont.stub_ms", g("aont.stub_ms")},
              {"rpc_ms (storage round trips)", g("rpc_ms")}};
  }
}

// Per-layer metric names reported for each op kind, with units.
std::vector<std::pair<std::string, std::string>> LayerNames(OpKind kind) {
  std::vector<std::pair<std::string, std::string>> common = {
      {"client.self_ms", "ms"},   {"net.wait_ms", "ms"},
      {"net.rpc_calls", "count"}, {"unattributed_ms", "ms"}};
  std::vector<std::pair<std::string, std::string>> out;
  switch (kind) {
    case OpKind::kUpload:
      out = {{"keymanager.rpc_ms", "ms"},
             {"keymanager.handle_ms", "ms"},
             {"keymanager.client_ms", "ms"},
             {"keymanager.signatures", "count"},
             {"keymanager.cache_hit_ratio", "ratio"},
             {"client.upload.chunking_ms", "ms"},
             {"client.upload.fingerprint_ms", "ms"},
             {"client.upload.encode_ms", "ms"},
             {"client.upload.wrap_ms", "ms"},
             {"client.upload.store_ms", "ms"},
             {"client.upload.metadata_ms", "ms"},
             {"net.tx_bytes", "bytes"},
             {"net.rx_bytes", "bytes"},
             {"server.handle_ms.put_chunks", "ms"},
             {"server.handle_ms.put_object", "ms"},
             {"server.dedup_ratio", "ratio"},
             {"store.container.appends", "count"},
             {"store.container.bytes", "bytes"},
             {"store.index.lookups", "count"},
             {"store.wal.appends", "count"},
             {"store.wal.syncs", "count"},
             {"store.wal.group_rides", "count"},
             {"store.wal.append_bytes", "bytes"}};
      break;
    case OpKind::kRestore:
      out = {{"client.download.unwrap_ms", "ms"},
             {"client.download.recipe_ms", "ms"},
             {"client.download.fetch_ms", "ms"},
             {"client.download.decode_ms", "ms"},
             {"net.tx_bytes", "bytes"},
             {"net.rx_bytes", "bytes"},
             {"server.handle_ms.get_chunks", "ms"},
             {"server.handle_ms.get_object", "ms"}};
      break;
    default:
      out = {{"abe.decrypt_ms", "ms"},
             {"abe.encrypt_ms", "ms"},
             {"rsa.wind_ms", "ms"},
             {"aont.stub_ms", "ms"},
             {"server.handle_ms.get_object", "ms"},
             {"server.handle_ms.put_object", "ms"},
             {"store.wal.appends", "count"},
             {"store.wal.syncs", "count"}};
      break;
  }
  out.insert(out.end(), common.begin(), common.end());
  return out;
}

constexpr OpKind kAllKinds[] = {OpKind::kUpload, OpKind::kRestore,
                                OpKind::kRekeyLazy, OpKind::kRekeyActive,
                                OpKind::kRekeyGroup};

// Per-layer metrics and the breakdown table (printed) of a traced run.
std::vector<Metric> PerLayer(const RunResult& r, std::ostream& table) {
  std::map<std::uint32_t, std::vector<const Span*>> by_op;
  for (const auto& sp : r.spans) {
    if (sp.kind != SpanKind::kOp) by_op[sp.op].push_back(&sp);
  }
  std::vector<Metric> metrics;
  table << "\ntrace breakdown (mean ms per op; rows run in sequence on the "
           "op's thread, unattributed = wall - rows)\n";
  for (OpKind kind : kAllKinds) {
    auto ops = OpsOf(r, kind);
    std::map<std::string, double> mean;
    std::map<std::string, double> rows_mean;
    std::vector<std::string> row_order;
    for (const auto* s : ops) {
      auto v = LayerValues(*s, by_op[s->span_id]);
      double rows = 0;
      for (const auto& [name, value] : BreakdownRows(kind, v)) {
        if (rows_mean.find(name) == rows_mean.end()) row_order.push_back(name);
        rows_mean[name] += value / static_cast<double>(ops.size());
        rows += value;
      }
      v["unattributed_ms"] = s->wall_ms - rows;
      for (const auto& [name, value] : v) {
        mean[name] += value / static_cast<double>(ops.size());
      }
    }
    const char* op = OpKindName(kind);
    char line[160];
    std::snprintf(line, sizeof(line), "  %s: %zu ops, wall %.2f ms\n", op,
                  ops.size(), mean["wall_ms"]);
    table << line;
    for (const auto& name : row_order) {
      std::snprintf(line, sizeof(line), "    %-34s %10.2f  %5.1f%%\n",
                    name.c_str(), rows_mean[name],
                    100 * rows_mean[name] / std::max(1e-9, mean["wall_ms"]));
      table << line;
    }
    std::snprintf(line, sizeof(line), "    %-34s %10.2f  %5.1f%%\n",
                  "unattributed_ms", mean["unattributed_ms"],
                  100 * mean["unattributed_ms"] / std::max(1e-9, mean["wall_ms"]));
    table << line;
    for (const auto& [name, unit] : LayerNames(kind)) {
      metrics.push_back({std::string(op) + "." + name, mean[name], unit});
    }
  }
  for (const char* kind : {"segments", "wal", "checkpoint"}) {
    auto it = r.disk_bytes.find(kind);
    metrics.push_back({std::string("store.disk_bytes.") + kind,
                       it == r.disk_bytes.end() ? 0.0
                                                : static_cast<double>(it->second),
                       "bytes"});
  }
  metrics.push_back({"host.probe_ms", Median(r.probe_ms), "ms"});
  return metrics;
}

void WriteSpans(const std::string& path, const RunResult& r) {
  std::ofstream out(path);
  out << "id\tparent\top\tkind\tname\tstart_ns\tend_ns\n";
  for (const auto& sp : r.spans) {
    std::string name;
    if (sp.kind == SpanKind::kOp) {
      name = std::string("op.") + OpKindName(sp.op_kind);
    } else {
      name = std::string(sp.kind == SpanKind::kRpc ? "rpc." : "handle.") +
             (sp.endpoint == kKeyManager ? std::string("keymanager")
              : sp.endpoint == kKeyStore
                  ? std::string("keystore.") + OpcodeName(sp.opcode)
                  : "data" + std::to_string(sp.endpoint) + "." +
                        OpcodeName(sp.opcode));
    }
    out << sp.id << '\t' << sp.parent << '\t' << sp.op << '\t'
        << (sp.kind == SpanKind::kOp ? "op" : sp.kind == SpanKind::kRpc ? "rpc" : "handler")
        << '\t' << name << '\t' << sp.start_ns << '\t' << sp.end_ns << '\n';
  }
}

std::string ResultPath(const WorkloadArgs& a, const char* what) {
  return a.out_dir + "/" + a.name + "-seed" + std::to_string(a.seed) + "." +
         what;
}

}  // namespace

int Report(const WorkloadArgs& args, const RunResult& r) {
  std::printf("reedbench workload=%s seed=%llu trace=%d ops=%llu\n",
              args.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(r.attempted));
  std::printf("set-ups (s):");
  for (double s : r.setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  std::printf("%-13s %4s %10s %10s %10s %10s %10s %s\n", "op", "n",
              "median_ms", "p25_ms", "p75_ms", "p90_ms", "tail_ms",
              "tail percentile");
  for (OpKind kind : kAllKinds) {
    auto wall = WallMs(OpsOf(r, kind));
    auto [q1, q3] = Quartiles(wall);
    auto [tail, pct] = Tail(wall);
    std::printf("%-13s %4zu %10.2f %10.2f %10.2f %10.2f %10.2f p%.1f (%zu samples)\n",
                OpKindName(kind), wall.size(), Median(wall), q1, q3,
                OpTimeMs(wall), tail, pct, wall.size());
  }
  for (OpKind kind : kAllKinds) {
    std::printf("samples_ms.%s:", OpKindName(kind));
    for (double v : WallMs(OpsOf(r, kind))) std::printf(" %.1f", v);
    std::printf("\n");
  }
  auto [pq1, pq3] = Quartiles(r.probe_ms);
  std::printf("host.probe_ms median %.3f q1 %.3f q3 %.3f (%zu probes)\n",
              Median(r.probe_ms), pq1, pq3, r.probe_ms.size());
  std::printf("op_error_ratio %.4f (%llu of %llu ops failed)\n",
              static_cast<double>(r.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("counts (identical for one seed):\n");
  std::printf("  count.logical_bytes_stored %llu\n",
              static_cast<unsigned long long>(r.logical_bytes_stored));
  for (const auto& [name, value] : r.counts) {
    std::printf("  count.%s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [kind, bytes] : r.disk_bytes) {
    std::printf("  count.disk_bytes.%s %llu\n", kind.c_str(),
                static_cast<unsigned long long>(bytes));
  }

  std::vector<Metric> e2e = EndToEnd(r);
  std::printf("end-to-end%s:\n", args.trace ? " (traced run)" : "");
  for (const auto& m : e2e) {
    std::printf("  %-18s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::vector<Metric> out_metrics = e2e;
  std::filesystem::create_directories(args.out_dir);
  if (args.trace) {
    std::ostringstream table;
    out_metrics = PerLayer(r, table);
    std::printf("%s", table.str().c_str());
    const std::string spans_path = ResultPath(args, "spans.tsv");
    WriteSpans(spans_path, r);
    std::printf("spans: %zu written to %s\n", r.spans.size(), spans_path.c_str());
    // Tracing overhead against an untraced run of the same seed, if any.
    std::ifstream base(ResultPath(args, "e2e.txt"));
    std::map<std::string, double> untraced;
    std::string name;
    double value = 0;
    while (base >> name >> value) untraced[name] = value;
    if (untraced.empty()) {
      std::printf("tracing overhead: no untraced run of this seed in %s\n",
                  args.out_dir.c_str());
    } else {
      std::printf("tracing overhead (traced vs untraced run, same seed):\n");
      for (const auto& m : e2e) {
        if (m.name.find("_ms") == std::string::npos) continue;
        auto it = untraced.find(m.name);
        if (it == untraced.end() || it->second == 0) continue;
        std::printf("  %-18s %+.1f%%\n", m.name.c_str(),
                    100 * (m.value / it->second - 1));
      }
    }
  } else {
    std::ofstream base(ResultPath(args, "e2e.txt"));
    for (const auto& m : e2e) base << m.name << ' ' << Fmt(m.value) << '\n';
  }

  if (!r.check_failures.empty()) {
    std::printf("correctness checks FAILED (%zu):\n", r.check_failures.size());
    for (const auto& f : r.check_failures) std::printf("  %s\n", f.c_str());
  } else {
    std::printf("correctness checks passed\n");
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out_metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + out_metrics[i].name + "\": {\"value\": " +
            Fmt(out_metrics[i].value) + ", \"unit\": \"" + out_metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct && r.failed == 0 ? 0 : 1;
}

}  // namespace reedbench
