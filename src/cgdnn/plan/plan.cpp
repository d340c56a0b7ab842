#include "cgdnn/plan/plan.hpp"

#include <sstream>

#include "cgdnn/plan/json_lite.hpp"

namespace cgdnn::plan {

std::string ExecutionPlan::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"net_signature\": \"" << JsonEscape(net_signature) << "\",\n";
  os << "  \"batch\": " << batch << ",\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"git_sha\": \"" << JsonEscape(git_sha) << "\",\n";
  os << "  \"gemm_isa\": \"" << JsonEscape(gemm_isa) << "\",\n";
  os << "  \"gflops\": " << gflops << ",\n";
  os << "  \"mem_gbps\": " << mem_gbps << ",\n";
  os << "  \"col_slot_bytes\": " << col_slot_bytes << ",\n";
  os << "  \"conv_decisions\": [";
  for (std::size_t i = 0; i < conv_decisions.size(); ++i) {
    const auto& d = conv_decisions[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"layer\": \"" << JsonEscape(d.layer) << "\", "
       << "\"forward_direct\": " << (d.forward_direct ? "true" : "false")
       << ", \"backward_weights_direct\": "
       << (d.backward_weights_direct ? "true" : "false")
       << ", \"im2col_us\": " << d.im2col_us
       << ", \"direct_us\": " << d.direct_us
       << ", \"measured_im2col_us\": " << d.measured_im2col_us
       << ", \"measured_direct_us\": " << d.measured_direct_us << "}";
  }
  os << "],\n";
  os << "  \"fusion_groups\": [";
  for (std::size_t i = 0; i < fusion_groups.size(); ++i) {
    const auto& g = fusion_groups[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"producer\": \"" << JsonEscape(g.producer)
       << "\", \"consumers\": [";
    for (std::size_t j = 0; j < g.consumers.size(); ++j) {
      os << (j ? ", " : "") << "\"" << JsonEscape(g.consumers[j]) << "\"";
    }
    os << "]}";
  }
  os << "],\n";
  os << "  \"arena_total_bytes\": " << arena.total_bytes << ",\n";
  os << "  \"arena_per_plane_bytes\": " << arena.per_plane_bytes << ",\n";
  os << "  \"intervals\": [";
  for (std::size_t i = 0; i < arena.intervals.size(); ++i) {
    const auto& iv = arena.intervals[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"name\": \"" << JsonEscape(iv.name) << "\", "
       << "\"kind\": " << static_cast<int>(iv.kind)
       << ", \"blob_id\": " << iv.blob_id << ", \"start\": " << iv.start
       << ", \"end\": " << iv.end << ", \"bytes\": " << iv.bytes
       << ", \"offset\": " << iv.offset
       << ", \"preserved\": " << (iv.preserved ? "true" : "false") << "}";
  }
  os << "]\n";
  os << "}\n";
  return os.str();
}

bool ExecutionPlan::FromJson(std::string_view text, ExecutionPlan* out) {
  JsonValue root;
  if (!JsonValue::Parse(text, &root) || !root.is_object()) return false;
  ExecutionPlan p;
  const JsonValue* sig = root.Find("net_signature");
  const JsonValue* sha = root.Find("git_sha");
  if (sig == nullptr || sha == nullptr) return false;
  p.net_signature = sig->AsString();
  p.git_sha = sha->AsString();
  // Absent in plans written before the key carried the ISA: the empty
  // value never matches a live key, so such a file reads as a miss.
  p.gemm_isa = root.GetString("gemm_isa");
  p.batch = root.GetInt("batch", -1);
  p.threads = static_cast<int>(root.GetInt("threads", -1));
  if (p.batch < 0 || p.threads < 0) return false;
  p.gflops = root.GetNumber("gflops");
  p.mem_gbps = root.GetNumber("mem_gbps");
  p.col_slot_bytes = root.GetInt("col_slot_bytes");

  if (const JsonValue* arr = root.Find("conv_decisions");
      arr != nullptr && arr->is_array()) {
    for (const JsonValue& e : arr->array()) {
      if (!e.is_object()) return false;
      ConvDecision d;
      d.layer = e.GetString("layer");
      if (d.layer.empty()) return false;
      d.forward_direct = e.GetBool("forward_direct");
      d.backward_weights_direct = e.GetBool("backward_weights_direct");
      d.im2col_us = e.GetNumber("im2col_us");
      d.direct_us = e.GetNumber("direct_us");
      d.measured_im2col_us = e.GetNumber("measured_im2col_us", -1);
      d.measured_direct_us = e.GetNumber("measured_direct_us", -1);
      p.conv_decisions.push_back(std::move(d));
    }
  }
  if (const JsonValue* arr = root.Find("fusion_groups");
      arr != nullptr && arr->is_array()) {
    for (const JsonValue& e : arr->array()) {
      if (!e.is_object()) return false;
      FusionGroup g;
      g.producer = e.GetString("producer");
      if (g.producer.empty()) return false;
      const JsonValue* cons = e.Find("consumers");
      if (cons == nullptr || !cons->is_array()) return false;
      for (const JsonValue& c : cons->array()) g.consumers.push_back(c.AsString());
      p.fusion_groups.push_back(std::move(g));
    }
  }
  p.arena.total_bytes = root.GetInt("arena_total_bytes");
  p.arena.per_plane_bytes = root.GetInt("arena_per_plane_bytes");
  if (const JsonValue* arr = root.Find("intervals");
      arr != nullptr && arr->is_array()) {
    for (const JsonValue& e : arr->array()) {
      if (!e.is_object()) return false;
      LifetimeInterval iv;
      iv.name = e.GetString("name");
      const index_t kind = e.GetInt("kind", -1);
      if (iv.name.empty() || kind < 0 || kind > 2) return false;
      iv.kind = static_cast<SlotKind>(kind);
      iv.blob_id = e.GetInt("blob_id", -1);
      iv.start = e.GetInt("start");
      iv.end = e.GetInt("end");
      iv.bytes = e.GetInt("bytes", -1);
      iv.offset = e.GetInt("offset", -1);
      iv.preserved = e.GetBool("preserved");
      if (iv.bytes < 0 || iv.offset < 0 || iv.end < iv.start) return false;
      p.arena.intervals.push_back(std::move(iv));
    }
  }
  *out = std::move(p);
  return true;
}

}  // namespace cgdnn::plan
