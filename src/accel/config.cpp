#include "accel/config.h"

#include <sstream>
#include <stdexcept>

namespace yoso {

std::string dataflow_name(Dataflow df) {
  switch (df) {
    case Dataflow::kWeightStationary: return "WS";
    case Dataflow::kOutputStationary: return "OS";
    case Dataflow::kRowStationary: return "RS";
    case Dataflow::kNoLocalReuse: return "NLR";
  }
  throw std::invalid_argument("dataflow_name: invalid dataflow");
}

std::string AcceleratorConfig::to_string() const {
  std::ostringstream ss;
  ss << pe_rows << "*" << pe_cols << "/" << g_buf_kb << "KB/" << r_buf_bytes
     << "B/" << dataflow_name(dataflow);
  return ss.str();
}

int ConfigSpace::cardinality(int action) const {
  switch (action) {
    case 0: return static_cast<int>(pe_shapes.size());
    case 1: return static_cast<int>(g_buf_kb_options.size());
    case 2: return static_cast<int>(r_buf_byte_options.size());
    case 3: return kNumDataflows;
    default:
      throw std::invalid_argument("ConfigSpace::cardinality: bad action index");
  }
}

std::size_t ConfigSpace::size() const {
  std::size_t total = 1;
  for (int a = 0; a < kActionCount; ++a)
    total *= static_cast<std::size_t>(cardinality(a));
  return total;
}

AcceleratorConfig ConfigSpace::decode(std::span<const int> actions) const {
  if (actions.size() != static_cast<std::size_t>(kActionCount))
    throw std::invalid_argument("ConfigSpace::decode: expected 4 actions");
  for (int a = 0; a < kActionCount; ++a)
    if (actions[static_cast<std::size_t>(a)] < 0 ||
        actions[static_cast<std::size_t>(a)] >= cardinality(a))
      throw std::invalid_argument("ConfigSpace::decode: action " +
                                  std::to_string(a) + " out of range");
  AcceleratorConfig c;
  const auto& shape = pe_shapes[static_cast<std::size_t>(actions[0])];
  c.pe_rows = shape.first;
  c.pe_cols = shape.second;
  c.g_buf_kb = g_buf_kb_options[static_cast<std::size_t>(actions[1])];
  c.r_buf_bytes = r_buf_byte_options[static_cast<std::size_t>(actions[2])];
  c.dataflow = static_cast<Dataflow>(actions[3]);
  return c;
}

std::vector<int> ConfigSpace::encode(const AcceleratorConfig& config) const {
  std::vector<int> actions(kActionCount, -1);
  for (std::size_t i = 0; i < pe_shapes.size(); ++i)
    if (pe_shapes[i].first == config.pe_rows &&
        pe_shapes[i].second == config.pe_cols)
      actions[0] = static_cast<int>(i);
  for (std::size_t i = 0; i < g_buf_kb_options.size(); ++i)
    if (g_buf_kb_options[i] == config.g_buf_kb) actions[1] = static_cast<int>(i);
  for (std::size_t i = 0; i < r_buf_byte_options.size(); ++i)
    if (r_buf_byte_options[i] == config.r_buf_bytes)
      actions[2] = static_cast<int>(i);
  actions[3] = static_cast<int>(config.dataflow);
  for (int a = 0; a < kActionCount; ++a)
    if (actions[static_cast<std::size_t>(a)] < 0)
      throw std::invalid_argument(
          "ConfigSpace::encode: config not in space: " + config.to_string());
  return actions;
}

std::vector<AcceleratorConfig> ConfigSpace::enumerate() const {
  std::vector<AcceleratorConfig> configs;
  configs.reserve(size());
  for (const auto& [rows, cols] : pe_shapes)
    for (const int g : g_buf_kb_options)
      for (const int r : r_buf_byte_options)
        for (int d = 0; d < kNumDataflows; ++d)
          configs.push_back({rows, cols, g, r, static_cast<Dataflow>(d)});
  return configs;
}

ConfigSpace default_config_space() {
  ConfigSpace space;
  // Covers 8x8 .. 16x32 including every shape reported in Table 2
  // (16*32, 14*16, 16*20).
  space.pe_shapes = {{8, 8},   {8, 16},  {10, 16}, {12, 16}, {14, 16},
                     {16, 16}, {16, 20}, {16, 24}, {16, 32}};
  // 108..1024 KB, including the 108/196/256/512 KB points of Table 2.
  space.g_buf_kb_options = {108, 196, 256, 512, 1024};
  // 64..1024 B.
  space.r_buf_byte_options = {64, 128, 256, 512, 1024};
  return space;
}

}  // namespace yoso
