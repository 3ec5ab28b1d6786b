#include "arch/zoo.h"

#include <array>
#include <stdexcept>

#include "arch/genotype.h"
#include "arch/ops.h"

namespace yoso {

namespace {

// Shorthand for readable genotype literals below.
constexpr Op kC3 = Op::kConv3x3;
constexpr Op kC5 = Op::kConv5x5;
constexpr Op kD3 = Op::kDwConv3x3;
constexpr Op kD5 = Op::kDwConv5x5;
constexpr Op kMx = Op::kMaxPool3x3;
constexpr Op kAv = Op::kAvgPool3x3;

CellGenotype cell(const std::array<NodeSpec, kInteriorNodes>& nodes) {
  const CellGenotype c{nodes};
  std::string error;
  if (!validate_cell(c, &error))
    throw std::logic_error("zoo: invalid hand-written cell: " + error);
  return c;
}

// The published models these genotypes stand in for are all large
// (~2.5-3.4 M parameters on CIFAR-10); the op mixes below mirror each
// paper's cell style while keeping every reference net in a comparable
// 150-300 MMAC band, so the two-stage baseline differs from YOSO in
// *fit to the accelerator*, not in raw model size.
std::vector<ReferenceModel> build_models() {
  std::vector<ReferenceModel> models;

  // NasNet-A: 5x5-heavy separable branches plus average pools, wide fan-in
  // from the two cell inputs.
  {
    ReferenceModel m;
    m.name = "NasNet-A";
    m.paper_test_error = 3.41;
    m.paper_search_gpu_days = 1800;
    m.genotype.normal = cell({{
        {0, 1, kC5, kD3},
        {1, 0, kAv, kD5},
        {1, 0, kC5, kAv},
        {1, 1, kD5, kD3},
        {0, 2, kD5, kAv},
    }});
    m.genotype.reduction = cell({{
        {0, 1, kC5, kD5},
        {1, 0, kMx, kD5},
        {1, 0, kAv, kC5},
        {2, 1, kMx, kD3},
        {2, 3, kAv, kMx},
    }});
    models.push_back(std::move(m));
  }

  // DARTS (first order): separable-3x3 heavy with skip-like avg pools —
  // the leanest of the six references.
  {
    ReferenceModel m;
    m.name = "Darts_v1";
    m.paper_test_error = 3.0;
    m.paper_search_gpu_days = 0.38;
    m.genotype.normal = cell({{
        {0, 1, kD3, kC3},
        {0, 1, kD3, kC3},
        {1, 2, kD3, kC3},
        {0, 3, kC3, kD3},
        {2, 4, kD3, kC3},
    }});
    m.genotype.reduction = cell({{
        {0, 1, kMx, kC3},
        {1, 2, kMx, kD3},
        {2, 1, kMx, kD3},
        {2, 3, kC3, kMx},
        {3, 4, kD3, kC3},
    }});
    models.push_back(std::move(m));
  }

  // DARTS (second order): the strongest two-stage entry (2.82 %); dense
  // convolutional mix.
  {
    ReferenceModel m;
    m.name = "Darts_v2";
    m.paper_test_error = 2.82;
    m.paper_search_gpu_days = 1;
    m.genotype.normal = cell({{
        {0, 1, kC3, kD3},
        {0, 1, kD3, kC3},
        {1, 2, kC3, kD3},
        {0, 2, kC3, kC3},
        {2, 4, kD3, kMx},
    }});
    m.genotype.reduction = cell({{
        {0, 1, kMx, kC3},
        {1, 2, kMx, kC3},
        {2, 1, kMx, kD3},
        {2, 3, kC3, kC3},
        {3, 4, kC3, kC3},
    }});
    models.push_back(std::move(m));
  }

  // AmoebaNet-A: evolved cell, 5x5 branches + average pools.
  {
    ReferenceModel m;
    m.name = "AmoebaNet-A";
    m.paper_test_error = 3.12;
    m.paper_search_gpu_days = 3150;
    m.genotype.normal = cell({{
        {0, 1, kAv, kC5},
        {1, 2, kD3, kC3},
        {0, 2, kAv, kD5},
        {1, 3, kC5, kC3},
        {3, 4, kAv, kD5},
    }});
    m.genotype.reduction = cell({{
        {0, 1, kAv, kD5},
        {1, 0, kMx, kC5},
        {0, 2, kMx, kC5},
        {2, 3, kD3, kC3},
        {3, 4, kAv, kC5},
    }});
    models.push_back(std::move(m));
  }

  // ENAS: parameter-sharing search result; conv-rich and energy-hungry in
  // the paper's measurements (16.65 mJ).
  {
    ReferenceModel m;
    m.name = "EnasNet";
    m.paper_test_error = 2.89;
    m.paper_search_gpu_days = 1;
    m.genotype.normal = cell({{
        {0, 1, kC5, kC3},
        {1, 2, kC5, kC3},
        {1, 0, kAv, kD3},
        {2, 3, kC3, kD3},
        {0, 4, kD3, kAv},
    }});
    m.genotype.reduction = cell({{
        {0, 1, kMx, kC5},
        {1, 2, kAv, kC3},
        {1, 0, kMx, kC5},
        {3, 2, kC3, kD3},
        {3, 4, kD3, kC3},
    }});
    models.push_back(std::move(m));
  }

  // PNASNet: progressive search result; 5x5-heavy and pool-rich — the most
  // expensive and the weakest accuracy of the six in Table 2.
  {
    ReferenceModel m;
    m.name = "PnasNet";
    m.paper_test_error = 3.63;
    m.paper_search_gpu_days = 150;
    m.genotype.normal = cell({{
        {0, 1, kC5, kMx},
        {1, 1, kC5, kAv},
        {0, 2, kC5, kD5},
        {1, 3, kD5, kMx},
        {2, 4, kD5, kAv},
    }});
    m.genotype.reduction = cell({{
        {0, 1, kC5, kMx},
        {1, 0, kMx, kD5},
        {1, 2, kAv, kC5},
        {2, 3, kMx, kC5},
        {3, 4, kD5, kAv},
    }});
    models.push_back(std::move(m));
  }

  return models;
}

}  // namespace

std::vector<ReferenceModel> reference_models() {
  return build_models();
}

const ReferenceModel& reference_model(const std::string& name) {
  static const std::vector<ReferenceModel> models = build_models();
  for (const auto& m : models)
    if (m.name == name) return m;
  throw std::invalid_argument("reference_model: unknown model '" + name + "'");
}

}  // namespace yoso
